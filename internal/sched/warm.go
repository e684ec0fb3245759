package sched

import "paotr/internal/query"

// Warm describes data items already held in the device cache when a
// schedule starts: Warm[k][t-1] is true when the t-th most recent item of
// stream k is in memory, so no leaf pays for it. A nil Warm (or a short
// row) means a cold cache.
//
// Warm state generalizes the NItems mechanism of the paper's Algorithm 1
// (which tracks a per-stream prefix of acquired items) to arbitrary cached
// subsets, as arise in continuous query processing: after the clock
// advances, the newest item is missing while older items are still held.
type Warm [][]bool

// Has reports whether item t (1-based) of stream k is cached.
func (w Warm) Has(k query.StreamID, t int) bool {
	if w == nil || int(k) >= len(w) {
		return false
	}
	row := w[k]
	return t-1 < len(row) && row[t-1]
}

// Equal reports whether two warm snapshots describe the same cache state,
// row by row. Plan caches compare the snapshot a plan was built against
// with the current one before reusing the plan.
func (w Warm) Equal(o Warm) bool {
	if len(w) != len(o) {
		return false
	}
	for k := range w {
		if len(w[k]) != len(o[k]) {
			return false
		}
		for t := range w[k] {
			if w[k][t] != o[k][t] {
				return false
			}
		}
	}
	return true
}

// WarmFromCounts builds a prefix-form warm state: counts[k] most recent
// items of stream k are cached. This is exactly the NItems array of
// Algorithm 1.
func WarmFromCounts(counts []int) Warm {
	w := make(Warm, len(counts))
	for k, n := range counts {
		row := make([]bool, n)
		for i := range row {
			row[i] = true
		}
		w[k] = row
	}
	return w
}

// CostWarm is Cost with a warm cache: items already held contribute zero
// acquisition cost for every leaf. CostWarm(t, s, nil) == Cost(t, s).
func CostWarm(t *query.Tree, s Schedule, w Warm) float64 {
	if w == nil {
		return Cost(t, s)
	}
	return costImpl(t, s, w)
}

// AndTreeCostWarm is AndTreeCost with a warm cache.
func AndTreeCostWarm(t *query.Tree, s Schedule, w Warm) float64 {
	if !t.IsAndTree() {
		panic("sched: AndTreeCostWarm on a tree with multiple AND nodes")
	}
	acquired := make([][]bool, t.NumStreams())
	maxD := t.StreamMaxItems()
	for k := range acquired {
		acquired[k] = make([]bool, maxD[k])
		for d := range acquired[k] {
			acquired[k][d] = w.Has(query.StreamID(k), d+1)
		}
	}
	reach := 1.0
	total := 0.0
	for _, j := range s {
		l := t.Leaves[j]
		missing := 0
		for d := 0; d < l.Items; d++ {
			if !acquired[l.Stream][d] {
				missing++
				acquired[l.Stream][d] = true
			}
		}
		if missing > 0 {
			total += reach * float64(missing) * t.Streams[l.Stream].Cost
		}
		reach *= l.Prob
	}
	return total
}

// ExecutorWarm executes one truth assignment starting from a warm cache;
// used to validate CostWarm.
func ExecutorWarm(t *query.Tree, s Schedule, truth []bool, w Warm) float64 {
	acquired := make([][]bool, t.NumStreams())
	maxD := t.StreamMaxItems()
	for k := range acquired {
		acquired[k] = make([]bool, maxD[k])
		for d := range acquired[k] {
			acquired[k][d] = w.Has(query.StreamID(k), d+1)
		}
	}
	nAnds := t.NumAnds()
	andFalse := make([]bool, nAnds)
	andLeft := make([]int, nAnds)
	for i, and := range t.AndLeaves() {
		andLeft[i] = len(and)
	}
	falseAnds := 0
	cost := 0.0
	for _, j := range s {
		l := t.Leaves[j]
		if andFalse[l.And] {
			continue
		}
		for d := 0; d < l.Items; d++ {
			if !acquired[l.Stream][d] {
				acquired[l.Stream][d] = true
				cost += t.Streams[l.Stream].Cost
			}
		}
		andLeft[l.And]--
		if !truth[j] {
			andFalse[l.And] = true
			falseAnds++
			if falseAnds == nAnds {
				break
			}
		} else if andLeft[l.And] == 0 {
			break
		}
	}
	return cost
}

// ExactCostEnumWarm is the truth-table reference for CostWarm.
func ExactCostEnumWarm(t *query.Tree, s Schedule, w Warm) float64 {
	m := t.NumLeaves()
	if m > 30 {
		panic("sched: ExactCostEnumWarm limited to 30 leaves")
	}
	truth := make([]bool, m)
	total := 0.0
	for mask := 0; mask < 1<<uint(m); mask++ {
		prob := 1.0
		for j := 0; j < m; j++ {
			if mask&(1<<uint(j)) != 0 {
				truth[j] = true
				prob *= t.Leaves[j].Prob
			} else {
				truth[j] = false
				prob *= 1 - t.Leaves[j].Prob
			}
		}
		if prob == 0 {
			continue
		}
		total += prob * ExecutorWarm(t, s, truth, w)
	}
	return total
}
