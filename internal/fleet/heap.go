package fleet

import (
	"math"
	"sync"

	"paotr/internal/query"
)

// The joint greedy's selection loop used to rescan every remaining unit
// after each placement — O(u²) probes per plan, the measured scaling wall
// of PR 5. This file replaces the scan with a lazily-rediscounted C/p
// min-heap: committing a unit only ever *changes* the keys of units it
// interacts with (its own query's remaining units, whose prefix state it
// mutated, and other queries' units touching a stream whose accumulated
// acquisition probability moved), so only that interaction set is
// repriced after each placement and everything else keeps its cached key.
//
// Unlike classic CELF (maximization, keys only decrease in value), the
// joint objective is a *minimization* whose keys only ever decrease as
// placements accumulate discounts — a stale key is an upper bound, which
// is the wrong direction to lazily accept a pop from a min-heap. Exact
// event-driven repricing sidesteps the issue: every live heap key is
// recomputed from the exact state it would be probed against, so the heap
// front is always the true minimum and the selection sequence — and hence
// the schedules — is byte-identical to the reference quadratic scan
// (asserted by TestHeapPlannerMatchesReference). Stale entries are
// version-stamped and skipped on pop.

// heapEntry is one (possibly stale) priced unit in the selection heap.
type heapEntry struct {
	key float64 // cross-discounted delta / unit success probability
	w   int32   // subscriber weight, the first tie-break (higher wins)
	idx int32   // unit index, the reference scan's final tie-break order
	ver uint32  // liveness stamp; stale entries are skipped on pop
}

// entryLess orders the heap by (key, -weight, unit index) — exactly the
// reference scan's strict `key < bestKey` first-minimum rule extended
// with the subscriber-weight tie-break (equal keys resolve the widest
// shape class first), including the all-keys-+Inf fallback. With all
// weights equal it reduces to the unweighted (key, index) order.
func entryLess(a, b heapEntry) bool {
	if a.key != b.key {
		return a.key < b.key
	}
	if a.w != b.w {
		return a.w > b.w
	}
	return a.idx < b.idx
}

// unitHeap is a plain slice binary min-heap; the container/heap interface
// would force a heap-allocated interface value per operation.
type unitHeap []heapEntry

func (h *unitHeap) push(e heapEntry) {
	*h = append(*h, e)
	s := *h
	i := len(s) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !entryLess(s[i], s[parent]) {
			break
		}
		s[i], s[parent] = s[parent], s[i]
		i = parent
	}
}

func (h *unitHeap) pop() heapEntry {
	s := *h
	top := s[0]
	n := len(s) - 1
	s[0] = s[n]
	*h = s[:n]
	s = s[:n]
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		small := i
		if l < n && entryLess(s[l], s[small]) {
			small = l
		}
		if r < n && entryLess(s[r], s[small]) {
			small = r
		}
		if small == i {
			break
		}
		s[i], s[small] = s[small], s[i]
		i = small
	}
	return top
}

// greedyScratch pools the per-plan selection state so steady-state
// replans allocate nothing beyond the plan itself. trees and at hold the
// classes a plan places and their input positions.
type greedyScratch struct {
	trees    []*query.Tree
	at       []int
	units    []unit
	keys     []float64
	ver      []uint32
	placed   []bool
	stamp    []int
	heap     unitHeap
	byQuery  [][]int32
	byStream [][]int32
	seen     []int
}

var greedyScratchPool = sync.Pool{New: func() any { return new(greedyScratch) }}

func intsGrown(s []int, n int) []int {
	if cap(s) < n {
		return make([]int, n)
	}
	s = s[:n]
	for i := range s {
		s[i] = 0
	}
	return s
}

// placeGreedyHeap runs the exact lazy-repricing greedy: it commits every
// unit into st in cheapest-first order and reports each placement to
// place. The placement sequence is identical to placeGreedyQuad's.
func placeGreedyHeap(st *jointState, units []unit, sc *greedyScratch, place func(u unit, delta float64)) {
	n := len(units)
	if n == 0 {
		return
	}
	if cap(sc.keys) < n {
		sc.keys = make([]float64, n)
		sc.ver = make([]uint32, n)
		sc.placed = make([]bool, n)
	}
	keys, ver, placed := sc.keys[:n], sc.ver[:n], sc.placed[:n]
	for i := range ver {
		ver[i] = 0
		placed[i] = false
	}
	sc.stamp = intsGrown(sc.stamp, n)
	stamp := sc.stamp
	if cap(sc.heap) < n {
		sc.heap = make(unitHeap, 0, 2*n)
	}
	h := &sc.heap
	*h = (*h)[:0]

	// Interaction indexes: units by owning query, and by touched stream.
	nq := 0
	for _, u := range units {
		if u.q+1 > nq {
			nq = u.q + 1
		}
	}
	for len(sc.byQuery) < nq {
		sc.byQuery = append(sc.byQuery, nil)
	}
	byQuery := sc.byQuery[:nq]
	for i := range byQuery {
		byQuery[i] = byQuery[i][:0]
	}
	ns := len(st.cost)
	for len(sc.byStream) < ns {
		sc.byStream = append(sc.byStream, nil)
	}
	byStream := sc.byStream[:ns]
	for i := range byStream {
		byStream[i] = byStream[i][:0]
	}
	sc.seen = intsGrown(sc.seen, ns)
	seen := sc.seen
	for i, u := range units {
		byQuery[u.q] = append(byQuery[u.q], int32(i))
		for _, j := range u.leaves {
			k := int(st.trees[u.q].Leaves[j].Stream)
			if seen[k] != i+1 {
				seen[k] = i + 1
				byStream[k] = append(byStream[k], int32(i))
			}
		}
	}

	price := func(i int) float64 {
		delta := st.appendUnit(units[i], false)
		if units[i].prob > 0 {
			return delta / units[i].prob
		}
		return math.Inf(1)
	}
	for i := range units {
		keys[i] = price(i)
		h.push(heapEntry{key: keys[i], w: units[i].weight, idx: int32(i)})
	}

	round := 0
	reprice := func(j32 int32) {
		j := int(j32)
		if placed[j] || stamp[j] == round {
			return
		}
		stamp[j] = round
		ver[j]++
		keys[j] = price(j)
		h.push(heapEntry{key: keys[j], w: units[j].weight, idx: j32, ver: ver[j]})
	}
	for count := 0; count < n; count++ {
		var i int
		for {
			e := h.pop()
			i = int(e.idx)
			if !placed[i] && e.ver == ver[i] {
				break
			}
		}
		placed[i] = true
		round++
		stamp[i] = round
		st.beginTouch()
		delta := st.appendUnit(units[i], true)
		place(units[i], delta)
		// The placed unit completed one of its query's AND nodes, changing
		// the sibling units' F2/pi factors: reprice the whole query.
		for _, j := range byQuery[units[i].q] {
			reprice(j)
		}
		// Other queries only see the placement through the accumulated
		// acquisition probabilities on the streams it touched.
		for _, k := range st.touch {
			for _, j := range byStream[k] {
				reprice(j)
			}
		}
	}
}

// placeGreedyQuad is the seed planner's selection loop, retained verbatim
// as the oracle the heap planner is asserted byte-identical against (and
// as the baseline BENCH_plan.json measures the speedup from).
func placeGreedyQuad(st *jointState, units []unit, place func(u unit, delta float64)) {
	remaining := units
	for len(remaining) > 0 {
		bestIdx := -1
		bestKey := math.Inf(1)
		bestW := int32(math.MinInt32)
		for idx, u := range remaining {
			delta := st.appendUnit(u, false)
			key := math.Inf(1)
			if u.prob > 0 {
				key = delta / u.prob
			}
			// Same (key, -weight, index) order as the heap's entryLess:
			// strict key minimum first, wider subscriber weight on exact
			// ties, earliest unit last. With equal weights this is the seed
			// scan's strict `key < bestKey` rule verbatim.
			if key < bestKey || (key == bestKey && u.weight > bestW) {
				bestKey = key
				bestW = u.weight
				bestIdx = idx
			}
		}
		if bestIdx == -1 {
			bestIdx = 0 // all keys +Inf: any order is as good
		}
		u := remaining[bestIdx]
		delta := st.appendUnit(u, true)
		place(u, delta)
		remaining = append(remaining[:bestIdx], remaining[bestIdx+1:]...)
	}
}
