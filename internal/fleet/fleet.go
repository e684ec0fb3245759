// Package fleet plans all queries due at a tick as one joint workload,
// generalizing the paper's shared-aware scheduling across query
// boundaries.
//
// Within one query, the planner layers of this repository already price
// an item as free once an earlier leaf of the same schedule (probably)
// acquires it — Algorithm 1's same-stream prefixes for AND-trees and the
// AND-ordered increasing-C/p dynamic heuristic for DNF trees. A fleet of
// concurrent queries shares the same acquisition cache, so the same
// discount applies *across* queries: an item some sibling query will
// probably pull this tick is probably free for everyone else. The joint
// planner applies the C/p greedy over the AND units of every due query
// at once, discounting each item's marginal cost by the probability that
// no previously placed unit — of any query — acquires it.
//
// The modelled joint cost has a closed form: queries execute
// independently, so for every uncached item the fleet pays
//
//	c(S_k) * (1 - prod_q (1 - P_q(item)))
//
// where P_q(item) is the probability query q's schedule acquires the
// item (the summed Proposition 2 weights exposed by
// sched.Prefix.AppendVisit). The greedy's incremental accounting
// telescopes to exactly this quantity, whatever the interleaving. As a
// guardrail the planner also prices the independently planned per-query
// schedules under the same joint objective and keeps whichever of the
// two is cheaper, so its modelled joint cost never exceeds the sum of
// the independent plans' costs.
package fleet

import (
	"fmt"
	"math"
	"strings"
	"sync"

	"paotr/internal/andtree"
	"paotr/internal/dnf"
	"paotr/internal/query"
	"paotr/internal/sched"
)

// QueryPlan is the per-query slice of a joint plan.
type QueryPlan struct {
	// Schedule is the planned leaf evaluation order for the query.
	Schedule sched.Schedule
	// Expected is the share of the joint expected cost attributed to
	// this query: the sum of its units' cross-discounted marginals. The
	// per-query split depends on placement order; the fleet total is
	// what the planner minimizes.
	Expected float64
}

// Prefetch is one stream's slice of the joint acquisition manifest: the
// items to pre-acquire once on behalf of every due query whose schedule
// opens on the stream.
type Prefetch struct {
	// Stream is the registry stream index.
	Stream int
	// Items is the window to pre-acquire: the maximum first-leaf window
	// over the queries opening on this stream.
	Items int
	// Windows holds the individual first-leaf windows, one per opening
	// query, for duplicate-pull accounting.
	Windows []int
}

// Plan is a joint schedule for one tick's due queries: per-query leaf
// orders, the modelled joint expected acquisition cost, and the
// deduplicated acquisition manifest of the fleet's opening windows.
type Plan struct {
	// Queries holds one plan per input tree, in input order.
	Queries []QueryPlan
	// Expected is the modelled joint expected acquisition cost of the
	// fleet: every item is paid at most once however many queries need
	// it.
	Expected float64
	// IndependentExpected is the sum of the independently planned
	// per-query expected costs — the cost model of per-query planning,
	// which prices shared items once per query. Expected never exceeds
	// it.
	IndependentExpected float64
	// GreedyJoint reports whether the cross-query greedy order won the
	// best-of-two against the independently planned orders re-priced
	// under the joint objective.
	GreedyJoint bool
	// Patched reports that the plan was produced by incrementally
	// patching a cached joint plan — surviving queries kept their cached
	// schedules and only the added or stale queries' units were re-placed
	// — rather than by a full replan (see Planner.MarkStale).
	Patched bool
	// Manifest is the deduplicated acquisition plan: for every stream
	// some query's schedule opens on, the window to pre-acquire once.
	// First leaves are evaluated unconditionally, so pre-pulling them
	// never wastes cost.
	Manifest []Prefetch
}

// unit is one AND node of one query, the placement granularity of the
// joint greedy (the AND-ordered family of the paper).
type unit struct {
	q      int   // index into the input trees
	leaves []int // leaf indices into trees[q], in Algorithm 1 order
	prob   float64
	// weight is the query's subscriber count under shape factoring: a
	// tree standing for w interned twin queries carries w. Weights break
	// exact C/p key ties in favour of the widest-fanout shape (resolving
	// more subscribers earlier) and never enter plan fingerprints — the
	// cross-discounted objective is invariant to them because a factored
	// shape executes once however many identities subscribe.
	weight int32
}

// jointState prices unit placements under the joint objective: per-query
// Proposition 2 prefixes plus the cross-query acquisition probabilities
// accumulated so far.
type jointState struct {
	trees []*query.Tree
	px    []*sched.Prefix
	// acc[q][k][d] = probability that query q's placed units acquire
	// item d+1 of stream k.
	acc [][][]float64
	// nz[k][d] lists, in ascending query order, the queries whose acc on
	// item d+1 of stream k is non-zero. cross multiplies only these
	// factors; the skipped ones are exactly 1.0, so the product is
	// bit-identical to a scan over every query while costing
	// O(sharing degree) instead of O(fleet size).
	nz [][][]int32
	// cost[k] = per-item cost of stream k.
	cost []float64
	// touch collects, between beginTouch and the end of the next committed
	// appendUnit, the streams whose acc changed — the event set the heap
	// planner reprices against. touchStamp dedupes per round.
	touch      []int
	touchStamp []int
	touchRound int
}

// jointStatePool recycles jointStates across plans: rebuilding the
// per-query prefixes and cross-query accumulators dominated the joint
// planner's allocation profile, and every jointState is function-local
// (nothing it owns escapes into a Plan), so reuse is safe.
var jointStatePool = sync.Pool{New: func() any { return new(jointState) }}

func newJointState(trees []*query.Tree, warm sched.Warm) *jointState {
	st := jointStatePool.Get().(*jointState)
	st.reset(trees, warm)
	return st
}

// release returns the state to the pool. Callers must not touch st after.
func (st *jointState) release() {
	st.trees = nil
	jointStatePool.Put(st)
}

// reset re-initializes the state for a new fleet, reusing prefix
// evaluators, accumulator rows and non-zero index lists from the previous
// use where capacity allows. Stale nz lists are truncated across their
// full prior extent — the current fleet's item horizons may exceed the
// previous one's, and cross must never see a leftover entry.
func (st *jointState) reset(trees []*query.Tree, warm sched.Warm) {
	st.trees = trees
	nq := len(trees)
	px := st.px[:cap(st.px)]
	for len(px) < nq {
		px = append(px, nil)
	}
	acc := st.acc[:cap(st.acc)]
	for len(acc) < nq {
		acc = append(acc, nil)
	}
	st.cost = st.cost[:0]
	for k := range st.nz {
		for d := range st.nz[k] {
			st.nz[k][d] = st.nz[k][d][:0]
		}
	}
	for qi, t := range trees {
		if px[qi] == nil {
			px[qi] = sched.NewPrefixWarm(t, warm)
		} else {
			px[qi].ReinitWarm(t, warm)
		}
		maxD := px[qi].MaxItems()
		row := acc[qi][:cap(acc[qi])]
		for len(row) < t.NumStreams() {
			row = append(row, nil)
		}
		for k := range maxD {
			cells := row[k][:cap(row[k])]
			for len(cells) < maxD[k] {
				cells = append(cells, 0)
			}
			cells = cells[:maxD[k]]
			for d := range cells {
				cells[d] = 0
			}
			row[k] = cells
		}
		acc[qi] = row[:t.NumStreams()]
		for k, s := range t.Streams {
			for len(st.cost) <= k {
				st.cost = append(st.cost, 0)
			}
			st.cost[k] = s.Cost
		}
		for k, d := range maxD {
			for len(st.nz) <= k {
				st.nz = append(st.nz, nil)
			}
			for len(st.nz[k]) < d {
				st.nz[k] = append(st.nz[k], nil)
			}
		}
	}
	st.px = px[:nq]
	st.acc = acc[:nq]
	st.touchStamp = intsGrown(st.touchStamp, len(st.cost))
	st.touchRound = 0
	st.touch = st.touch[:0]
}

// beginTouch starts a fresh touched-stream set for the next committed
// appendUnit.
func (st *jointState) beginTouch() {
	st.touchRound++
	st.touch = st.touch[:0]
}

// cross returns the probability that no other query's placed units
// acquire item d+1 of stream k.
func (st *jointState) cross(q, k, d int) float64 {
	p := 1.0
	for _, q2 := range st.nz[k][d] {
		if int(q2) == q {
			continue
		}
		p *= 1 - st.acc[q2][k][d]
	}
	return p
}

// appendUnit appends the unit's leaves to its query's prefix and returns
// the cross-discounted marginal cost. When commit is false the prefix is
// rolled back and the accumulated acquisition probabilities are left
// untouched.
func (st *jointState) appendUnit(u unit, commit bool) float64 {
	delta := 0.0
	for _, j := range u.leaves {
		st.px[u.q].AppendVisit(j, func(k query.StreamID, d int, pr float64) {
			delta += pr * st.cross(u.q, int(k), d) * st.cost[k]
			if commit && pr != 0 {
				if st.acc[u.q][k][d] == 0 {
					st.insertNZ(int(k), d, int32(u.q))
				}
				st.acc[u.q][k][d] += pr
				if st.touchStamp[k] != st.touchRound {
					st.touchStamp[k] = st.touchRound
					st.touch = append(st.touch, int(k))
				}
			}
		})
	}
	if !commit {
		st.px[u.q].PopN(len(u.leaves))
	}
	return delta
}

// insertNZ records that query q's acc on item d+1 of stream k became
// non-zero, keeping the list sorted so cross multiplies factors in the
// same ascending-query order as a full scan would.
func (st *jointState) insertNZ(k, d int, q int32) {
	lst := append(st.nz[k][d], q)
	i := len(lst) - 1
	for i > 0 && lst[i-1] > q {
		lst[i] = lst[i-1]
		i--
	}
	lst[i] = q
	st.nz[k][d] = lst
}

// appendUnitsOf appends the placement units of one query: its AND nodes
// with their warm Algorithm 1 leaf orders and success probabilities.
func appendUnitsOf(units []unit, qi int, t *query.Tree, w int32, warm sched.Warm) []unit {
	for _, p := range dnf.PlanAndsWarm(t, warm) {
		units = append(units, unit{q: qi, leaves: p.Leaves, prob: p.Prob, weight: w})
	}
	return units
}

// weightOf reads a query's subscriber weight from an optional weights
// vector (nil, or a missing entry, means 1).
func weightOf(weights []int, qi int) int32 {
	if qi < len(weights) && weights[qi] > 0 {
		return int32(weights[qi])
	}
	return 1
}

// independentOrder plans one query in isolation, exactly as the engine's
// default warm planner does: warm Algorithm 1 for AND-trees, the warm
// AND-ordered increasing-C/p dynamic heuristic for DNF trees.
func independentOrder(t *query.Tree, warm sched.Warm) sched.Schedule {
	if t.IsAndTree() {
		return andtree.GreedyWarm(t, warm)
	}
	return dnf.AndOrderedIncCOverPDynamicWarm(t, warm)
}

// PlanJoint plans the given probability-annotated trees as one joint
// workload against the shared warm cache state. All trees must index the
// same stream space (the shared registry): leaf Stream fields are global
// stream indices and warm rows are per global stream.
//
// For a single tree the joint plan degenerates to the engine's default
// warm planner: same schedule, same expected cost.
func PlanJoint(trees []*query.Tree, warm sched.Warm) *Plan {
	return planJoint(trees, nil, warm, false)
}

// PlanJointWeighted is PlanJoint over shape equivalence classes: tree qi
// stands for weights[qi] interned subscriber queries (nil weights mean
// all 1, degenerating exactly to PlanJoint). Weights only break exact
// selection-key ties — a factored shape executes once regardless of its
// subscriber count, so the joint objective itself is weight-invariant.
func PlanJointWeighted(trees []*query.Tree, weights []int, warm sched.Warm) *Plan {
	return planJoint(trees, weights, warm, false)
}

// planJoint is PlanJointWeighted with a choice of selection loop: the
// lazy heap, or with quadratic set the seed O(u²) scan — the
// byte-identity oracle the heap planner's tests compare against.
func planJoint(trees []*query.Tree, weights []int, warm sched.Warm, quadratic bool) *Plan {
	plan := &Plan{Queries: make([]QueryPlan, len(trees)), GreedyJoint: true}
	if len(trees) == 0 {
		return plan
	}

	// Greedy joint order over every query's AND units: place the unit
	// with the smallest cross-discounted incremental C/p, as the paper's
	// best DNF heuristic does within one query.
	st := newJointState(trees, warm)
	sc := greedyScratchPool.Get().(*greedyScratch)
	units := sc.units[:0]
	for qi, t := range trees {
		units = appendUnitsOf(units, qi, t, weightOf(weights, qi), warm)
	}
	greedy := make([]sched.Schedule, len(trees))
	greedyPerQuery := make([]float64, len(trees))
	greedyTotal := 0.0
	place := func(u unit, delta float64) {
		greedy[u.q] = append(greedy[u.q], u.leaves...)
		greedyPerQuery[u.q] += delta
		greedyTotal += delta
	}
	if quadratic {
		placeGreedyQuad(st, units, place)
	} else {
		placeGreedyHeap(st, units, sc, place)
	}
	sc.units = units[:0]
	greedyScratchPool.Put(sc)
	st.release()

	// Guardrail: price the independently planned orders under the same
	// joint objective (cross-discounting only lowers each query's cost,
	// so this joint price never exceeds the sum of the independent
	// plans) and keep the cheaper of the two.
	indep := make([]sched.Schedule, len(trees))
	for qi, t := range trees {
		indep[qi] = independentOrder(t, warm)
		plan.IndependentExpected += sched.CostWarm(t, indep[qi], warm)
	}
	indepPerQuery, indepTotal := priceJoint(trees, indep, warm)

	schedules := greedy
	perQuery := greedyPerQuery
	plan.Expected = greedyTotal
	if indepTotal < greedyTotal-1e-12 {
		schedules, perQuery = indep, indepPerQuery
		plan.Expected = indepTotal
		plan.GreedyJoint = false
	}
	for qi := range trees {
		plan.Queries[qi] = QueryPlan{Schedule: schedules[qi], Expected: perQuery[qi]}
	}
	plan.buildManifest(trees)
	return plan
}

// PriceJoint prices fixed per-query schedules under the joint objective:
// every item's cost is paid at most once however many queries probably
// acquire it. It is the cost model a fleet-level layer needs to compare
// plans it did not build itself — e.g. a shard partitioner pricing the
// per-shard schedules as if they ran against one shared cache, to
// measure the sharing lost to partitioning.
func PriceJoint(trees []*query.Tree, schedules []sched.Schedule, warm sched.Warm) float64 {
	_, total := priceJoint(trees, schedules, warm)
	return total
}

// priceJoint evaluates fixed per-query schedules under the joint
// objective: every item's cost is shared across the queries that
// probably acquire it. The total is independent of the interleaving of
// queries (the incremental accounting telescopes to the closed form);
// the per-query attribution prices queries in input order.
func priceJoint(trees []*query.Tree, schedules []sched.Schedule, warm sched.Warm) ([]float64, float64) {
	st := newJointState(trees, warm)
	perQuery := make([]float64, len(trees))
	total := 0.0
	for qi := range trees {
		delta := st.appendUnit(unit{q: qi, leaves: schedules[qi]}, true)
		perQuery[qi] = delta
		total += delta
	}
	st.release()
	return perQuery, total
}

// buildManifest collects the fleet's opening windows: the first leaf of
// every query's schedule is evaluated unconditionally, so its window can
// be pre-acquired once for the whole fleet without risk of waste.
func (p *Plan) buildManifest(trees []*query.Tree) {
	byStream := map[int]*Prefetch{}
	var order []int
	for qi, qp := range p.Queries {
		if len(qp.Schedule) == 0 {
			continue
		}
		l := trees[qi].Leaves[qp.Schedule[0]]
		k := int(l.Stream)
		pf := byStream[k]
		if pf == nil {
			pf = &Prefetch{Stream: k}
			byStream[k] = pf
			order = append(order, k)
		}
		pf.Windows = append(pf.Windows, l.Items)
		if l.Items > pf.Items {
			pf.Items = l.Items
		}
	}
	for _, k := range order {
		p.Manifest = append(p.Manifest, *byStream[k])
	}
}

// Validate checks that every per-query schedule is a valid leaf order of
// its tree.
func (p *Plan) Validate(trees []*query.Tree) error {
	if len(p.Queries) != len(trees) {
		return fmt.Errorf("fleet: %d query plans for %d trees", len(p.Queries), len(trees))
	}
	for qi, qp := range p.Queries {
		if err := qp.Schedule.Validate(trees[qi]); err != nil {
			return fmt.Errorf("fleet: query %d: %w", qi, err)
		}
	}
	return nil
}

// maxPlannerEntries bounds the fleet plan cache: one entry per distinct
// due set. Query cadences (service.Every) make the due set cycle through
// a handful of combinations, so a small cache captures them all; beyond
// the bound an arbitrary entry is evicted.
const maxPlannerEntries = 64

// Planner is a caching fleet planner: like the engine's per-query plan
// cache, it reuses a joint plan while the fleet's fingerprint — the set
// of due queries, their per-leaf probability estimates, and the shared
// warm cache state — has not drifted beyond Eps. Plans are kept per due
// set, so fleets whose cadences cycle through a few due-set combinations
// reuse each combination's plan.
//
// Replanning is incremental: when the due set changes (a query was
// registered or unregistered) or specific queries were marked stale
// (MarkStale, driven by drift-detector trips), the planner patches the
// best-overlapping cached plan — surviving queries keep their cached
// schedules, re-committed into a fresh joint state, and only the added
// or stale queries' units run through the greedy — instead of replanning
// the whole fleet. A full replan remains the fallback whenever the
// patched price exceeds what independent planning would pay.
type Planner struct {
	// Eps is the per-leaf probability drift tolerated before re-planning
	// (0 reuses only on exact match, negative disables reuse).
	Eps float64

	mu      sync.Mutex
	entries map[string]*plannerEntry
	stale   map[string]struct{}
	patched int64
}

// plannerEntry is one cached joint plan with its fingerprint.
type plannerEntry struct {
	keys  []string
	index map[string]int // query id -> position in keys
	probs [][]float64
	costs [][]float64 // per-tree per-stream per-item costs
	warm  sched.Warm
	plan  *Plan
}

// cacheKey joins the due-set ids (query ids cannot contain NUL).
func cacheKey(keys []string) string { return strings.Join(keys, "\x00") }

// Plan returns a joint plan for the keyed trees, reusing the cached one
// for this due set when the fingerprint matches. On reuse with non-zero
// drift the cached schedules are kept but re-priced under the current
// probabilities. When the due set changed or contains stale ids, the
// plan is patched incrementally from the best-overlapping cached entry
// where possible (see Planner doc); reused is false for patched plans,
// which report Plan.Patched instead.
func (pl *Planner) Plan(keys []string, trees []*query.Tree, warm sched.Warm) (plan *Plan, reused bool) {
	return pl.PlanWeighted(keys, trees, nil, warm)
}

// PlanWeighted is Plan over shape equivalence classes: tree qi stands for
// weights[qi] subscriber queries (nil: all 1). Weights are deliberately
// NOT part of the plan fingerprint — a factored shape executes once
// however many identities subscribe, so registering or unregistering a
// twin of an already-planned shape is a pure cache hit with zero
// planning work; weights only break exact selection ties when a plan is
// actually (re)built.
func (pl *Planner) PlanWeighted(keys []string, trees []*query.Tree, weights []int, warm sched.Warm) (plan *Plan, reused bool) {
	key := cacheKey(keys)

	pl.mu.Lock()
	defer pl.mu.Unlock()
	ent := pl.entries[key]
	stale := 0
	if len(pl.stale) > 0 {
		for _, id := range keys {
			if _, ok := pl.stale[id]; ok {
				stale++
			}
		}
	}
	if ent != nil && stale == 0 && pl.Eps >= 0 && ent.warm.Equal(warm) {
		if drift := fleetDrift(ent.probs, ent.costs, trees); drift <= pl.Eps {
			if drift == 0 {
				return ent.plan, true
			}
			// Keep the cached orders, re-price them jointly. The cached
			// fingerprint is retained, so cumulative drift still forces
			// a re-plan once it exceeds Eps.
			prev := ent.plan
			p := &Plan{
				Queries:     make([]QueryPlan, len(trees)),
				GreedyJoint: prev.GreedyJoint,
				Patched:     prev.Patched,
				Manifest:    prev.Manifest,
			}
			schedules := make([]sched.Schedule, len(trees))
			for qi := range trees {
				schedules[qi] = prev.Queries[qi].Schedule
				p.IndependentExpected += sched.CostWarm(trees[qi], independentOrder(trees[qi], warm), warm)
			}
			perQuery, total := priceJoint(trees, schedules, warm)
			for qi := range trees {
				p.Queries[qi] = QueryPlan{Schedule: schedules[qi], Expected: perQuery[qi]}
			}
			p.Expected = total
			ent.plan = p
			return p, true
		}
		// Cumulative drift past Eps: fall through to a full replan.
	} else if (ent == nil || stale > 0) && pl.Eps >= 0 {
		if p := pl.patchLocked(ent, keys, trees, weights, warm); p != nil {
			pl.storeLocked(key, keys, trees, warm, p)
			pl.patched++
			return p, false
		}
	}

	p := planJoint(trees, weights, warm, false)
	pl.storeLocked(key, keys, trees, warm, p)
	return p, false
}

// patchLocked attempts an incremental patch: the queries that survive
// unchanged from the base entry keep their cached schedules, committed
// into a fresh joint state, and only the remaining (added, stale, or
// drifted) queries' units run through the greedy against that state. A
// nil base picks the cached entry with the largest surviving overlap.
// Returns nil — falling back to a full replan — when nothing survives,
// when more than half the fleet needs fresh placement anyway, or when
// the patched plan prices worse than independent planning.
func (pl *Planner) patchLocked(base *plannerEntry, keys []string, trees []*query.Tree, weights []int, warm sched.Warm) *Plan {
	pos := make(map[string]int, len(keys))
	for qi, id := range keys {
		pos[id] = qi
	}
	if base == nil {
		best := 0
		for _, ent := range pl.entries {
			overlap := 0
			for _, id := range ent.keys {
				if _, ok := pos[id]; !ok {
					continue
				}
				if _, st := pl.stale[id]; !st {
					overlap++
				}
			}
			if overlap > best {
				best = overlap
				base = ent
			}
		}
	}
	if base == nil || !warmCompatible(base.warm, warm) {
		return nil
	}
	survivors := 0
	fromBase := make([]int, len(keys)) // current index -> base index, -1 = fresh
	for qi, id := range keys {
		fromBase[qi] = -1
		bi, inBase := base.index[id]
		if !inBase {
			continue
		}
		if _, st := pl.stale[id]; st {
			continue
		}
		if queryDrift(base.probs[bi], base.costs[bi], trees[qi]) > pl.Eps {
			continue
		}
		fromBase[qi] = bi
		survivors++
	}
	fresh := len(keys) - survivors
	if survivors == 0 || 2*fresh > len(keys) {
		return nil
	}
	st := newJointState(trees, warm)
	schedules := make([]sched.Schedule, len(trees))
	perQuery := make([]float64, len(trees))
	total := 0.0
	for qi := range trees {
		bi := fromBase[qi]
		if bi < 0 {
			continue
		}
		s := base.plan.Queries[bi].Schedule
		delta := st.appendUnit(unit{q: qi, leaves: s}, true)
		schedules[qi] = s
		perQuery[qi] = delta
		total += delta
	}
	sc := greedyScratchPool.Get().(*greedyScratch)
	units := sc.units[:0]
	for qi := range trees {
		if fromBase[qi] < 0 {
			units = appendUnitsOf(units, qi, trees[qi], weightOf(weights, qi), warm)
		}
	}
	placeGreedyHeap(st, units, sc, func(u unit, delta float64) {
		schedules[u.q] = append(schedules[u.q], u.leaves...)
		perQuery[u.q] += delta
		total += delta
	})
	sc.units = units[:0]
	greedyScratchPool.Put(sc)
	st.release()
	// Same best-of-two guardrail as a full plan: price the independently
	// planned orders under the joint objective and keep the cheaper set,
	// so a patch never prices worse than giving up on cross-query sharing.
	p := &Plan{Queries: make([]QueryPlan, len(trees)), Expected: total, GreedyJoint: true, Patched: true}
	indep := make([]sched.Schedule, len(trees))
	for qi, t := range trees {
		indep[qi] = independentOrder(t, warm)
		p.IndependentExpected += sched.CostWarm(t, indep[qi], warm)
	}
	indepPerQuery, indepTotal := priceJoint(trees, indep, warm)
	if indepTotal < total-1e-12 {
		schedules, perQuery = indep, indepPerQuery
		p.Expected = indepTotal
		p.GreedyJoint = false
	}
	for qi := range trees {
		p.Queries[qi] = QueryPlan{Schedule: schedules[qi], Expected: perQuery[qi]}
	}
	if p.Expected > p.IndependentExpected+1e-12 {
		// The patched price drifted past what per-query planning would
		// pay: stale enough that a full replan is worth its cost.
		return nil
	}
	p.buildManifest(trees)
	return p
}

// storeLocked fingerprints the trees and stores the plan under the key,
// copying the mutable inputs (callers reuse tree and warm buffers across
// ticks), and clears the stale marks the stored plan absorbs.
func (pl *Planner) storeLocked(key string, keys []string, trees []*query.Tree, warm sched.Warm, p *Plan) {
	probs := make([][]float64, len(trees))
	costs := make([][]float64, len(trees))
	for qi, t := range trees {
		probs[qi] = make([]float64, len(t.Leaves))
		for j := range t.Leaves {
			probs[qi][j] = t.Leaves[j].Prob
		}
		costs[qi] = make([]float64, len(t.Streams))
		for k := range t.Streams {
			costs[qi][k] = t.Streams[k].Cost
		}
	}
	w := make(sched.Warm, len(warm))
	for k := range warm {
		w[k] = append([]bool(nil), warm[k]...)
	}
	ks := append([]string(nil), keys...)
	index := make(map[string]int, len(ks))
	for i, id := range ks {
		index[id] = i
	}
	if pl.entries == nil {
		pl.entries = map[string]*plannerEntry{}
	}
	if _, exists := pl.entries[key]; !exists && len(pl.entries) >= maxPlannerEntries {
		for k := range pl.entries {
			delete(pl.entries, k)
			break
		}
	}
	pl.entries[key] = &plannerEntry{keys: ks, index: index, probs: probs, costs: costs, warm: w, plan: p}
	for _, id := range keys {
		delete(pl.stale, id)
	}
}

// MarkStale records that the given query ids' cached schedules can no
// longer be trusted — the id was (re)registered with possibly different
// text, or a drift detector tripped on one of its predicates or streams.
// Cached joint plans survive: the next Plan call whose due set contains
// a stale id patches that id's slice of the plan incrementally (or falls
// back to a full replan). Returns how many ids were newly marked.
func (pl *Planner) MarkStale(ids ...string) int {
	pl.mu.Lock()
	defer pl.mu.Unlock()
	n := 0
	for _, id := range ids {
		if _, ok := pl.stale[id]; ok {
			continue
		}
		if pl.stale == nil {
			pl.stale = map[string]struct{}{}
		}
		pl.stale[id] = struct{}{}
		n++
	}
	return n
}

// Patches returns how many Plan calls were served by an incremental
// patch rather than a full replan.
func (pl *Planner) Patches() int64 {
	pl.mu.Lock()
	defer pl.mu.Unlock()
	return pl.patched
}

// Invalidate drops all cached plans and stale marks and returns how many
// entries were dropped.
func (pl *Planner) Invalidate() int {
	pl.mu.Lock()
	defer pl.mu.Unlock()
	n := len(pl.entries)
	pl.entries = nil
	pl.stale = nil
	return n
}

// warmCompatible reports whether two warm snapshots agree wherever they
// overlap. Registry-driven shape changes — a registered or unregistered
// query growing or shrinking a stream's snapshotted window — don't block
// an incremental patch; disagreeing cached bits do.
func warmCompatible(a, b sched.Warm) bool {
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	for k := 0; k < n; k++ {
		ra, rb := a[k], b[k]
		m := len(ra)
		if len(rb) < m {
			m = len(rb)
		}
		for t := 0; t < m; t++ {
			if ra[t] != rb[t] {
				return false
			}
		}
	}
	return true
}

// queryDrift returns one query's largest per-leaf probability change and
// relative per-stream cost change |b/a - 1| against a cached fingerprint
// (learned costs drift; see the engine's CostSource), or +Inf when the
// shapes differ or a cost crosses zero. Only streams some leaf actually
// reads are compared: a query's schedule and price cannot depend on the
// cost of a stream it never touches, so a price shift elsewhere in the
// registry must not drift it. Reading the tree directly keeps the reuse
// path free of the per-call fingerprint materialization the seed planner
// paid.
func queryDrift(probs, costs []float64, t *query.Tree) float64 {
	if len(probs) != len(t.Leaves) || len(costs) != len(t.Streams) {
		return math.Inf(1)
	}
	d := 0.0
	for j := range probs {
		if dj := math.Abs(probs[j] - t.Leaves[j].Prob); dj > d {
			d = dj
		}
	}
	for _, lf := range t.Leaves {
		k := int(lf.Stream)
		switch b := t.Streams[k].Cost; {
		case costs[k] == b:
		case costs[k] <= 0:
			return math.Inf(1)
		default:
			if dk := math.Abs(b-costs[k]) / costs[k]; dk > d {
				d = dk
			}
		}
	}
	return d
}

// fleetDrift returns the largest queryDrift across the fleet, or +Inf
// when the fleet shapes differ.
func fleetDrift(probs, costs [][]float64, trees []*query.Tree) float64 {
	if len(probs) != len(trees) || len(costs) != len(trees) {
		return math.Inf(1)
	}
	d := 0.0
	for qi, t := range trees {
		qd := queryDrift(probs[qi], costs[qi], t)
		if qd > d {
			d = qd
		}
	}
	return d
}
