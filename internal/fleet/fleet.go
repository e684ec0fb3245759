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
//
// Planner caches joint plans across ticks and builds every plan one way:
// the queries whose cached schedules are still trusted keep them, and the
// greedy places the rest against them. The closed form does not depend on
// placement order, so this minimises the same objective as a from-scratch
// plan, which is the case where nothing is kept. Drift past Planner.Eps
// therefore re-places only the drifted queries.
//
// A patch costs in proportion to what changed. Each kept schedule is
// walked once, in input order, at the tree's current probabilities: it is
// priced against the running per-item products Π (1 - P) of the kept
// schedules before it, and its own factors are multiplied in. The greedy
// then places only the other queries, with those products as the
// background of every cross-discount, and only they, plus the few kept
// queries that drifted furthest, are planned on their own for the
// guardrail; every other kept query's independent order is the one stored
// with its schedule.
//
// Planner also keeps a live joint state of its resident classes — per
// (stream, item), the running product of (1 - P) over their current
// schedules and over their independent orders — so Planner.Quote prices
// an admission in O(the newcomer's leaves) instead of planning the fleet
// twice (see quote.go).
package fleet

import (
	"cmp"
	"fmt"
	"slices"
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
	// it. A kept query's independent order may date from its last
	// placement (see Planner); it is priced at the current probabilities.
	IndependentExpected float64
	// GreedyJoint reports whether the cross-query greedy order won the
	// best-of-two against the independently planned orders re-priced
	// under the joint objective.
	GreedyJoint bool
	// Patched reports that the plan kept some queries' cached schedules
	// and placed only the rest — registered, stale or drifted queries —
	// against them, rather than planning every query from scratch (see
	// Planner). A plan reused under drift within Eps places nothing and
	// reports the Patched of the plan it re-prices.
	Patched bool
	// Placed counts the queries the joint greedy placed to build the plan:
	// every query from scratch, the registered, stale and drifted ones in
	// a patch, and none in a reuse under drift within Eps.
	Placed int
	// Manifest is the deduplicated acquisition plan: for every stream
	// some query's schedule opens on, the window to pre-acquire once.
	// First leaves are evaluated unconditionally, so pre-pulling them
	// never wastes cost.
	Manifest []Prefetch
}

// unit is one AND node of one query, the placement granularity of the
// joint greedy (the AND-ordered family of the paper).
type unit struct {
	q      int   // index into the jointState's trees
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
	// bg, when set, holds per stream and item a factor every cross
	// multiplies in: the running product Π (1 - P) of the classes the
	// state's trees are placed against — a patch's kept schedules (see
	// planJoint), or the resident classes when a newcomer is quoted (see
	// Planner.Quote). reset clears it.
	bg [][]float64
	// touch collects, between beginTouch and the end of the next committed
	// appendUnit, the streams whose acc changed — the event set the heap
	// planner reprices against. touchStamp dedupes per round.
	touch      []int
	touchStamp []int
	touchRound int
	// trials counts the trial (uncommitted) appendUnit calls and factors
	// the per-class factors cross read since reset: the greedy's work.
	trials, factors int
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
	st.bg = nil
	st.trials, st.factors = 0, 0
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
	if st.bg != nil {
		p = st.bg[k][d]
	}
	nz := st.nz[k][d]
	st.factors += len(nz)
	for _, q2 := range nz {
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
	if !commit {
		st.trials++
	}
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
	plan, _, _ := planJoint(trees, nil, nil, nil, warm, false)
	return plan
}

// PlanJointWeighted is PlanJoint over shape equivalence classes: tree qi
// stands for weights[qi] interned subscriber queries (nil weights mean
// all 1, degenerating exactly to PlanJoint). Weights only break exact
// selection-key ties — a factored shape executes once regardless of its
// subscriber count, so the joint objective itself is weight-invariant.
func PlanJointWeighted(trees []*query.Tree, weights []int, warm sched.Warm) *Plan {
	plan, _, _ := planJoint(trees, weights, nil, nil, warm, false)
	return plan
}

// planWork counts the placement work of one plan, the work its planning
// time follows: the greedy's trial appends and the per-class factors its
// cross-discounts read, and the classes planned on their own for the
// guardrail.
type planWork struct {
	trials, factors, indep int
}

// planJoint builds every joint plan. Each tree qi with a non-nil kept[qi]
// keeps that schedule; the joint greedy places every other tree's AND
// units — the lazy heap, or with quadratic set the seed O(u²) scan, the
// byte-identity oracle the heap planner's tests compare against. The
// joint cost telescopes to its closed form whatever the placement order,
// so keeping a schedule prices the same objective as placing it afresh,
// and a nil kept is the from-scratch plan.
//
// A kept class costs one walk of its schedule at the tree's current
// probabilities, priced against the kept classes before it in input
// order, whose running per-item products Π (1 - P) are then the
// background the greedy places the other classes against. The guardrail
// side walks every class's independent order the same way: the stored
// order keptIndep[qi] where it is non-nil, else one planned afresh.
// planJoint returns the independent orders, one per tree, and the
// placement work.
func planJoint(trees []*query.Tree, weights []int, kept, keptIndep []sched.Schedule, warm sched.Warm, quadratic bool) (*Plan, []sched.Schedule, planWork) {
	var work planWork
	plan := &Plan{Queries: make([]QueryPlan, len(trees)), GreedyJoint: true}
	if len(trees) == 0 {
		return plan, nil, work
	}
	indep := make([]sched.Schedule, len(trees))
	greedy := make([]sched.Schedule, len(trees))
	shares := make([]float64, 2*len(trees))
	greedyPerQuery, indepPerQuery := shares[:len(trees)], shares[len(trees):]
	greedyTotal, indepTotal := 0.0, 0.0

	// One pass per class in input order: a kept schedule is priced against
	// the kept classes before it, and every class's independent order
	// against the classes before it on the guardrail's side.
	pw := newProducts(trees)
	sc := greedyScratchPool.Get().(*greedyScratch)
	placed, placedAt := sc.trees[:0], sc.at[:0]
	for qi, t := range trees {
		if qi < len(keptIndep) && keptIndep[qi] != nil {
			indep[qi] = keptIndep[qi]
		} else {
			indep[qi] = independentOrder(t, warm)
			work.indep++
		}
		var alone float64
		if qi < len(kept) && kept[qi] != nil {
			// A kept schedule that is also the independent order (the
			// common case) prices both sides in one walk.
			on := onKept
			if slices.Equal(kept[qi], indep[qi]) {
				on |= onGuard
			}
			greedyPerQuery[qi], indepPerQuery[qi], alone = pw.walk(t, kept[qi], warm, on)
			greedy[qi] = kept[qi]
			greedyTotal += greedyPerQuery[qi]
			plan.Patched = true
			if on&onGuard == 0 {
				_, indepPerQuery[qi], alone = pw.walk(t, indep[qi], warm, onGuard)
			}
		} else {
			placed = append(placed, t)
			placedAt = append(placedAt, qi)
			_, indepPerQuery[qi], alone = pw.walk(t, indep[qi], warm, onGuard)
		}
		indepTotal += indepPerQuery[qi]
		plan.IndependentExpected += alone
	}
	plan.Placed = len(placed)

	// Greedy joint order over the placed classes' AND units: place the
	// unit with the smallest cross-discounted incremental C/p, as the
	// paper's best DNF heuristic does within one query, against the kept
	// classes' products.
	if len(placed) > 0 {
		st := newJointState(placed, warm)
		copy(st.cost, pw.cost)
		if plan.Patched {
			st.bg = pw.g
		}
		units := sc.units[:0]
		for pi, t := range placed {
			units = appendUnitsOf(units, pi, t, weightOf(weights, placedAt[pi]), warm)
		}
		place := func(u unit, delta float64) {
			qi := placedAt[u.q]
			greedy[qi] = append(greedy[qi], u.leaves...)
			greedyPerQuery[qi] += delta
			greedyTotal += delta
		}
		if quadratic {
			placeGreedyQuad(st, units, place)
		} else {
			placeGreedyHeap(st, units, sc, place)
		}
		work.trials, work.factors = st.trials, st.factors
		sc.units = units[:0]
		st.release()
	}
	clear(placed)
	sc.trees, sc.at = placed[:0], placedAt[:0]
	greedyScratchPool.Put(sc)
	pw.release()

	// Guardrail: the independent orders priced under the same joint
	// objective (cross-discounting only lowers each query's cost, so this
	// joint price never exceeds the sum of the independent plans) — keep
	// the cheaper of the two.
	schedules, perQuery := greedy, greedyPerQuery
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
	return plan, indep, work
}

// PriceJoint prices fixed per-query schedules under the joint objective:
// every item's cost is paid at most once however many queries probably
// acquire it. It is the cost model a fleet-level layer needs to compare
// plans it did not build itself — e.g. a shard partitioner pricing the
// per-shard schedules as if they ran against one shared cache, to
// measure the sharing lost to partitioning. The total is independent of
// the order of the queries (the incremental accounting telescopes to the
// closed form).
func PriceJoint(trees []*query.Tree, schedules []sched.Schedule, warm sched.Warm) float64 {
	pw := newProducts(trees)
	total := 0.0
	for qi, t := range trees {
		delta, _, _ := pw.walk(t, schedules[qi], warm, onKept)
		total += delta
	}
	pw.release()
	return total
}

// products prices fixed schedules one class at a time, in input order:
// a walk prices a class's schedule against running per-item products
// Π (1 - P) over the classes walked before it, then multiplies its own
// factors in. It multiplies the same factors in the same order as
// jointState.cross over committed classes, so it prices bit for bit as
// committing the schedules would, without the per-item lists of the
// classes behind each product. g and i are two independent sets of
// products: the kept schedules' and the guardrail's independent
// orders'.
type products struct {
	px *sched.Prefix
	// acc[k][d] accumulates the walked class's probability of acquiring
	// item d+1 of stream k; it is zero between walks.
	acc  [][]float64
	g, i [][]float64
	// cost[k] is stream k's per-item cost, taken from the trees as
	// jointState.reset takes it.
	cost []float64
}

var productsPool = sync.Pool{New: func() any { return new(products) }}

// newProducts returns pooled products, every one 1, with the costs of
// trees' streams.
func newProducts(trees []*query.Tree) *products {
	pw := productsPool.Get().(*products)
	pw.cost = pw.cost[:0]
	for _, t := range trees {
		for k, s := range t.Streams {
			for len(pw.cost) <= k {
				pw.cost = append(pw.cost, 0)
			}
			pw.cost[k] = s.Cost
		}
	}
	for _, rows := range [][][]float64{pw.g, pw.i} {
		for _, row := range rows {
			for d := range row {
				row[d] = 1
			}
		}
	}
	return pw
}

// release returns pw to the pool. Callers must not touch pw after.
func (pw *products) release() { productsPool.Put(pw) }

// onKept and onGuard select the products a walk prices against: pw.g,
// pw.i, or both for a schedule that is both.
const (
	onKept = 1 << iota
	onGuard
)

// walk prices schedule s of tree t at warm against the products on
// selects, then multiplies the class's per-item (1 - P) into them. It
// returns the cross-discounted marginals against pw.g and pw.i (0 for a
// set not selected) and the schedule's own expected cost.
func (pw *products) walk(t *query.Tree, s sched.Schedule, warm sched.Warm, on int) (dg, di, alone float64) {
	if pw.px == nil {
		pw.px = sched.NewPrefixWarm(t, warm)
	} else {
		pw.px.ReinitWarm(t, warm)
	}
	maxD := pw.px.MaxItems()
	pw.cover(maxD)
	g, i := pw.g, pw.i
	for _, j := range s {
		pw.px.AppendVisit(j, func(k query.StreamID, d int, pr float64) {
			if on&onKept != 0 {
				dg += pr * g[k][d] * pw.cost[k]
			}
			if on&onGuard != 0 {
				di += pr * i[k][d] * pw.cost[k]
			}
			pw.acc[k][d] += pr
		})
	}
	for k, items := range maxD {
		acc := pw.acc[k]
		for d := range items {
			if a := acc[d]; a != 0 {
				if on&onKept != 0 {
					g[k][d] *= 1 - a
				}
				if on&onGuard != 0 {
					i[k][d] *= 1 - a
				}
				acc[d] = 0
			}
		}
	}
	return dg, di, pw.px.Cost()
}

// cover grows the rows to the per-stream item horizons maxD, with new
// products at 1.
func (pw *products) cover(maxD []int) {
	for len(pw.acc) < len(maxD) {
		pw.acc = append(pw.acc, nil)
		pw.g = append(pw.g, nil)
		pw.i = append(pw.i, nil)
	}
	for k, items := range maxD {
		for len(pw.acc[k]) < items {
			pw.acc[k] = append(pw.acc[k], 0)
			pw.g[k] = append(pw.g[k], 1)
			pw.i[k] = append(pw.i[k], 1)
		}
	}
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
// the bound the oldest stored entry is evicted.
const maxPlannerEntries = 64

// Planner is a caching fleet planner. It keeps one joint plan per due
// set, fingerprinted by what each query's schedule was placed against:
// its per-leaf probability estimates and per-stream costs, plus the
// shared warm cache state. Fleets whose cadences cycle through a few
// due-set combinations reuse each combination's plan.
//
// Every plan is built one way. An exact fingerprint match returns the
// cached plan. Otherwise every query of the base entry — this due set's
// entry, else the cached entry sharing the most queries that are not
// stale — keeps its cached schedule unless it was marked stale
// (MarkStale, driven by drift-detector trips) or its fingerprint drifted
// past Eps, and the joint greedy places every other query (registered,
// stale or drifted) against the kept ones. A from-scratch plan is the
// case where nothing is kept. So drift past Eps re-places only the
// drifted queries. A kept schedule keeps the fingerprint it was placed
// against, so a query is re-placed once its drift since it was last
// placed passes Eps, or when its detector trips.
//
// Each entry also stores every query's independent order, planned with
// its schedule. A kept query reuses it, except that the 8 kept queries
// that drifted furthest since placement (refreshOrders) get orders
// planned afresh, so a patch plans its placed queries plus at most 8
// others on their own. A
// query's fingerprint is the one its schedule was computed against: the
// base's for a kept query, on either side of the guardrail, unless the
// independent side won with an order planned afresh.
//
// The Planner also holds the resident joint state admissions are quoted
// against (see Quote): every class it placed or admitted, with the cold
// acquisition probabilities of its current schedule and of its
// independent order. Admit adds a class, Remove drops one, and a plan
// refreshes exactly the classes it re-placed — all of them when the
// guardrail took the independent orders. Stale or drifted classes are
// refreshed when a plan re-places them, not by a quote.
type Planner struct {
	// Eps is the per-leaf probability drift, and relative per-stream cost
	// drift, tolerated before a query's schedule is re-placed (0 keeps
	// only exact matches, negative re-plans every query every time).
	Eps float64

	mu      sync.Mutex
	entries map[string]*plannerEntry
	stale   map[string]struct{}
	patched int64
	stored  uint64 // store counter; plannerEntry.seq orders base ties and evictions
	res     residentState
	drifted []keptDrift // selectLocked's scratch
}

// refreshOrders is how many kept classes per plan get their independent
// orders planned afresh: the ones that drifted furthest since they were
// placed, so every kept class in a fleet that keeps at most this many.
// A stored order can stop being the one independent planning would pick
// as its class drifts, and the guardrail then misses a cheaper plan:
// reusing every kept class's stored order read 21% of the independent
// bound above a from-scratch plan on TestPlannerPatchPricesNearScratch's
// drift steps, and refreshing 3 or more per plan the from-scratch
// planner's 4.5%.
const refreshOrders = 8

// keptDrift is a kept class's position in the due set and its drift since
// it was placed.
type keptDrift struct {
	qi    int
	drift float64
}

// plannerEntry is one cached joint plan with its fingerprint.
type plannerEntry struct {
	keys  []string
	index map[string]int // query id -> position in keys
	probs [][]float64    // per tree: the values its schedule was placed against
	costs [][]float64    // per tree: per-stream per-item costs, likewise
	warm  sched.Warm
	plan  *Plan
	// indep holds per tree the guardrail's independent order, planned
	// against the same fingerprint as its schedule.
	indep []sched.Schedule
	seq   uint64 // store order: the latest store has the largest seq
}

// selection is the plan selectLocked builds for a due set, with what
// storing it needs.
type selection struct {
	plan *Plan
	own  *plannerEntry // the due set's cached entry, nil if none
	base *plannerEntry // the entry the kept schedules come from
	// kept holds, per tree, the schedule kept from base (nil: placed), and
	// keptIndep the independent order kept from base (nil: planned afresh).
	kept, keptIndep []sched.Schedule
	// indep holds the guardrail's independent order of every tree.
	indep []sched.Schedule
	// reused reports that plan runs own's schedules verbatim.
	reused bool
	// work is the placement work the plan took.
	work planWork
}

// cacheKey joins the due-set ids (query ids cannot contain NUL).
func cacheKey(keys []string) string { return strings.Join(keys, "\x00") }

// Plan returns a joint plan for the keyed trees (see Planner). reused
// reports that the plan runs this due set's cached schedules verbatim,
// re-priced when they drifted within Eps; otherwise a plan that kept
// some cached schedules reports Plan.Patched.
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
	pl.mu.Lock()
	defer pl.mu.Unlock()
	s := pl.planLocked(keys, trees, weights, warm)
	return s.plan, s.reused
}

// planLocked selects the plan for a due set and stores it, refreshing the
// resident state with the classes it re-placed.
func (pl *Planner) planLocked(keys []string, trees []*query.Tree, weights []int, warm sched.Warm) selection {
	key := cacheKey(keys)
	s := pl.selectLocked(key, keys, trees, weights, warm)
	switch {
	case !s.reused:
		pl.storeLocked(key, keys, trees, warm, s)
		if s.plan.Patched {
			pl.patched++
		}
		// Refresh the resident state with the classes this plan re-placed:
		// every class when the guardrail took the independent orders.
		for qi, t := range trees {
			if !s.plan.GreedyJoint || s.kept == nil || s.kept[qi] == nil {
				pl.res.set(keys[qi], t, s.plan.Queries[qi].Schedule, s.indep[qi])
			}
		}
		pl.res.resum()
	case s.plan != s.own.plan:
		// Every schedule was kept within Eps: the fingerprints they were
		// placed against stay, and so does the plan's provenance. The
		// independent orders it planned afresh replace the stored ones.
		s.plan.Patched = s.own.plan.Patched
		s.own.plan = s.plan
		s.own.indep = s.indep
	}
	return s
}

// selectLocked builds the plan for a due set as the Planner doc describes
// and writes no planner state.
func (pl *Planner) selectLocked(key string, keys []string, trees []*query.Tree, weights []int, warm sched.Warm) selection {
	own := pl.entries[key]
	if own != nil && pl.Eps >= 0 && own.warm.Equal(warm) && pl.unchangedLocked(own, keys, trees) {
		return selection{plan: own.plan, own: own, reused: true}
	}
	s := selection{own: own, base: own}
	if s.base == nil {
		s.base = pl.baseLocked(keys)
	}
	keptAll := false
	if s.base != nil && warmCompatible(s.base.warm, warm) {
		s.kept = make([]sched.Schedule, 2*len(keys))
		s.kept, s.keptIndep = s.kept[:len(keys)], s.kept[len(keys):]
		keptAll = true
		drifted := pl.drifted[:0]
		for qi, id := range keys {
			bi, ok := s.base.index[id]
			if !ok || pl.staleLocked(id) {
				keptAll = false
				continue
			}
			d := trees[qi].Drift(s.base.probs[bi], s.base.costs[bi])
			if d > pl.Eps {
				keptAll = false
				continue
			}
			s.kept[qi] = s.base.plan.Queries[bi].Schedule
			s.keptIndep[qi] = s.base.indep[bi]
			drifted = append(drifted, keptDrift{qi: qi, drift: d})
		}
		// The kept classes that drifted furthest since placement get fresh
		// independent orders; ties go to the earlier class.
		if len(drifted) > refreshOrders {
			slices.SortStableFunc(drifted, func(a, b keptDrift) int { return cmp.Compare(b.drift, a.drift) })
		}
		for _, kd := range drifted[:min(len(drifted), refreshOrders)] {
			s.keptIndep[kd.qi] = nil
		}
		pl.drifted = drifted
	}
	s.plan, s.indep, s.work = planJoint(trees, weights, s.kept, s.keptIndep, warm, false)
	s.reused = s.base == own && keptAll && s.plan.GreedyJoint
	return s
}

// unchangedLocked reports that no query of the due set is stale and that
// every fingerprint of its own entry matches exactly.
func (pl *Planner) unchangedLocked(own *plannerEntry, keys []string, trees []*query.Tree) bool {
	for qi, id := range keys {
		if pl.staleLocked(id) || trees[qi].Drift(own.probs[qi], own.costs[qi]) != 0 {
			return false
		}
	}
	return true
}

// baseLocked returns the cached entry sharing the most queries that are
// not stale with the due set — the most recently stored on a tie — or
// nil when none shares any.
func (pl *Planner) baseLocked(keys []string) *plannerEntry {
	var base *plannerEntry
	best := 0
	for _, ent := range pl.entries {
		overlap := 0
		for _, id := range keys {
			if _, ok := ent.index[id]; ok && !pl.staleLocked(id) {
				overlap++
			}
		}
		if overlap > best || overlap == best && overlap > 0 && ent.seq > base.seq {
			best, base = overlap, ent
		}
	}
	return base
}

func (pl *Planner) staleLocked(id string) bool {
	_, ok := pl.stale[id]
	return ok
}

// storeLocked stores the selected plan under the key with each tree's
// fingerprint — the base's for a schedule the plan kept, the current
// values for one it placed — copying the mutable inputs (callers reuse
// tree and warm buffers across ticks), and clears the stale marks the
// stored plan absorbs. A new key in a full cache evicts the oldest
// stored entry.
func (pl *Planner) storeLocked(key string, keys []string, trees []*query.Tree, warm sched.Warm, s selection) {
	probs := make([][]float64, len(trees))
	costs := make([][]float64, len(trees))
	for qi, t := range trees {
		if s.kept != nil && s.kept[qi] != nil && (s.plan.GreedyJoint || s.keptIndep[qi] != nil) {
			bi := s.base.index[keys[qi]]
			probs[qi], costs[qi] = s.base.probs[bi], s.base.costs[bi]
		} else {
			probs[qi], costs[qi] = t.Fingerprint()
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
		oldest, seq := "", ^uint64(0)
		for k, ent := range pl.entries {
			if ent.seq < seq {
				oldest, seq = k, ent.seq
			}
		}
		delete(pl.entries, oldest)
	}
	pl.stored++
	pl.entries[key] = &plannerEntry{keys: ks, index: index, probs: probs, costs: costs, warm: w, plan: s.plan, indep: s.indep, seq: pl.stored}
	for _, id := range keys {
		delete(pl.stale, id)
	}
}

// MarkStale records that the given query ids' cached schedules can no
// longer be trusted — the id was (re)registered with possibly different
// text, or a drift detector tripped on one of its predicates or streams.
// Cached joint plans survive: the next Plan call whose due set contains
// a stale id re-places that id's schedule against the kept ones. Returns
// how many ids were newly marked.
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

// Patches returns how many Plan calls kept some cached schedules and
// placed the rest (Plan.Patched) rather than reusing or planning from
// scratch.
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
// keeping a schedule; disagreeing cached bits do.
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
