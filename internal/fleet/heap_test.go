package fleet

import (
	"math/rand/v2"
	"testing"
	"time"

	"paotr/internal/query"
	"paotr/internal/sched"
)

// planJointReference plans with the seed O(u²) selection scan instead of
// the lazy heap: the oracle the heap planner must match byte for byte.
func planJointReference(trees []*query.Tree, weights []int, warm sched.Warm) *Plan {
	plan, _ := planJoint(trees, weights, nil, warm, true)
	return plan
}

// samePlan asserts two joint plans are byte-identical: same schedules
// leaf for leaf, bitwise-equal expected costs, same guardrail outcome.
func samePlan(t *testing.T, trial int, want, got *Plan) {
	t.Helper()
	if len(want.Queries) != len(got.Queries) {
		t.Fatalf("trial %d: %d query plans, want %d", trial, len(got.Queries), len(want.Queries))
	}
	for qi := range want.Queries {
		w, g := want.Queries[qi], got.Queries[qi]
		if len(w.Schedule) != len(g.Schedule) {
			t.Fatalf("trial %d query %d: schedule %v, want %v", trial, qi, g.Schedule, w.Schedule)
		}
		for i := range w.Schedule {
			if w.Schedule[i] != g.Schedule[i] {
				t.Fatalf("trial %d query %d: schedule %v, want %v", trial, qi, g.Schedule, w.Schedule)
			}
		}
		if w.Expected != g.Expected {
			t.Fatalf("trial %d query %d: expected %v, want %v (bitwise)", trial, qi, g.Expected, w.Expected)
		}
	}
	if want.Expected != got.Expected || want.IndependentExpected != got.IndependentExpected {
		t.Fatalf("trial %d: totals (%v, %v), want (%v, %v)",
			trial, got.Expected, got.IndependentExpected, want.Expected, want.IndependentExpected)
	}
	if want.GreedyJoint != got.GreedyJoint {
		t.Fatalf("trial %d: GreedyJoint %v, want %v", trial, got.GreedyJoint, want.GreedyJoint)
	}
}

// TestHeapPlannerMatchesReference is the byte-identity property test of
// the tentpole: over hundreds of random overlapping fleets — cold and
// warm, weighted and not, including zero-probability units that exercise
// the +Inf-key fallback — the lazy-heap selection must reproduce the
// reference O(u²) scan's schedules and costs exactly, not approximately.
func TestHeapPlannerMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewPCG(61, 3))
	for trial := 0; trial < 300; trial++ {
		trees := randomFleet(rng, 1+rng.IntN(8), 1+rng.IntN(4))
		// A slice of trials gets zero-probability leaves so whole units
		// price to +Inf and the earliest-index fallback is exercised.
		if trial%5 == 0 {
			for _, tr := range trees {
				for j := range tr.Leaves {
					if rng.Float64() < 0.3 {
						tr.Leaves[j].Prob = 0
					}
				}
			}
		}
		var warm sched.Warm
		if trial%2 == 1 {
			warm = randomWarm(rng, trees)
		}
		var weights []int
		if trial%3 == 2 {
			weights = make([]int, len(trees))
			for i := range weights {
				weights[i] = 1 + rng.IntN(4)
			}
		}
		want := planJointReference(trees, weights, warm)
		got := PlanJointWeighted(trees, weights, warm)
		samePlan(t, trial, want, got)
	}
}

// TestHeapPlannerDenseSharing stresses the repricing event index: many
// queries over very few streams, so nearly every placement touches
// nearly every other unit's discounts.
func TestHeapPlannerDenseSharing(t *testing.T) {
	rng := rand.New(rand.NewPCG(7, 11))
	for trial := 0; trial < 40; trial++ {
		trees := randomFleet(rng, 6+rng.IntN(10), 1+rng.IntN(2))
		warm := randomWarm(rng, trees)
		samePlan(t, trial, planJointReference(trees, nil, warm), PlanJoint(trees, warm))
	}
}

// TestHeapPlannerDisjointStreams covers the opposite regime: queries on
// disjoint stream spaces, where placements never interact and cached
// heap keys stay live for the whole run.
func TestHeapPlannerDisjointStreams(t *testing.T) {
	rng := rand.New(rand.NewPCG(13, 17))
	for trial := 0; trial < 40; trial++ {
		n := 2 + rng.IntN(6)
		ss := make([]query.Stream, n)
		for k := range ss {
			ss[k] = query.Stream{Name: string(rune('A' + k)), Cost: 1 + rng.Float64()*9}
		}
		trees := make([]*query.Tree, n)
		for qi := range trees {
			tr := &query.Tree{Streams: ss}
			for a := 0; a < 1+rng.IntN(2); a++ {
				tr.Leaves = append(tr.Leaves, query.Leaf{
					And: a, Stream: query.StreamID(qi), Items: 1 + rng.IntN(3), Prob: 0.05 + 0.9*rng.Float64(),
				})
			}
			trees[qi] = tr
		}
		samePlan(t, trial, planJointReference(trees, nil, nil), PlanJoint(trees, nil))
	}
}

// TestHeapPlannerSpeedup1k times one 1k-query joint plan with the heap
// and with the quadratic reference: the heap must be at least 5x faster
// and price the fleet bitwise identically. Each planner keeps its best
// run, since load on a shared host only slows runs down; the short heap
// runs get more tries to land in a quiet window.
func TestHeapPlannerSpeedup1k(t *testing.T) {
	if testing.Short() {
		t.Skip("wall-clock measurement of the quadratic reference planner")
	}
	trees := randomFleet(rand.New(rand.NewPCG(97, 13)), 1000, 64)
	best := func(rounds int, plan func() *Plan) (time.Duration, *Plan) {
		d, p := time.Duration(1<<63-1), (*Plan)(nil)
		for i := 0; i < rounds; i++ {
			t0 := time.Now()
			p = plan()
			d = min(d, time.Since(t0))
		}
		return d, p
	}
	quadDur, quad := best(2, func() *Plan { return planJointReference(trees, nil, nil) })
	heapDur, heap := best(10, func() *Plan { return PlanJoint(trees, nil) })
	if quad.Expected != heap.Expected {
		t.Fatalf("heap plan expected %v, reference %v (must be bitwise identical)", heap.Expected, quad.Expected)
	}
	speedup := quadDur.Seconds() / heapDur.Seconds()
	t.Logf("1k-query joint plan: quadratic %v, heap %v (%.1fx)", quadDur, heapDur, speedup)
	if speedup < 5 {
		t.Errorf("1k-query heap planner speedup %.1fx over the quadratic reference, want >= 5x", speedup)
	}
}
