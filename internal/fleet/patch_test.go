package fleet

import (
	"fmt"
	"math"
	"math/rand/v2"
	"testing"

	"paotr/internal/query"
	"paotr/internal/sched"
)

// priceJointReference prices fixed schedules by committing each one into
// a single jointState in input order: the pricing the product walk of
// PriceJoint and planJoint replaces. It returns each schedule's marginal
// against the ones before it, and the total.
func priceJointReference(trees []*query.Tree, schedules []sched.Schedule, warm sched.Warm) ([]float64, float64) {
	st := newJointState(trees, warm)
	perQuery := make([]float64, len(trees))
	total := 0.0
	for qi := range trees {
		perQuery[qi] = st.appendUnit(unit{q: qi, leaves: schedules[qi]}, true)
		total += perQuery[qi]
	}
	st.release()
	return perQuery, total
}

// TestPriceJointMatchesCommittedPricing: the product walk multiplies the
// same factors in the same order as committing the schedules into a
// jointState, so on random fleets, cold and warm, PriceJoint equals the
// committed pricing bit for bit.
func TestPriceJointMatchesCommittedPricing(t *testing.T) {
	rng := rand.New(rand.NewPCG(67, 71))
	for trial := range 300 {
		trees := randomFleet(rng, 1+rng.IntN(12), 1+rng.IntN(5))
		var warm sched.Warm
		if trial%2 == 1 {
			warm = randomWarm(rng, trees)
		}
		schedules := make([]sched.Schedule, len(trees))
		for qi, tr := range trees {
			schedules[qi] = independentOrder(tr, warm)
		}
		_, want := priceJointReference(trees, schedules, warm)
		if got := PriceJoint(trees, schedules, warm); got != want {
			t.Fatalf("trial %d: PriceJoint %v, committed pricing %v (bitwise)", trial, got, want)
		}
	}
}

// TestPlannerPatchProperty drives one Planner per sequence through random
// registrations (admitted to the resident state, as the service does),
// unregistrations, stale marks, drift inside Eps, drift past Eps and warm
// changes, planning the live classes after every event. Every plan must
// be valid, price its schedules at the current probabilities (PriceJoint
// within 1e-9), split its price over its classes (within 1e-9) and stay
// within the guardrail's bound. On the greedy side each kept class's
// share must equal its marginal among the kept schedules alone, in input
// order, and on the independent side every class's share its marginal
// among all the plan's schedules (both within 1e-12). A plan that kept
// nothing must be the reference planner's plan byte for byte, and the
// resident state must match a rebuild.
func TestPlannerPatchProperty(t *testing.T) {
	rng := rand.New(rand.NewPCG(73, 79))
	const eps = 0.05
	var scratch, patched, reused, indepSide int
	for seq := range 50 {
		pool := randomFleet(rng, 40, 2+rng.IntN(4))
		warm := randomWarm(rng, pool)
		pl := &Planner{Eps: eps}
		live := map[string]*query.Tree{}
		var order []string
		next := 0
		register := func() {
			key := fmt.Sprintf("c%d", next)
			next++
			tree := pool[rng.IntN(len(pool))].Clone()
			pl.Admit(key, tree, warm)
			live[key] = tree
			order = append(order, key)
		}
		move := func(tr *query.Tree, j int, by float64) {
			tr.Leaves[j].Prob = math.Min(0.99, math.Max(0.01, tr.Leaves[j].Prob+by))
		}
		for range 3 {
			register()
		}
		for step := range 60 {
			switch op := rng.IntN(7); {
			case op == 0:
				register()
			case op == 1 && len(order) > 1:
				i := rng.IntN(len(order))
				pl.Remove(order[i])
				delete(live, order[i])
				order = append(order[:i], order[i+1:]...)
			case op == 2:
				pl.MarkStale(order[rng.IntN(len(order))])
			case op == 3: // drift inside Eps
				tr := live[order[rng.IntN(len(order))]]
				for j := range tr.Leaves {
					if rng.IntN(2) == 0 {
						move(tr, j, eps*(rng.Float64()-0.5))
					}
				}
			case op == 4: // drift past Eps
				tr := live[order[rng.IntN(len(order))]]
				move(tr, rng.IntN(len(tr.Leaves)), eps*(1.5+rng.Float64())*float64(2*rng.IntN(2)-1))
			case op == 5:
				warm = randomWarm(rng, pool)
			}
			trees := make([]*query.Tree, len(order))
			for i, key := range order {
				trees[i] = live[key]
			}
			var weights []int
			if seq%2 == 1 {
				weights = make([]int, len(trees))
				for i := range weights {
					weights[i] = 1 + rng.IntN(3)
				}
			}
			pl.mu.Lock()
			s := pl.planLocked(order, trees, weights, warm)
			pl.mu.Unlock()
			plan := s.plan
			where := fmt.Sprintf("seq %d step %d", seq, step)

			if err := plan.Validate(trees); err != nil {
				t.Fatalf("%s: %v", where, err)
			}
			schedules := make([]sched.Schedule, len(trees))
			sum := 0.0
			for qi, qp := range plan.Queries {
				schedules[qi] = qp.Schedule
				sum += qp.Expected
			}
			if want := PriceJoint(trees, schedules, warm); !(math.Abs(plan.Expected-want) <= 1e-9) {
				t.Fatalf("%s: plan prices %v, its schedules' joint price is %v", where, plan.Expected, want)
			}
			if !(math.Abs(plan.Expected-sum) <= 1e-9) {
				t.Fatalf("%s: plan prices %v, its classes' shares sum to %v", where, plan.Expected, sum)
			}
			if plan.Expected > plan.IndependentExpected+1e-9 {
				t.Fatalf("%s: plan prices %v above its independent bound %v", where, plan.Expected, plan.IndependentExpected)
			}

			var keptAt []int
			for qi := range s.kept {
				if s.kept[qi] != nil {
					keptAt = append(keptAt, qi)
				}
			}
			switch {
			case s.reused:
				reused++
				if s.kept != nil && plan.Placed != 0 {
					t.Fatalf("%s: a reuse placed %d classes", where, plan.Placed)
				}
			case len(keptAt) == 0:
				scratch++
				samePlan(t, step, planJointReference(trees, weights, warm), plan)
				if plan.Patched || plan.Placed != len(trees) {
					t.Fatalf("%s: a plan that kept nothing reports patched=%v placed=%d of %d",
						where, plan.Patched, plan.Placed, len(trees))
				}
			default:
				patched++
				if !plan.Patched || plan.Placed != len(trees)-len(keptAt) {
					t.Fatalf("%s: a plan that kept %d of %d classes reports patched=%v placed=%d",
						where, len(keptAt), len(trees), plan.Patched, plan.Placed)
				}
			}
			if !plan.GreedyJoint {
				indepSide++
				perQuery, _ := priceJointReference(trees, schedules, warm)
				for qi, want := range perQuery {
					if got := plan.Queries[qi].Expected; !(math.Abs(got-want) <= 1e-12) {
						t.Fatalf("%s: independent side: class %d's share %v, its marginal %v", where, qi, got, want)
					}
				}
			} else if len(keptAt) > 0 {
				keptTrees := make([]*query.Tree, len(keptAt))
				keptSchedules := make([]sched.Schedule, len(keptAt))
				for i, qi := range keptAt {
					keptTrees[i], keptSchedules[i] = trees[qi], s.kept[qi]
				}
				perQuery, _ := priceJointReference(keptTrees, keptSchedules, warm)
				for i, qi := range keptAt {
					if got := plan.Queries[qi].Expected; !(math.Abs(got-perQuery[i]) <= 1e-12) {
						t.Fatalf("%s: kept class %d's share %v, its marginal among the kept schedules %v", where, qi, got, perQuery[i])
					}
				}
			}
			if err := pl.CheckResident(order); err != nil {
				t.Fatalf("%s: %v", where, err)
			}
		}
	}
	t.Logf("%d plans from scratch, %d patches, %d reuses; %d on the guardrail's independent side", scratch, patched, reused, indepSide)
	if scratch == 0 || patched == 0 || reused == 0 || indepSide == 0 {
		t.Fatal("some kind of plan never occurred: the sequences do not cover every path")
	}
}

// replacedFleet returns a planner holding a plan of 3 classes that are to
// be re-placed, followed by n random classes over the same 5 streams that
// are to be kept, with the fleet's keys and trees. The 3 are one AND unit
// each, all over the same items, so whatever order the greedy places them
// in takes the same work. The plan is grown 50 classes at a time, each
// step a patch, since planning thousands of classes sharing 5 streams
// from scratch takes seconds.
func replacedFleet(n int) (pl *Planner, keys []string, trees []*query.Tree) {
	kept := randomFleet(rand.New(rand.NewPCG(83, 89)), n, 5)
	for i := range 3 {
		trees = append(trees, &query.Tree{Streams: kept[0].Streams, Leaves: []query.Leaf{
			{And: 0, Stream: 0, Items: 2, Prob: 0.3 + 0.2*float64(i)},
			{And: 0, Stream: 1, Items: 3, Prob: 0.6},
		}})
	}
	trees = append(trees, kept...)
	for i := range trees {
		keys = append(keys, fmt.Sprint("c", i))
	}
	pl = &Planner{Eps: 0.05}
	for end := 53; ; end += 50 {
		end = min(end, len(trees))
		pl.Plan(keys[:end], trees[:end], nil)
		if end == len(trees) {
			return pl, keys, trees
		}
	}
}

// TestPatchWorkFollowsReplaced: re-placing the same 3 classes against 50
// kept classes and against 2,000 takes the same greedy trial appends, the
// same cross factors and the same independent plans — the 3 re-placed
// classes and the refreshOrders most drifted kept ones — however many
// classes are kept.
func TestPatchWorkFollowsReplaced(t *testing.T) {
	var first planWork
	for _, n := range []int{50, 2000} {
		pl, keys, trees := replacedFleet(n)
		pl.MarkStale(keys[:3]...)
		pl.mu.Lock()
		s := pl.selectLocked(cacheKey(keys), keys, trees, nil, nil)
		pl.mu.Unlock()
		t.Logf("3 classes re-placed against %d kept: %+v", n, s.work)
		if s.plan.Placed != 3 {
			t.Fatalf("%d kept: %d classes placed, want 3", n, s.plan.Placed)
		}
		if s.work.indep != 3+refreshOrders || s.work.trials == 0 || s.work.factors == 0 {
			t.Fatalf("%d kept: work %+v, want %d independent plans and some greedy work", n, s.work, 3+refreshOrders)
		}
		if n == 50 {
			first = s.work
		} else if s.work != first {
			t.Errorf("%d kept: work %+v, want %+v as against 50", n, s.work, first)
		}
	}
}

// BenchmarkPatch times a patch that re-places 3 classes against 50, 200
// and 2,000 kept classes (not gated; see TestPatchWorkFollowsReplaced for
// the work counts). It uses only the Planner's exported API.
func BenchmarkPatch(b *testing.B) {
	for _, n := range []int{50, 200, 2000} {
		b.Run(fmt.Sprint("kept=", n), func(b *testing.B) {
			pl, keys, trees := replacedFleet(n)
			b.ResetTimer()
			for range b.N {
				pl.MarkStale(keys[:3]...)
				if p, _ := pl.Plan(keys, trees, nil); !p.Patched {
					b.Fatal("the plan did not patch")
				}
			}
		})
	}
}
