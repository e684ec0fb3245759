package fleet

import (
	"fmt"
	"math"
	"math/rand/v2"
	"testing"

	"paotr/internal/query"
	"paotr/internal/sched"
)

// TestQuoteMatchesOracle pins Quote to the QuoteJoint oracle: over 2,000
// random fleets whose resident plan is cached, with nothing stale or
// drifted, the resident-state quote equals the two-plan delta within
// 1e-9. Half the fleets are admitted one by one before their first plan,
// so the plan's refresh replaces admitted schedules. Both sides of the
// guardrail must occur among the resident plans.
func TestQuoteMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewPCG(29, 31))
	const trials = 2000
	indepSide := 0
	for trial := range trials {
		n := 1 + rng.IntN(8)
		all := randomFleet(rng, n+1, 2+rng.IntN(4))
		trees, newcomer := all[:n], all[n]
		warm := randomWarm(rng, all)
		keys := fleetKeys(n)

		pl := &Planner{Eps: 0.05}
		if trial%2 == 1 {
			for qi, key := range keys {
				pl.Admit(key, trees[qi], warm)
			}
		}
		plan, _ := pl.Plan(keys, trees, warm)
		if !plan.GreedyJoint {
			indepSide++
		}
		want := pl.QuoteJoint(keys, trees, nil, warm, "newcomer", newcomer)
		if got, _ := pl.Quote(newcomer, warm); !(math.Abs(got-want) <= 1e-9) {
			t.Fatalf("trial %d: quote %.12f, oracle %.12f (resident greedy=%v)", trial, got, want, plan.GreedyJoint)
		}
	}
	if indepSide == 0 || indepSide == trials {
		t.Fatalf("%d of %d resident plans took the independent side: one side of the guardrail is untested", indepSide, trials)
	}
	t.Logf("%d of %d resident plans took the guardrail's independent side", indepSide, trials)
}

// rebuiltQuote prices tree against a resident state rebuilt from pl's
// own per-class cells (see residentState.rebuilt).
func rebuiltQuote(pl *Planner, tree *query.Tree, warm sched.Warm) float64 {
	pl.mu.Lock()
	ref := pl.res.rebuilt()
	pl.mu.Unlock()
	return ref.price(tree, warm, false).quote
}

// TestResidentStateProperty runs random sequences of register (Admit),
// unregister (Remove), plan, drift and stale marks against one planner.
// After every step the resident state must hold exactly the live
// classes, its products must match a rebuild from its own per-class
// cells (CheckResident), and a probe's quote must equal the marginal
// priced against that rebuild within 1e-9.
func TestResidentStateProperty(t *testing.T) {
	rng := rand.New(rand.NewPCG(37, 41))
	for seq := range 40 {
		streams := 2 + rng.IntN(3)
		pool := randomFleet(rng, 24, streams)
		warm := randomWarm(rng, pool)
		pl := &Planner{Eps: 0.05}
		live := map[string]*query.Tree{}
		var order []string
		next := 0
		for step := range 80 {
			switch op := rng.IntN(8); {
			case op < 3 || len(order) == 0:
				key := fmt.Sprintf("c%d", next)
				next++
				tree := pool[rng.IntN(len(pool))].Clone()
				pl.Admit(key, tree, warm)
				live[key] = tree
				order = append(order, key)
			case op == 3:
				i := rng.IntN(len(order))
				pl.Remove(order[i])
				delete(live, order[i])
				order = append(order[:i], order[i+1:]...)
			case op == 4:
				trees := make([]*query.Tree, len(order))
				for i, key := range order {
					trees[i] = live[key]
				}
				pl.Plan(order, trees, warm)
			case op == 5:
				drifted := live[order[rng.IntN(len(order))]]
				for j := range drifted.Leaves {
					if rng.Float64() < 0.5 {
						p := drifted.Leaves[j].Prob + 0.3*(rng.Float64()-0.5)
						drifted.Leaves[j].Prob = math.Min(0.99, math.Max(0.01, p))
					}
				}
			case op == 6:
				pl.MarkStale(order[rng.IntN(len(order))])
			default:
				warm = randomWarm(rng, pool)
			}
			if err := pl.CheckResident(order); err != nil {
				t.Fatalf("seq %d step %d: %v", seq, step, err)
			}
			probe := pool[rng.IntN(len(pool))]
			got, _ := pl.Quote(probe, warm)
			want := rebuiltQuote(pl, probe, warm)
			if !(math.Abs(got-want) <= 1e-9) {
				t.Fatalf("seq %d step %d: quote %.12f, rebuilt marginal %.12f", seq, step, got, want)
			}
		}
	}
}

// TestQuoteOracleGapUnderDrift reports, without gating, how far Quote
// strays from the QuoteJoint oracle when residents drifted or went
// stale since their plan: the oracle re-places those residents inside
// the quote, Quote leaves that to the next plan. Drift moves 30% of the
// leaves by up to ±0.15, and one resident is marked stale in half the
// trials. The gap is relative to the newcomer's independent price.
func TestQuoteOracleGapUnderDrift(t *testing.T) {
	rng := rand.New(rand.NewPCG(43, 47))
	const trials = 500
	sum, worst := 0.0, 0.0
	for trial := range trials {
		n := 2 + rng.IntN(7)
		all := randomFleet(rng, n+1, 2+rng.IntN(4))
		trees, newcomer := all[:n], all[n]
		warm := randomWarm(rng, all)
		keys := fleetKeys(n)
		pl := &Planner{Eps: 0.05}
		pl.Plan(keys, trees, warm)

		drifted := make([]*query.Tree, n)
		for qi, tr := range trees {
			drifted[qi] = tr.Clone()
			for j := range drifted[qi].Leaves {
				if rng.Float64() < 0.3 {
					p := drifted[qi].Leaves[j].Prob + 0.3*(rng.Float64()-0.5)
					drifted[qi].Leaves[j].Prob = math.Min(0.99, math.Max(0.01, p))
				}
			}
		}
		if trial%2 == 0 {
			pl.MarkStale(keys[rng.IntN(n)])
		}
		quote, indep := pl.Quote(newcomer, warm)
		if indep <= 0 {
			continue
		}
		gap := math.Abs(quote-pl.QuoteJoint(keys, drifted, nil, warm, "newcomer", newcomer)) / indep
		sum += gap
		worst = max(worst, gap)
	}
	t.Logf("gap to the oracle under drift and stale marks: mean %.2f%%, worst %.2f%% of the newcomer's independent price",
		100*sum/trials, 100*worst)
}

// TestQuoteCostFlatInFleetSize: a quote's cost does not grow with the
// fleet. With 50 resident distinct shapes and with 2,000, with and
// without plans between the registrations, quoting the same newcomer
// makes the same number of allocations and reads the same number of
// per-(stream, item) products. Allocations are compared outside -race
// builds only (see raceEnabled).
func TestQuoteCostFlatInFleetSize(t *testing.T) {
	rng := rand.New(rand.NewPCG(53, 59))
	const streams = 5
	pool := randomFleet(rng, 2001, streams)
	newcomer := pool[2000]
	warm := randomWarm(rng, pool)
	type cost struct {
		allocs float64
		reads  int
	}
	var first cost
	for _, n := range []int{50, 2000} {
		for _, ticks := range []bool{false, true} {
			pl := &Planner{Eps: 0.05}
			keys := make([]string, 0, n)
			for i := range n {
				keys = append(keys, fmt.Sprintf("s%d", i))
				pl.Admit(keys[i], pool[i], warm)
				if ticks && (i%25 == 24 || i == n-1) {
					pl.Plan(keys, pool[:i+1], warm)
				}
			}
			var c cost
			c.allocs = testing.AllocsPerRun(20, func() { pl.Quote(newcomer, warm) })
			pl.mu.Lock()
			c.reads = pl.res.price(newcomer, warm, false).reads
			pl.mu.Unlock()
			t.Logf("%d residents, plans between registrations %v: %.0f allocs, %d products read", n, ticks, c.allocs, c.reads)
			if raceEnabled {
				c.allocs = 0
			}
			if first == (cost{}) {
				first = c
			} else if c != first {
				t.Errorf("%d residents (plans %v): %+v, want %+v as at 50 residents without plans", n, ticks, c, first)
			}
		}
	}
}
