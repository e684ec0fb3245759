package fleet

import (
	"fmt"
	"math"
	"math/rand/v2"
	"sort"
	"strings"
	"testing"

	"paotr/internal/query"
	"paotr/internal/sched"
)

// QuoteJoint is the oracle Quote is pinned against: it prices adding the
// query (key, tree) to the resident due set (keys, trees, weights) as the
// difference of two joint plans, each built by the selection PlanWeighted
// runs — an exact fingerprint match is the cached plan, and otherwise the
// base entry's schedules that are not stale and within Eps are kept while
// the greedy places the rest. Unlike Quote it re-places stale and drifted
// residents inside the quote. Planner state is read but never written;
// the newcomer is quoted at weight 1 and the delta clamped to >= 0.
func (pl *Planner) QuoteJoint(keys []string, trees []*query.Tree, weights []int, warm sched.Warm, key string, tree *query.Tree) float64 {
	allKeys := append(append(make([]string, 0, len(keys)+1), keys...), key)
	allTrees := append(append(make([]*query.Tree, 0, len(trees)+1), trees...), tree)
	var allWeights []int
	if weights != nil {
		allWeights = append(append(make([]int, 0, len(weights)+1), weights...), 1)
	}

	pl.mu.Lock()
	defer pl.mu.Unlock()
	resident := pl.selectLocked(cacheKey(keys), keys, trees, weights, warm).plan
	withNew := pl.selectLocked(cacheKey(allKeys), allKeys, allTrees, allWeights, warm).plan
	return max(withNew.Expected-resident.Expected, 0)
}

// dumpPlanner renders every observable piece of planner state — cached
// entries with their fingerprints, plans and stored independent orders,
// the stale set, and the resident joint state with its classes, products,
// sums and basis — into one deterministic string, so state equality is
// byte equality.
func dumpPlanner(pl *Planner) string {
	pl.mu.Lock()
	defer pl.mu.Unlock()
	var b strings.Builder
	keys := make([]string, 0, len(pl.entries))
	for k := range pl.entries {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		ent := pl.entries[k]
		fmt.Fprintf(&b, "entry %q keys=%v probs=%v costs=%v warm=%v\n", k, ent.keys, ent.probs, ent.costs, ent.warm)
		fmt.Fprintf(&b, "  plan expected=%v indep=%v greedy=%v patched=%v\n",
			ent.plan.Expected, ent.plan.IndependentExpected, ent.plan.GreedyJoint, ent.plan.Patched)
		for qi, qp := range ent.plan.Queries {
			fmt.Fprintf(&b, "  q%d expected=%v schedule=%v indep=%v\n", qi, qp.Expected, qp.Schedule, ent.indep[qi])
		}
	}
	stale := make([]string, 0, len(pl.stale))
	for id := range pl.stale {
		stale = append(stale, id)
	}
	sort.Strings(stale)
	fmt.Fprintf(&b, "stale=%v patched=%d\n", stale, pl.patched)
	r := &pl.res
	resident := make([]string, 0, len(r.classes))
	for k := range r.classes {
		resident = append(resident, k)
	}
	sort.Strings(resident)
	for _, k := range resident {
		rc := r.classes[k]
		fmt.Fprintf(&b, "resident %q g=%v i=%v\n", k, rc.g, rc.i)
	}
	for k := range r.g {
		fmt.Fprintf(&b, "stream %d G=%v I=%v sums=%v/%v touched=%v\n", k, r.g[k], r.i[k], r.sumG[k], r.sumI[k], r.touched[k])
	}
	fmt.Fprintf(&b, "basis=%v\n", r.warm)
	return b.String()
}

// TestQuoteThenRejectLeavesPlansIdentical is the dry-run pin: quoting a
// newcomer against a planner holding cached plans (and stale marks)
// must leave every byte of planner state unchanged, and the next Plan
// call for the resident due set must still be a pure cache hit.
func TestQuoteThenRejectLeavesPlansIdentical(t *testing.T) {
	rng := rand.New(rand.NewPCG(7, 11))
	for trial := 0; trial < 60; trial++ {
		n := 2 + rng.IntN(6)
		all := randomFleet(rng, n+1, 3+rng.IntN(3))
		trees, newcomer := all[:n], all[n]
		warm := randomWarm(rng, all)
		keys := fleetKeys(n)

		pl := &Planner{Eps: 0.05}
		if _, reused := pl.Plan(keys, trees, warm); reused {
			t.Fatalf("trial %d: first plan reported reuse", trial)
		}
		if trial%3 == 0 {
			// Quotes must also preserve stale marks — the patch they price
			// reads them but only a real Plan absorbs them.
			pl.MarkStale(keys[rng.IntN(n)])
		}

		before := dumpPlanner(pl)
		quote, _ := pl.Quote(newcomer, warm)
		if math.IsNaN(quote) || quote < 0 {
			t.Fatalf("trial %d: bad quote %v", trial, quote)
		}
		if after := dumpPlanner(pl); after != before {
			t.Fatalf("trial %d: quote mutated planner state\nbefore:\n%s\nafter:\n%s", trial, before, after)
		}
		if trial%3 != 0 {
			if _, reused := pl.Plan(keys, trees, warm); !reused {
				t.Fatalf("trial %d: resident plan no longer reused after quote", trial)
			}
		}
	}
}

// TestQuoteMatchesFromScratchDelta checks the QuoteJoint oracle against
// the ground truth on a cold planner: with nothing cached, it must equal
// the from-scratch joint-plan delta exactly. (A cold planner has no
// residents for Quote to price against; TestQuoteMatchesOracle carries
// the admission invariant.)
func TestQuoteMatchesFromScratchDelta(t *testing.T) {
	rng := rand.New(rand.NewPCG(3, 5))
	for trial := 0; trial < 60; trial++ {
		n := 1 + rng.IntN(7)
		all := randomFleet(rng, n+1, 3+rng.IntN(3))
		trees, newcomer := all[:n], all[n]
		warm := randomWarm(rng, all)
		keys := fleetKeys(n)

		pl := &Planner{Eps: 0.05}
		quote := pl.QuoteJoint(keys, trees, nil, warm, "newcomer", newcomer)

		resident := PlanJoint(trees, warm).Expected
		with := PlanJoint(append(append([]*query.Tree{}, trees...), newcomer), warm).Expected
		want := with - resident
		if want < 0 {
			want = 0
		}
		if math.Abs(quote-want) > 1e-9 {
			t.Fatalf("trial %d: quote %.12f, from-scratch delta %.12f", trial, quote, want)
		}
	}
}

// TestQuoteMatchesRealizedPatchDelta checks the admission invariant the
// controller relies on: the quote equals the plan-cost delta the fleet
// actually realizes when the newcomer is admitted and the planner
// patches the resident plan on the next tick.
func TestQuoteMatchesRealizedPatchDelta(t *testing.T) {
	rng := rand.New(rand.NewPCG(13, 17))
	for trial := 0; trial < 60; trial++ {
		n := 2 + rng.IntN(6)
		all := randomFleet(rng, n+1, 3+rng.IntN(3))
		trees, newcomer := all[:n], all[n]
		warm := randomWarm(rng, all)
		keys := fleetKeys(n)

		pl := &Planner{Eps: 0.05}
		residentPlan, _ := pl.Plan(keys, trees, warm)
		quote, _ := pl.Quote(newcomer, warm)

		allKeys := append(append([]string{}, keys...), "newcomer")
		allTrees := append(append([]*query.Tree{}, trees...), newcomer)
		patched, reused := pl.Plan(allKeys, allTrees, warm)
		if reused {
			t.Fatalf("trial %d: grown due set reported reuse", trial)
		}
		realized := patched.Expected - residentPlan.Expected
		if realized < 0 {
			realized = 0
		}
		if math.Abs(quote-realized) > 1e-9 {
			t.Fatalf("trial %d: quote %.12f, realized patch delta %.12f (patched=%v)",
				trial, quote, realized, patched.Patched)
		}
	}
}

// TestQuoteOverlapDiscount spells out the pricing economics: a twin of
// a resident query quotes (near) zero, while a query over a stream
// nobody else reads quotes its full independent price.
func TestQuoteOverlapDiscount(t *testing.T) {
	ss := []query.Stream{{Name: "A", Cost: 4}, {Name: "B", Cost: 9}}
	resident := &query.Tree{Streams: ss, Leaves: []query.Leaf{{And: 0, Stream: 0, Items: 2, Prob: 0.5}}}
	twin := &query.Tree{Streams: ss, Leaves: []query.Leaf{{And: 0, Stream: 0, Items: 2, Prob: 0.5}}}
	disjoint := &query.Tree{Streams: ss, Leaves: []query.Leaf{{And: 0, Stream: 1, Items: 1, Prob: 0.5}}}
	for _, tr := range []*query.Tree{resident, twin, disjoint} {
		if err := tr.Validate(); err != nil {
			t.Fatal(err)
		}
	}
	warm := sched.Warm{make([]bool, 2), make([]bool, 1)}

	pl := &Planner{Eps: 0.05}
	keys := []string{"resident"}
	trees := []*query.Tree{resident}
	pl.Plan(keys, trees, warm)

	if q, _ := pl.Quote(twin, warm); q > 1e-9 {
		t.Fatalf("twin of a resident shape quoted %v, want 0", q)
	}
	indep := PlanJoint([]*query.Tree{disjoint}, warm).Expected
	if q, _ := pl.Quote(disjoint, warm); math.Abs(q-indep) > 1e-9 {
		t.Fatalf("disjoint query quoted %v, want its independent price %v", q, indep)
	}
}

// TestQuoteEmptyFleet prices the first query of an empty fleet at its
// own single-query joint cost.
func TestQuoteEmptyFleet(t *testing.T) {
	rng := rand.New(rand.NewPCG(19, 23))
	trees := randomFleet(rng, 1, 3)
	warm := randomWarm(rng, trees)
	pl := &Planner{Eps: 0.05}
	want := PlanJoint(trees, warm).Expected
	if q, _ := pl.Quote(trees[0], warm); math.Abs(q-want) > 1e-9 {
		t.Fatalf("empty-fleet quote %v, want %v", q, want)
	}
}
