package fleet

import (
	"fmt"
	"math"
	"math/rand/v2"
	"testing"

	"paotr/internal/query"
	"paotr/internal/sched"
)

func fleetKeys(n int) []string {
	keys := make([]string, n)
	for i := range keys {
		keys[i] = string(rune('a' + i))
	}
	return keys
}

// TestPlannerPatchOnRegister: adding a query to a planned due set patches
// the cached plan — survivors keep their schedules verbatim, only the new
// query's units are placed — instead of replanning the fleet.
func TestPlannerPatchOnRegister(t *testing.T) {
	rng := rand.New(rand.NewPCG(21, 0))
	trees := randomFleet(rng, 4, 3)
	warm := randomWarm(rng, trees)
	pl := &Planner{Eps: 0.05}

	base, _ := pl.Plan(fleetKeys(3), trees[:3], warm)
	grown, reused := pl.Plan(fleetKeys(4), trees, warm)
	if reused {
		t.Fatal("grown due set reported as reused")
	}
	if !grown.Patched {
		t.Fatal("grown due set was fully replanned, want incremental patch")
	}
	if pl.Patches() != 1 {
		t.Fatalf("Patches() = %d, want 1", pl.Patches())
	}
	for qi := 0; qi < 3; qi++ {
		a, b := base.Queries[qi].Schedule, grown.Queries[qi].Schedule
		if len(a) != len(b) {
			t.Fatalf("patch changed survivor %d schedule: %v vs %v", qi, a, b)
		}
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("patch changed survivor %d schedule: %v vs %v", qi, a, b)
			}
		}
	}
	if err := grown.Validate(trees); err != nil {
		t.Fatal(err)
	}
	if grown.Expected > grown.IndependentExpected+1e-9 {
		t.Fatalf("patched plan prices %v above independent %v", grown.Expected, grown.IndependentExpected)
	}
	// Once stored, the patched due set reuses like any other plan.
	again, reused := pl.Plan(fleetKeys(4), trees, warm)
	if !reused || again != grown {
		t.Error("patched plan was not cached for reuse")
	}
}

// TestPlannerPatchOnUnregister: shrinking the due set keeps the cached
// schedules of every surviving query and just re-prices them jointly.
func TestPlannerPatchOnUnregister(t *testing.T) {
	rng := rand.New(rand.NewPCG(22, 0))
	trees := randomFleet(rng, 4, 3)
	warm := randomWarm(rng, trees)
	pl := &Planner{Eps: 0.05}

	base, _ := pl.Plan(fleetKeys(4), trees, warm)
	shrunk, reused := pl.Plan(fleetKeys(3), trees[:3], warm)
	if reused || !shrunk.Patched {
		t.Fatalf("shrunk due set: reused=%v patched=%v, want patch", reused, shrunk.Patched)
	}
	for qi := 0; qi < 3; qi++ {
		a, b := base.Queries[qi].Schedule, shrunk.Queries[qi].Schedule
		if len(a) != len(b) {
			t.Fatalf("patch changed survivor %d schedule: %v vs %v", qi, a, b)
		}
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("patch changed survivor %d schedule: %v vs %v", qi, a, b)
			}
		}
	}
	// The patched price must be the joint price of exactly those
	// schedules — nothing was replanned.
	schedules := make([]sched.Schedule, 3)
	for qi := range schedules {
		schedules[qi] = base.Queries[qi].Schedule
	}
	if want := PriceJoint(trees[:3], schedules, warm); shrunk.Expected != want {
		t.Fatalf("patched price %v, want joint price of survivors %v", shrunk.Expected, want)
	}
}

// TestPlannerPatchOnStale: MarkStale patches only the stale query — its
// schedule is replanned against the survivors' joint state — without
// touching the due-set key or the surviving schedules.
func TestPlannerPatchOnStale(t *testing.T) {
	rng := rand.New(rand.NewPCG(23, 0))
	trees := randomFleet(rng, 4, 3)
	warm := randomWarm(rng, trees)
	keys := fleetKeys(4)
	pl := &Planner{Eps: 0.05}

	base, _ := pl.Plan(keys, trees, warm)
	if pl.MarkStale("c") != 1 {
		t.Fatal("MarkStale did not mark")
	}
	if pl.MarkStale("c") != 0 {
		t.Fatal("MarkStale re-marked an already-stale id")
	}
	patched, reused := pl.Plan(keys, trees, warm)
	if reused || !patched.Patched {
		t.Fatalf("stale id: reused=%v patched=%v, want patch", reused, patched.Patched)
	}
	for qi := range keys {
		if qi == 2 {
			continue
		}
		a, b := base.Queries[qi].Schedule, patched.Queries[qi].Schedule
		for i := range a {
			if len(a) != len(b) || a[i] != b[i] {
				t.Fatalf("patch changed survivor %d schedule: %v vs %v", qi, a, b)
			}
		}
	}
	if err := patched.Validate(trees); err != nil {
		t.Fatal(err)
	}
	// The stale mark is consumed: the stored patch now reuses.
	if _, reused := pl.Plan(keys, trees, warm); !reused {
		t.Error("stale mark survived the patch that absorbed it")
	}
}

// TestPlannerPatchFallback: when every query is stale nothing survives to
// patch against, and the planner falls back to a full replan whose result
// is byte-identical to a from-scratch PlanJoint. A majority-stale fleet is
// still a patch: the one survivor keeps its schedule verbatim.
func TestPlannerPatchFallback(t *testing.T) {
	rng := rand.New(rand.NewPCG(24, 0))
	trees := randomFleet(rng, 4, 3)
	warm := randomWarm(rng, trees)
	keys := fleetKeys(4)
	pl := &Planner{Eps: 0.05}

	pl.Plan(keys, trees, warm)
	pl.MarkStale(keys...)
	full, reused := pl.Plan(keys, trees, warm)
	if reused || full.Patched {
		t.Fatalf("all-stale fleet: reused=%v patched=%v, want full replan", reused, full.Patched)
	}
	samePlan(t, 0, PlanJoint(trees, warm), full)

	pl.MarkStale(keys[:3]...)
	patched, reused := pl.Plan(keys, trees, warm)
	if reused || !patched.Patched {
		t.Fatalf("majority-stale fleet: reused=%v patched=%v, want patch", reused, patched.Patched)
	}
	a, b := full.Queries[3].Schedule, patched.Queries[3].Schedule
	if len(a) != len(b) {
		t.Fatalf("patch changed survivor schedule: %v vs %v", a, b)
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("patch changed survivor schedule: %v vs %v", a, b)
		}
	}
	if err := patched.Validate(trees); err != nil {
		t.Fatal(err)
	}
}

// TestPlannerPatchPricesNearScratch is the patch-quality property test:
// every plan must stay a valid plan whose price is the joint price of its
// schedules and within 5% of the independent-planning bound of a
// from-scratch PlanJoint, and whenever the planner keeps nothing its
// output must be exactly the from-scratch plan. It runs 250 random
// register/unregister/stale events, each followed by 20 drift steps
// (random leaves move by up to ±0.04 per step, and one step in five marks
// most queries stale), then 200 three-query fleets where one query
// drifts slowly beside a fast drifter. The greedy is a heuristic, so a
// plan kept through drift may also price well below scratch; after an
// event the bound is two-sided, in a drift step one-sided. Worst gaps
// measured, the same at this Eps of 0.05 and at 0.02: events +3.4% and
// -2.2%, drift steps +4.2%, slow drift +4.5%, and down to -13% in drift.
// The slow-drift case reads +5.2% and fails if a patch re-fingerprints
// the queries it kept, so that their drift since they were placed is lost.
func TestPlannerPatchPricesNearScratch(t *testing.T) {
	rng := rand.New(rand.NewPCG(25, 0))
	// The drift steps draw from their own stream, so the event fleets are
	// the same 250 as without them.
	drng := rand.New(rand.NewPCG(25, 1))
	patches, worst := 0, 0.0
	// check returns the plan's gap over scratch as a share of the
	// independent bound. An event plan keeps schedules planned at the
	// current probabilities, so its gap must stay within 5% either way.
	check := func(trial int, got *Plan, reused, event bool, trees []*query.Tree, warm sched.Warm) float64 {
		t.Helper()
		if err := got.Validate(trees); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		scratch := PlanJoint(trees, warm)
		if !reused && !got.Patched {
			samePlan(t, trial, scratch, got)
			return 0
		}
		if got.Expected > got.IndependentExpected+1e-9 {
			t.Fatalf("trial %d: patched price %v above independent %v", trial, got.Expected, got.IndependentExpected)
		}
		schedules := make([]sched.Schedule, len(trees))
		for qi := range trees {
			schedules[qi] = got.Queries[qi].Schedule
		}
		if want := PriceJoint(trees, schedules, warm); math.Abs(got.Expected-want) > 1e-9 {
			t.Fatalf("trial %d: plan prices %v, its schedules' joint price is %v", trial, got.Expected, want)
		}
		gap := (got.Expected - scratch.Expected) / math.Max(scratch.IndependentExpected, 1)
		if event && math.Abs(gap) > 0.05 || gap > 0.05 {
			t.Fatalf("trial %d: patched price %v vs scratch %v (gap %.4f of the independent bound)",
				trial, got.Expected, scratch.Expected, gap)
		}
		return gap
	}
	for trial := 0; trial < 250; trial++ {
		n := 3 + rng.IntN(6)
		trees := randomFleet(rng, n+1, 2+rng.IntN(3))
		var warm sched.Warm
		if trial%2 == 0 {
			warm = randomWarm(rng, trees)
		}
		pl := &Planner{Eps: 0.05}
		keys := fleetKeys(n + 1)
		pl.Plan(keys[:n], trees[:n], warm)

		var curKeys []string
		var curTrees []*query.Tree
		switch trial % 3 {
		case 0: // register
			curKeys, curTrees = keys, trees
		case 1: // unregister
			curKeys, curTrees = keys[:n-1], trees[:n-1]
		default: // drift trip on one query
			curKeys, curTrees = keys[:n], trees[:n]
			pl.MarkStale(keys[rng.IntN(n)])
		}
		got, reused := pl.Plan(curKeys, curTrees, warm)
		if reused {
			t.Fatalf("trial %d: event plan reported as reused", trial)
		}
		check(trial, got, reused, true, curTrees, warm)
		if got.Patched {
			patches++
		}

		// Drift: the trees are annotated in place, as the service does.
		for step := 0; step < 20; step++ {
			for _, tr := range curTrees {
				for j := range tr.Leaves {
					if drng.IntN(3) == 0 {
						p := tr.Leaves[j].Prob + 0.04*(2*drng.Float64()-1)
						tr.Leaves[j].Prob = math.Min(0.99, math.Max(0.01, p))
					}
				}
			}
			if drng.IntN(5) == 0 {
				for _, qi := range drng.Perm(len(curKeys))[:len(curKeys)/2+1] {
					pl.MarkStale(curKeys[qi])
				}
			}
			got, reused := pl.Plan(curKeys, curTrees, warm)
			worst = math.Max(worst, check(trial, got, reused, false, curTrees, warm))
		}
	}
	// Slow drift beside fast drift, without stale marks: every leaf of
	// query 0 moves one way by 0.6×Eps per step, so it is kept on one
	// plan and re-placed on the next, while query 1's leaves move by
	// 1.5×Eps, so every plan re-places query 1.
	for trial := 0; trial < 200; trial++ {
		trees := randomFleet(drng, 3, 2+drng.IntN(3))
		var warm sched.Warm
		if trial%2 == 0 {
			warm = randomWarm(drng, trees)
		}
		keys := fleetKeys(3)
		pl := &Planner{Eps: 0.05}
		pl.Plan(keys, trees, warm)
		dir := make([]float64, len(trees[0].Leaves))
		for j := range dir {
			dir[j] = float64(2*drng.IntN(2) - 1)
		}
		base := make([]float64, len(trees[1].Leaves))
		for j, l := range trees[1].Leaves {
			base[j] = math.Min(l.Prob, 0.9)
		}
		for step := 0; step < 40; step++ {
			for j := range trees[0].Leaves {
				p := trees[0].Leaves[j].Prob + 0.03*dir[j]
				trees[0].Leaves[j].Prob = math.Min(0.99, math.Max(0.01, p))
			}
			for j := range trees[1].Leaves {
				trees[1].Leaves[j].Prob = base[j] + 0.075*float64(step%2)
			}
			got, reused := pl.Plan(keys, trees, warm)
			worst = math.Max(worst, check(trial, got, reused, false, trees, warm))
		}
	}
	t.Logf("worst patched gap %.4f of the independent bound", worst)
	if patches < 150 {
		t.Fatalf("only %d/250 events were patched: patching is not the happy path", patches)
	}
}

// TestPlannerReplacesCumulativeDrift: a kept schedule keeps the
// fingerprint it was placed against. Query a drifts by 0.6×Eps per plan
// while query b crosses Eps on every plan and query c stays put, so the
// first patch keeps a at its original fingerprint and the second, 1.2×Eps
// away, re-places it.
func TestPlannerReplacesCumulativeDrift(t *testing.T) {
	rng := rand.New(rand.NewPCG(28, 0))
	trees := randomFleet(rng, 3, 3)
	warm := randomWarm(rng, trees)
	keys := fleetKeys(3)
	pl := &Planner{Eps: 0.05}
	pl.Plan(keys, trees, warm)
	fingerprintOfA := func() []float64 {
		pl.mu.Lock()
		defer pl.mu.Unlock()
		return pl.entries[cacheKey(keys)].probs[0]
	}
	// Each leaf of a and b moves toward 0.5 from where it starts, so the
	// moves add up and stay inside (0, 1).
	toward := func(p float64) float64 { return math.Copysign(1, 0.5-p) }
	dirA := make([]float64, len(trees[0].Leaves))
	for j, l := range trees[0].Leaves {
		dirA[j] = toward(l.Prob)
	}
	dirB := make([]float64, len(trees[1].Leaves))
	for j, l := range trees[1].Leaves {
		dirB[j] = toward(l.Prob)
	}
	placed, _ := trees[0].Fingerprint()
	for step := 1; step <= 2; step++ {
		for j := range trees[0].Leaves {
			trees[0].Leaves[j].Prob += 0.03 * dirA[j]
		}
		for j := range trees[1].Leaves {
			trees[1].Leaves[j].Prob += 0.075 * dirB[j]
		}
		if p, reused := pl.Plan(keys, trees, warm); reused || !p.Patched {
			t.Fatalf("step %d: reused=%v patched=%v, want a patch", step, reused, p.Patched)
		}
		if step == 2 {
			placed, _ = trees[0].Fingerprint()
		}
		if got := fingerprintOfA(); fmt.Sprint(got) != fmt.Sprint(placed) {
			t.Fatalf("step %d: a's fingerprint %v, want %v", step, got, placed)
		}
	}
}

// TestPlannerReuseKeepsPatched: a plan reused under drift within Eps
// places nothing, so it reports Patched as the plan it re-prices did —
// false for a from-scratch plan, true for a patch.
func TestPlannerReuseKeepsPatched(t *testing.T) {
	rng := rand.New(rand.NewPCG(29, 0))
	trees := randomFleet(rng, 3, 3)
	warm := randomWarm(rng, trees)
	pl := &Planner{Eps: 0.05}
	for i, n := range []int{3, 2} { // from scratch, then a patch dropping c
		keys := fleetKeys(n)
		first, _ := pl.Plan(keys, trees[:n], warm)
		if first.Patched != (i == 1) {
			t.Fatalf("due set %v: patched=%v", keys, first.Patched)
		}
		trees[0].Leaves[0].Prob += 0.01
		p, reused := pl.Plan(keys, trees[:n], warm)
		if !reused || p == first || p.Patched != first.Patched {
			t.Fatalf("due set %v: reused=%v re-priced=%v patched=%v, want a re-priced reuse with patched=%v",
				keys, reused, p != first, p.Patched, first.Patched)
		}
	}
}

// TestPlannerDeterministic: identical call sequences give identical plans.
// Plan({a,d}) finds two cached entries sharing one query, {a,b} and
// {a,c}; the most recently stored wins the tie, whatever the map order.
func TestPlannerDeterministic(t *testing.T) {
	rng := rand.New(rand.NewPCG(26, 0))
	for trial := 0; trial < 200; trial++ {
		trees := randomFleet(rng, 4, 2+rng.IntN(3))
		warm := randomWarm(rng, trees)
		run := func() *Plan {
			pl := &Planner{Eps: 0.05}
			pl.Plan([]string{"a", "b"}, []*query.Tree{trees[0], trees[1]}, warm)
			pl.Plan([]string{"a", "c"}, []*query.Tree{trees[0], trees[2]}, warm)
			p, _ := pl.Plan([]string{"a", "d"}, []*query.Tree{trees[0], trees[3]}, warm)
			return p
		}
		want := run()
		for rep := 1; rep < 20; rep++ {
			samePlan(t, trial, want, run())
		}
	}
}

// TestPlannerEvictsOldest: a new due set in a full cache evicts the entry
// stored first.
func TestPlannerEvictsOldest(t *testing.T) {
	rng := rand.New(rand.NewPCG(27, 0))
	trees := randomFleet(rng, 1, 2)
	warm := randomWarm(rng, trees)
	pl := &Planner{Eps: 0.05}
	key := func(i int) []string { return []string{fmt.Sprint("q", i)} }
	for i := 0; i <= maxPlannerEntries; i++ {
		pl.Plan(key(i), trees, warm)
	}
	if _, reused := pl.Plan(key(1), trees, warm); !reused {
		t.Error("second-oldest entry was evicted")
	}
	if _, reused := pl.Plan(key(0), trees, warm); reused {
		t.Error("oldest entry survived a full cache")
	}
}
