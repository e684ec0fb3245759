package service

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"testing"

	"paotr/internal/adapt"
	"paotr/internal/corpus"
	"paotr/internal/engine"
	"paotr/internal/stream"
)

// regimeService builds a service over the regime-shift corpus with every
// scenario query registered.
func regimeService(tb testing.TB, cfg corpus.RegimeConfig, opts ...Option) *Service {
	tb.Helper()
	svc := New(corpus.RegimeRegistry(cfg), opts...)
	for i, q := range corpus.RegimeQueries(cfg) {
		if err := svc.Register(fmt.Sprintf("q%d", i), q); err != nil {
			tb.Fatal(err)
		}
	}
	return svc
}

// regimeWorkload runs the regime-shift corpus through the per-query
// baseline (see newWorkload) for the given number of ticks.
func regimeWorkload(tb testing.TB, cfg corpus.RegimeConfig, ticks int) *engine.Workload {
	tb.Helper()
	w := newWorkload(tb, corpus.RegimeRegistry(cfg), corpus.RegimeQueries(cfg)...)
	if _, err := w.Run(ticks); err != nil {
		tb.Fatal(err)
	}
	return w
}

// staleJPerTick is the baseline's realized post-shift J/tick over as many
// ticks after the shift as before it.
func staleJPerTick(tb testing.TB, cfg corpus.RegimeConfig) float64 {
	tb.Helper()
	w := regimeWorkload(tb, cfg, int(cfg.ShiftStep))
	atShift := w.Spent()
	if _, err := w.Run(int(cfg.ShiftStep)); err != nil {
		tb.Fatal(err)
	}
	return (w.Spent() - atShift) / float64(cfg.ShiftStep)
}

// priced2and5 builds two constant streams priced 2 J and 5 J per item:
// c1 always reads 1 and c2 always reads 1.
func priced2and5(tb testing.TB) *stream.Registry {
	tb.Helper()
	reg := stream.NewRegistry()
	if err := reg.Add(stream.Constant("c1", 1), stream.CostModel{BaseJoules: 2}); err != nil {
		tb.Fatal(err)
	}
	if err := reg.Add(stream.Constant("c2", 1), stream.CostModel{BaseJoules: 5}); err != nil {
		tb.Fatal(err)
	}
	return reg
}

// TestDetectorTripEvictsExactlyAffectedPlans: a predicate-level detector
// trip must drop the cached plan of the shape class whose estimator-driven
// predicate tripped and leave every other class's plan cache untouched.
// Both classes run the adaptive executor, whose decision trees are cached
// per class; the replan threshold 1 tolerates any probability drift, so
// only the targeted invalidation can force a replan.
func TestDetectorTripEvictsExactlyAffectedPlans(t *testing.T) {
	svc := New(priced2and5(t), WithWorkers(1),
		WithEngineOptions(engine.WithReplanThreshold(1)),
		WithExecutor(engine.AdaptiveExecutor{GapThreshold: engine.DefaultGapThreshold}))
	if err := svc.Register("q1", "c1 > 0"); err != nil {
		t.Fatal(err)
	}
	if err := svc.Register("q2", "c2 > 0"); err != nil {
		t.Fatal(err)
	}
	reused := func(tr TickResult) map[string]bool {
		out := map[string]bool{}
		for _, e := range tr.Executions {
			if e.Err != "" {
				t.Fatalf("tick %d query %s: %s", tr.Tick, e.ID, e.Err)
			}
			out[e.ID] = e.PlanReused
		}
		return out
	}
	svc.Run(3)
	if r := reused(svc.Tick()); !r["q1"] || !r["q2"] {
		t.Fatalf("warm-up plans not cached: plan_reused = %v", r)
	}
	before := svc.Metrics().ReplansForced

	// Drive q1's predicate through a 1→0 regime shift until the detector
	// trips (recording directly, as an execution stream would).
	_, keys, _ := svc.ProfileTree("q1")
	ad := svc.Adaptive()
	for i := 0; i < 40; i++ {
		ad.Record(keys[0], true)
	}
	trips, _ := ad.Trips()
	for i := 0; i < 200; i++ {
		ad.Record(keys[0], false)
		if p, _ := ad.Trips(); p > trips {
			break
		}
	}
	if p, _ := ad.Trips(); p == trips {
		t.Fatal("detector never tripped on a 1→0 shift")
	}
	r := reused(svc.Tick())
	if r["q1"] {
		t.Error("q1 reused its plan after a detector trip on its predicate")
	}
	if !r["q2"] {
		t.Error("q2's plan was evicted by a trip on an unrelated predicate")
	}
	if after := svc.Metrics().ReplansForced; after <= before {
		t.Errorf("replans_forced = %d after the trip, want more than %d", after, before)
	}
}

// tickAll runs n ticks and fails on any execution error.
func tickAll(tb testing.TB, svc *Service, n int) {
	tb.Helper()
	for _, tr := range svc.Run(n) {
		for _, e := range tr.Executions {
			if e.Err != "" {
				tb.Fatalf("tick %d query %s: %s", tr.Tick, e.ID, e.Err)
			}
		}
	}
}

// TestStationaryWindowedMatchesCumulative: acceptance — on a one-regime
// (stationary) run the windowed default must produce byte-identical
// schedules to the cumulative baseline, pay exactly the same costs, and
// trip no detectors. (While a predicate's window is not yet full the two
// estimators are algebraically identical; once full, the probabilities
// of this corpus are separated widely enough that window noise cannot
// reorder any schedule.)
func TestStationaryWindowedMatchesCumulative(t *testing.T) {
	// Probabilities chosen so every pairwise planning ratio (C/p for OR
	// placement, C/(1-p) for AND short-circuit order) is separated by
	// several windowed-estimate standard deviations — window noise then
	// cannot reorder any schedule.
	cfg := corpus.RegimeConfig{Seed: 23, ProbsA: []float64{0.5, 0.25, 0.12, 0.05}}
	const ticks = 300

	// Engine-level: identical per-tick schedules on private caches.
	runEngine := func(est *adapt.Windowed) []engine.Result {
		var opts []engine.Option
		if est != nil {
			opts = append(opts, engine.WithEstimator(est))
		}
		eng := engine.New(corpus.RegimeRegistry(cfg), opts...)
		q, err := eng.Compile(corpus.RegimeQueries(cfg)[0])
		if err != nil {
			t.Fatal(err)
		}
		cache, err := q.NewCache()
		if err != nil {
			t.Fatal(err)
		}
		res, err := q.Run(cache, ticks)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	ad := adapt.NewWindowed(adapt.Config{})
	windowed := runEngine(ad)
	cumulative := runEngine(nil)
	for i := range windowed {
		ws, cs := windowed[i].Schedule, cumulative[i].Schedule
		if len(ws) != len(cs) {
			t.Fatalf("tick %d: schedule lengths %d vs %d", i, len(ws), len(cs))
		}
		for j := range ws {
			if ws[j] != cs[j] {
				t.Fatalf("tick %d: windowed schedule %v != cumulative %v", i, ws, cs)
			}
		}
		if windowed[i].Value != cumulative[i].Value || windowed[i].Cost != cumulative[i].Cost {
			t.Fatalf("tick %d: (value, cost) = (%v, %v) vs (%v, %v)",
				i, windowed[i].Value, windowed[i].Cost, cumulative[i].Value, cumulative[i].Cost)
		}
	}
	if pt, ct := ad.Trips(); pt != 0 || ct != 0 {
		t.Errorf("stationary run tripped detectors: %d predicate, %d cost", pt, ct)
	}

	// Service-level: the windowed service spends exactly what the
	// cumulative per-query baseline spends.
	wsvc := regimeService(t, cfg, WithWorkers(1))
	tickAll(t, wsvc, ticks)
	wm := wsvc.Metrics()
	base := regimeWorkload(t, cfg, ticks)
	if math.Abs(wm.PaidCost-base.Spent()) > 1e-9 {
		t.Errorf("stationary paid cost: windowed service %.3f vs cumulative workload %.3f", wm.PaidCost, base.Spent())
	}
	if wm.PredicateDetectorTrips != 0 || wm.CostDetectorTrips != 0 || wm.ReplansForced != 0 {
		t.Errorf("stationary service tripped: %+v", wm)
	}
	if wm.Estimator != "windowed" {
		t.Errorf("estimator name = %q", wm.Estimator)
	}
}

// measureShift runs the regime-shift scenario through the service and
// returns the metrics snapshot at the shift tick and at the end, so
// post-shift J/tick can be compared against the baseline.
func measureShift(tb testing.TB, cfg corpus.RegimeConfig) (atShift, atEnd Metrics, svc *Service) {
	tb.Helper()
	svc = regimeService(tb, cfg, WithWorkers(4))
	post := int(cfg.ShiftStep)
	tickAll(tb, svc, int(cfg.ShiftStep))
	atShift = svc.Metrics()
	tickAll(tb, svc, post)
	return atShift, svc.Metrics(), svc
}

// TestAdaptiveBeatsStaleAfterShift: acceptance — on the regime-shift
// corpus, detector-driven replanning must realize >= 15% lower J/tick
// than the cumulative per-query baseline (engine.Workload) after the
// shift, the detectors must actually fire, and the learned per-item
// costs must converge to regime B's prices.
func TestAdaptiveBeatsStaleAfterShift(t *testing.T) {
	cfg := corpus.RegimeConfig{Seed: 17, ShiftStep: 250}
	aShift, aEnd, asvc := measureShift(t, cfg)
	post := float64(cfg.ShiftStep)
	adaptive := (aEnd.PaidCost - aShift.PaidCost) / post
	stale := staleJPerTick(t, cfg)
	saving := 1 - adaptive/stale
	t.Logf("post-shift J/tick: adaptive %.2f vs stale %.2f (%.1f%% saving); trips=%d/%d replans=%d",
		adaptive, stale, 100*saving, aEnd.PredicateDetectorTrips, aEnd.CostDetectorTrips, aEnd.ReplansForced)
	if saving < 0.15 {
		t.Errorf("adaptive estimation saved %.1f%% post-shift J/tick, want >= 15%%", 100*saving)
	}
	if aEnd.PredicateDetectorTrips == 0 {
		t.Error("no predicate detector trips across the shift")
	}
	if aEnd.CostDetectorTrips == 0 {
		t.Error("no cost detector trips across the shift")
	}
	if aEnd.ReplansForced == 0 {
		t.Error("detector trips forced no replans")
	}
	// Learned per-item costs converge to regime B's prices.
	normed := corpus.RegimeConfig{Seed: 17, ShiftStep: 250, Streams: 4,
		CostsB: []float64{6, 2, 4, 2}}
	for _, ps := range aEnd.PerStream {
		want := normed.CostsB[ps.Stream]
		if ps.Requested == 0 {
			continue
		}
		if math.Abs(ps.LearnedCostPerItem-want) > 0.3*want {
			t.Errorf("stream %s learned cost %.2f, want ≈ regime B %.2f",
				ps.Name, ps.LearnedCostPerItem, want)
		}
	}
	// Property: after a trip forced the replan, the fresh plans' modelled
	// expected cost per tick stays at or below what the stale plans
	// actually paid per tick — the replan is worth it by construction.
	lastTick := asvc.Tick()
	freshExpected := 0.0
	for _, e := range lastTick.Executions {
		freshExpected += e.ExpectedCost
	}
	if freshExpected > stale*1.05 {
		t.Errorf("fresh plans' expected %.2f J/tick exceeds stale plans' realized %.2f J/tick", freshExpected, stale)
	}
}

// TestAdaptStressConcurrentSharedEstimator: 8 concurrent queries over
// the shifting corpus feed one shared estimator through an 8-worker
// tick pool — the -race CI surface for the adapt subsystem. Detector
// trips, targeted invalidation and cost feedback all fire while workers
// execute concurrently.
func TestAdaptStressConcurrentSharedEstimator(t *testing.T) {
	cfg := corpus.RegimeConfig{Seed: 31, ShiftStep: 60}
	svc := New(corpus.RegimeRegistry(cfg), WithWorkers(8))
	texts := []string{
		"r0 < 0.5 OR r1 < 0.5 OR r2 < 0.5 OR r3 < 0.5",
		"r3 < 0.5 AND r0 < 0.5",
		"r1 < 0.5 OR r3 < 0.5",
		"r2 < 0.5 AND r1 < 0.5",
		"MAX(r0,2) < 0.5 OR r3 < 0.5",
		"r0 < 0.5 AND r2 < 0.5",
		"(r0 < 0.5 AND r1 < 0.5) OR (r2 < 0.5 AND r3 < 0.5)",
		"MIN(r3,2) < 0.5 OR r0 < 0.5",
	}
	for i, text := range texts {
		if err := svc.Register(fmt.Sprintf("s%d", i), text); err != nil {
			t.Fatal(err)
		}
	}
	tickAll(t, svc, 180)
	m := svc.Metrics()
	if m.Executions != int64(180*len(texts)) {
		t.Errorf("executions = %d, want %d", m.Executions, 180*len(texts))
	}
	if m.PredicateDetectorTrips == 0 || m.ReplansForced == 0 {
		t.Errorf("shift produced no adaptive activity under concurrency: %+v", m)
	}
}

// adaptBenchFile is the machine-readable BENCH_adapt.json artifact: the
// realized post-shift J/tick of detector-driven replanning versus the
// stale cumulative baseline, plus the stationary no-trip guarantee.
type adaptBenchFile struct {
	Ticks     int   `json:"ticks"`
	ShiftTick int64 `json:"shift_tick"`
	// StaleJPerTick / AdaptiveJPerTick are realized post-shift costs per
	// tick of the cumulative per-query baseline (engine.Workload) and of
	// the windowed service; SavingPct their relative gap.
	StaleJPerTick    float64 `json:"stale_j_per_tick"`
	AdaptiveJPerTick float64 `json:"adaptive_j_per_tick"`
	SavingPct        float64 `json:"saving_pct"`
	PredicateTrips   int64   `json:"predicate_trips"`
	CostTrips        int64   `json:"cost_trips"`
	ReplansForced    int64   `json:"replans_forced"`
	// StationaryTrips must be 0: the detectors stay quiet without a
	// shift (the windowed service then spends exactly what the cumulative
	// baseline spends; see TestStationaryWindowedMatchesCumulative).
	StationaryTrips int64 `json:"stationary_trips"`
}

// TestWriteAdaptBenchJSON emits BENCH_adapt.json when
// PAOTR_BENCH_ADAPT_JSON names an output path (the CI drift-benchmark
// artifact). It is skipped otherwise.
func TestWriteAdaptBenchJSON(t *testing.T) {
	out := os.Getenv("PAOTR_BENCH_ADAPT_JSON")
	if out == "" {
		t.Skip("set PAOTR_BENCH_ADAPT_JSON=<path> to write the benchmark artifact")
	}
	cfg := corpus.RegimeConfig{Seed: 17, ShiftStep: 250}
	aShift, aEnd, _ := measureShift(t, cfg)
	post := float64(cfg.ShiftStep)

	stat := regimeService(t, corpus.RegimeConfig{Seed: 23}, WithWorkers(4))
	tickAll(t, stat, 300)
	sm := stat.Metrics()

	file := adaptBenchFile{
		Ticks:            2 * int(cfg.ShiftStep),
		ShiftTick:        cfg.ShiftStep,
		StaleJPerTick:    staleJPerTick(t, cfg),
		AdaptiveJPerTick: (aEnd.PaidCost - aShift.PaidCost) / post,
		PredicateTrips:   aEnd.PredicateDetectorTrips,
		CostTrips:        aEnd.CostDetectorTrips,
		ReplansForced:    aEnd.ReplansForced,
		StationaryTrips:  sm.PredicateDetectorTrips + sm.CostDetectorTrips,
	}
	if file.StaleJPerTick > 0 {
		file.SavingPct = 100 * (1 - file.AdaptiveJPerTick/file.StaleJPerTick)
	}
	if file.SavingPct < 15 {
		t.Errorf("adaptive saving %.1f%% post-shift, want >= 15%%", file.SavingPct)
	}
	if file.StationaryTrips != 0 {
		t.Errorf("stationary run tripped %d detectors", file.StationaryTrips)
	}
	data, err := json.MarshalIndent(file, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if dir := filepath.Dir(out); dir != "." {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			t.Fatal(err)
		}
	}
	if err := os.WriteFile(out, append(data, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
	t.Logf("wrote %s: adaptive %.2f vs stale %.2f J/tick post-shift (%.1f%% saving)",
		out, file.AdaptiveJPerTick, file.StaleJPerTick, file.SavingPct)
}
