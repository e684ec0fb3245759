package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"runtime"
	"testing"
)

// admitBenchRow is one scenario's admission cost profile.
type admitBenchRow struct {
	Name string `json:"name"`
	// AdmittedQuoteJPerTick is the summed marginal planned energy the
	// run admitted — deterministic for the seeded corpus and gated by
	// benchgate (a drift means the admission pricing changed).
	AdmittedQuoteJPerTick float64 `json:"admitted_quote_j_per_tick"`
	// DecisionP50Ns / DecisionP99Ns are admission decision latency
	// quantiles (quote + verdict + charge). Wall clock: reported for the
	// perf trajectory, never gated.
	DecisionP50Ns float64 `json:"decision_p50_ns"`
	DecisionP99Ns float64 `json:"decision_p99_ns"`
	// ShedPrecision is the fraction of sheds that hit non-gold tiers
	// (acceptance bound: exactly 1).
	ShedPrecision float64 `json:"shed_precision"`
}

// admitBenchFile is BENCH_admit.json: admission decision latency and
// shed precision over a drilled storm and a steady sustained run.
type admitBenchFile struct {
	GoMaxProcs int             `json:"gomaxprocs"`
	Scenarios  []admitBenchRow `json:"scenarios"`
}

// measureAdmitScenario runs one scenario and distills its admission row,
// carrying the acceptance assertions: sheds never touch gold and every
// run admits a positive deterministic quote sum.
func measureAdmitScenario(t *testing.T, cfg loadConfig) admitBenchRow {
	t.Helper()
	rep, err := runScenario(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if rep.GoldSheds != 0 || rep.ShedPrecision < 1 {
		t.Errorf("%s: gold_sheds=%d shed_precision=%.3f, want 0 sheds and full precision",
			cfg.Scenario, rep.GoldSheds, rep.ShedPrecision)
	}
	if rep.AdmittedQuoteJPerTick <= 0 {
		t.Errorf("%s: admitted quote sum %v, want > 0 (benchgate rejects non-positive gated metrics)",
			cfg.Scenario, rep.AdmittedQuoteJPerTick)
	}
	return admitBenchRow{
		Name:                  cfg.Scenario,
		AdmittedQuoteJPerTick: rep.AdmittedQuoteJPerTick,
		DecisionP50Ns:         rep.DecisionP50Ns,
		DecisionP99Ns:         rep.DecisionP99Ns,
		ShedPrecision:         rep.ShedPrecision,
	}
}

// TestWriteAdmitBenchJSON emits BENCH_admit.json when
// PAOTR_BENCH_ADMIT_JSON names an output path (the CI admission bench
// artifact, diffed by benchgate against ci/baselines; skipped
// otherwise). The gated metric is the admitted quote sum per scenario —
// the marginal-cost pricing's deterministic output — so a planner or
// pricing change that silently inflates admitted load fails the gate.
func TestWriteAdmitBenchJSON(t *testing.T) {
	out := os.Getenv("PAOTR_BENCH_ADMIT_JSON")
	if out == "" {
		t.Skip("set PAOTR_BENCH_ADMIT_JSON=<path> to write the benchmark artifact")
	}
	storm := measureAdmitScenario(t, loadConfig{
		Scenario: "storm", Queries: 2000, Ticks: 10, Shards: 2,
		Seed: 1, Mix: "10/30/60", Tenants: 50,
		Rate: 1e6, Burst: 1e6, Window: 64, SLOGoldMS: 60000, Drill: true,
	})
	sustained := measureAdmitScenario(t, loadConfig{
		Scenario: "sustained", Queries: 1000, Ticks: 20, Shards: 1,
		Seed: 1, Mix: "10/30/60", Tenants: 20,
		Rate: 1e6, Burst: 1e6, Window: 64, SLOGoldMS: 60000,
	})

	file := admitBenchFile{
		GoMaxProcs: runtime.GOMAXPROCS(0),
		Scenarios:  []admitBenchRow{storm, sustained},
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
	t.Logf("wrote %s: storm %.3f J/tick admitted (p50 %.0f ns, p99 %.0f ns), sustained %.3f J/tick admitted",
		out, storm.AdmittedQuoteJPerTick, storm.DecisionP50Ns, storm.DecisionP99Ns,
		sustained.AdmittedQuoteJPerTick)
}
