// Command paotrload drives admission-controlled load against an
// in-process serving runtime: registration storms, churn floods, and
// sustained mixed-tier load over the wearables fleet. It reports a
// machine-readable JSON summary — admission decision latency, the
// decision census by tier, shed precision, and whether the realized
// p99 tick latency held the gold-tier SLO — to stdout and optionally
// to a file.
//
// Usage:
//
//	paotrload -scenario storm -queries 100000 -ticks 20 -shards 4
//	paotrload -scenario churn -queries 5000 -ticks 100
//	paotrload -scenario sustained -queries 10000 -ticks 200 -check
//
// Scenarios:
//
//   - storm: register every query up front (the thundering herd), then
//     tick. With -drill (default on) the middle wave of registrations
//     runs under a forced overload window, so the report measures shed
//     precision — the fraction of sheds that hit non-gold tiers — under
//     the exact conditions admission exists for.
//   - churn: register a base fleet, then each tick unregister a slice of
//     the oldest queries and register fresh ones, exercising the defer
//     queue and planner patching under continuous arrival/departure.
//   - sustained: register half the fleet up front and trickle the rest
//     in evenly across the run — the steady-state mixed-tier workload.
//
// The -mix flag sets the gold/silver/bronze percentages (default
// "10/30/60"); ids are tenant-prefixed ("t3/q17") so the per-tenant
// token buckets see -tenants distinct budget owners. -check exits
// nonzero when the run shed a gold query, shed precision fell below 1,
// or the gold p99 tick-latency SLO was violated — the CI storm step's
// pass/fail line.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"runtime"
	"strconv"
	"strings"
	"time"

	"paotr/internal/admit"
	"paotr/internal/obs"
	"paotr/internal/service"
	"paotr/internal/stream"
)

func main() {
	var (
		scenario = flag.String("scenario", "storm", "load scenario: storm, churn, or sustained")
		queries  = flag.Int("queries", 10000, "total queries to register across the run")
		ticks    = flag.Int("ticks", 20, "ticks to run after (storm) or across (churn, sustained) the registrations")
		shards   = flag.Int("shards", 1, "shard workers for the runtime under load (1 = unsharded)")
		seed     = flag.Uint64("seed", 1, "sensor simulation seed")
		mix      = flag.String("mix", "10/30/60", "gold/silver/bronze tier percentages of the registration mix")
		tenants  = flag.Int("tenants", 50, "distinct tenants (token-bucket budget owners) the ids are spread over")
		rate     = flag.Float64("admit-rate", 1e6, "per-tenant budget refill in planned J/tick (generous by default so the storm measures latency, not budget policy)")
		burst    = flag.Float64("admit-burst", 1e6, "per-tenant budget burst cap in planned J")
		window   = flag.Int("admit-window", 64, "admission controller SLO window in ticks")
		sloGold  = flag.Float64("slo-gold-ms", 0, "gold-tier p99 tick-latency objective in milliseconds (0 = admission default)")
		drill    = flag.Bool("drill", true, "force an overload window over the middle wave of a storm, measuring shed precision")
		check    = flag.Bool("check", false, "exit nonzero when a gold query was shed, shed precision < 1, or the gold p99 SLO was violated")
		report   = flag.String("report", "", "also write the JSON report to this path")
	)
	flag.Parse()
	cfg := loadConfig{
		Scenario: *scenario, Queries: *queries, Ticks: *ticks, Shards: *shards,
		Seed: *seed, Mix: *mix, Tenants: *tenants,
		Rate: *rate, Burst: *burst, Window: *window, SLOGoldMS: *sloGold, Drill: *drill,
	}
	rep, err := runScenario(cfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "paotrload: %v\n", err)
		os.Exit(2)
	}
	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		fmt.Fprintf(os.Stderr, "paotrload: %v\n", err)
		os.Exit(2)
	}
	data = append(data, '\n')
	os.Stdout.Write(data)
	if *report != "" {
		if err := os.WriteFile(*report, data, 0o644); err != nil {
			fmt.Fprintf(os.Stderr, "paotrload: %v\n", err)
			os.Exit(2)
		}
	}
	if *check && !rep.Passed() {
		fmt.Fprintf(os.Stderr, "paotrload: check failed: gold sheds=%d shed_precision=%.3f gold_slo_held=%v\n",
			rep.GoldSheds, rep.ShedPrecision, rep.GoldSLOHeld)
		os.Exit(1)
	}
}

// loadConfig parameterizes one scenario run.
type loadConfig struct {
	// Scenario is "storm", "churn" or "sustained"; Queries the total
	// registrations; Ticks the run length in ticks.
	Scenario string
	Queries  int
	Ticks    int
	// Shards builds the sharded runtime when > 1; Seed seeds the
	// wearables simulation.
	Shards int
	Seed   uint64
	// Mix is "gold/silver/bronze" percentages; Tenants the number of
	// distinct budget owners ids are spread over.
	Mix     string
	Tenants int
	// Rate/Burst/Window tune the admission controller (0 = defaults);
	// SLOGoldMS the gold p99 tick-latency objective in milliseconds.
	Rate, Burst float64
	Window      int
	SLOGoldMS   float64
	// Drill forces an overload window over the middle wave of a storm.
	Drill bool
}

// loadReport is the machine-readable outcome of one scenario run.
type loadReport struct {
	Scenario   string `json:"scenario"`
	Queries    int    `json:"queries"`
	Ticks      int    `json:"ticks"`
	Shards     int    `json:"shards"`
	GoMaxProcs int    `json:"gomaxprocs"`
	// Registered counts queries resident at the end of the run (admitted
	// and not churned out); Decisions is the tier -> action census.
	Registered int                         `json:"registered"`
	Decisions  map[string]map[string]int64 `json:"decisions"`
	// DecisionP50Ns / DecisionP99Ns are quantiles of the admission
	// decision latency: one RegisterTier round including the quote
	// (wall clock — reported, never gated).
	DecisionP50Ns float64 `json:"decision_p50_ns"`
	DecisionP99Ns float64 `json:"decision_p99_ns"`
	// TickP99Ns is the realized p99 total-tick latency over the whole
	// run; RecentP99Ns the last completed SLO window's p99 — the
	// controller's own overload signal. SLOGoldNs is the gold objective
	// and GoldSLOHeld whether the run held it, judged on the windowed
	// p99 when a window completed (the one-time cold-start tick after a
	// storm ages out of it, exactly as it does for the shedding
	// verdict) and on the whole-run p99 otherwise.
	TickP99Ns   float64 `json:"tick_p99_ns"`
	RecentP99Ns float64 `json:"recent_p99_ns"`
	SLOGoldNs   float64 `json:"slo_gold_ns"`
	GoldSLOHeld bool    `json:"gold_slo_held"`
	// GoldSheds counts gold-tier sheds (must stay 0: shedding exists to
	// protect gold); ShedPrecision the fraction of sheds that hit
	// non-gold tiers (1 when nothing was shed).
	GoldSheds     int64   `json:"gold_sheds"`
	ShedPrecision float64 `json:"shed_precision"`
	// AdmittedQuoteJPerTick is the summed quoted marginal cost the run
	// admitted — deterministic for a seeded corpus.
	AdmittedQuoteJPerTick float64 `json:"admitted_quote_j_per_tick"`
	// DeferredPending is the defer-queue depth at the end of the run;
	// ElapsedNs the wall clock of the whole scenario.
	DeferredPending int   `json:"deferred_pending"`
	ElapsedNs       int64 `json:"elapsed_ns"`
}

// Passed reports the -check verdict: no gold query shed, full shed
// precision, and the gold p99 tick-latency SLO held.
func (r *loadReport) Passed() bool {
	return r.GoldSheds == 0 && r.ShedPrecision >= 1 && r.GoldSLOHeld
}

// templates are the distinct query shapes of the load mix. Twenty
// shapes over the five wearables streams: a registration storm interns
// most arrivals as twins (the cheap quote path) while the distinct
// shapes are priced against the joint planner's resident state.
var templates = []string{
	"AVG(heart-rate,5) > 100",
	"AVG(heart-rate,5) > 100 AND spo2 < 95",
	"heart-rate > 110 OR spo2 < 92",
	"AVG(spo2,4) < 93",
	"accelerometer > 15",
	"AVG(accelerometer,6) > 12 AND heart-rate > 90",
	"gps-speed > 1.5",
	"AVG(gps-speed,3) > 1.2 OR accelerometer > 18",
	"temperature > 38",
	"AVG(temperature,6) > 37.5 AND heart-rate > 85",
	"heart-rate > 120",
	"AVG(heart-rate,8) > 95 AND AVG(spo2,4) < 94",
	"spo2 < 90",
	"AVG(accelerometer,4) > 14 OR gps-speed > 2",
	"temperature > 37 AND AVG(heart-rate,5) > 90",
	"AVG(gps-speed,5) > 1 AND accelerometer > 10",
	"heart-rate > 100 OR temperature > 38.5",
	"AVG(spo2,6) < 95 AND temperature > 37.2",
	"gps-speed > 1.8 OR heart-rate > 115",
	"AVG(temperature,4) > 38 OR spo2 < 91",
}

// parseMix parses a "gold/silver/bronze" percentage triple.
func parseMix(s string) ([admit.NumTiers]int, error) {
	var mix [admit.NumTiers]int
	parts := strings.Split(s, "/")
	if len(parts) != int(admit.NumTiers) {
		return mix, fmt.Errorf("mix %q: want gold/silver/bronze percentages", s)
	}
	sum := 0
	for i, p := range parts {
		v, err := strconv.Atoi(strings.TrimSpace(p))
		if err != nil || v < 0 {
			return mix, fmt.Errorf("mix %q: bad percentage %q", s, p)
		}
		mix[i] = v
		sum += v
	}
	if sum != 100 {
		return mix, fmt.Errorf("mix %q: percentages sum to %d, want 100", s, sum)
	}
	return mix, nil
}

// tierFor deals tiers deterministically by registration index according
// to the mix percentages.
func tierFor(i int, mix [admit.NumTiers]int) admit.Tier {
	slot := i % 100
	for t, pct := range mix {
		if slot < pct {
			return admit.Tier(t)
		}
		slot -= pct
	}
	return admit.TierBronze
}

// loadRun is one scenario's mutable state: the gate under load and the
// decision-latency histogram.
type loadRun struct {
	gate *service.AdmissionGate
	mix  [admit.NumTiers]int
	lat  obs.Histogram
	next int
}

// registerNext performs the next registration in the deterministic id
// sequence, timing the admission decision. Defer and shed verdicts are
// the scenario's expected weather, not errors.
func (lr *loadRun) registerNext(cfg loadConfig) error {
	i := lr.next
	lr.next++
	id := fmt.Sprintf("t%d/q%d", i%cfg.Tenants, i)
	text := templates[i%len(templates)]
	tier := tierFor(i, lr.mix)
	start := time.Now()
	err := lr.gate.RegisterTier(id, text, tier)
	lr.lat.Observe(time.Since(start))
	if err != nil {
		var adm *service.AdmissionError
		if errors.As(err, &adm) {
			return nil
		}
		return err
	}
	return nil
}

// runScenario builds the gated runtime and drives one scenario.
func runScenario(cfg loadConfig) (*loadReport, error) {
	mix, err := parseMix(cfg.Mix)
	if err != nil {
		return nil, err
	}
	if cfg.Queries < 1 || cfg.Ticks < 1 || cfg.Tenants < 1 {
		return nil, fmt.Errorf("queries, ticks and tenants must be positive")
	}
	reg := stream.Wearables(cfg.Seed)
	var rt service.Runtime
	if cfg.Shards > 1 {
		rt = service.NewSharded(reg, cfg.Shards)
	} else {
		rt = service.New(reg)
	}
	ac := admit.DefaultConfig()
	if cfg.Rate > 0 {
		ac.RefillJPerTick = cfg.Rate
	}
	if cfg.Burst > 0 {
		ac.BurstJ = cfg.Burst
	}
	if cfg.Window > 0 {
		ac.WindowTicks = cfg.Window
	}
	if cfg.SLOGoldMS > 0 {
		ac.SLOTickP99[admit.TierGold] = time.Duration(cfg.SLOGoldMS * float64(time.Millisecond))
	}
	lr := &loadRun{gate: service.NewAdmissionGate(rt, admit.NewController(ac)), mix: mix}

	start := time.Now()
	switch cfg.Scenario {
	case "storm":
		err = runStorm(lr, cfg)
	case "churn":
		err = runChurn(lr, cfg)
	case "sustained":
		err = runSustained(lr, cfg)
	default:
		err = fmt.Errorf("unknown scenario %q (want storm, churn, or sustained)", cfg.Scenario)
	}
	if err != nil {
		return nil, err
	}
	elapsed := time.Since(start)

	m := lr.gate.Metrics()
	a := m.Admission
	lat := lr.lat.Snapshot()
	rep := &loadReport{
		Scenario: cfg.Scenario, Queries: cfg.Queries, Ticks: cfg.Ticks,
		Shards: cfg.Shards, GoMaxProcs: runtime.GOMAXPROCS(0),
		Registered:            m.Queries,
		Decisions:             a.Decisions,
		DecisionP50Ns:         lat.Quantile(0.50),
		DecisionP99Ns:         lat.Quantile(0.99),
		TickP99Ns:             m.TickLatency["total"].Quantile(0.99),
		RecentP99Ns:           a.RecentP99Ns,
		SLOGoldNs:             a.SLOGoldNs,
		GoldSheds:             a.Decisions[admit.TierGold.String()][admit.Shed.String()],
		ShedPrecision:         a.ShedPrecision,
		AdmittedQuoteJPerTick: a.AdmittedQuoteJ,
		DeferredPending:       a.DeferredPending,
		ElapsedNs:             elapsed.Nanoseconds(),
	}
	conformance := rep.RecentP99Ns
	if conformance == 0 {
		conformance = rep.TickP99Ns
	}
	rep.GoldSLOHeld = conformance <= rep.SLOGoldNs
	return rep, nil
}

// runStorm registers everything up front, then ticks. With Drill the
// middle 20% of registrations run under a forced overload window, so
// bronze sheds and silver defers while gold keeps landing — the shed-
// precision measurement.
func runStorm(lr *loadRun, cfg loadConfig) error {
	drillFrom, drillTo := cfg.Queries*2/5, cfg.Queries*3/5
	for i := 0; i < cfg.Queries; i++ {
		if cfg.Drill {
			lr.gate.Controller().SetOverloaded(i >= drillFrom && i < drillTo)
		}
		if err := lr.registerNext(cfg); err != nil {
			return err
		}
	}
	lr.gate.Controller().SetOverloaded(false)
	lr.gate.Run(cfg.Ticks)
	return nil
}

// runChurn registers a base fleet, then each tick unregisters the
// oldest slice and registers fresh queries — continuous arrival and
// departure against the planner's patch path.
func runChurn(lr *loadRun, cfg loadConfig) error {
	base := cfg.Queries / 2
	if base < 1 {
		base = 1
	}
	for i := 0; i < base; i++ {
		if err := lr.registerNext(cfg); err != nil {
			return err
		}
	}
	perTick := (cfg.Queries - base) / cfg.Ticks
	if perTick < 1 {
		perTick = 1
	}
	oldest := 0
	for t := 0; t < cfg.Ticks && lr.next < cfg.Queries; t++ {
		for i := 0; i < perTick && oldest < lr.next; i++ {
			id := fmt.Sprintf("t%d/q%d", oldest%cfg.Tenants, oldest)
			// The oldest id may itself still be parked; Unregister covers
			// both. A miss means it was shed — nothing to remove.
			_ = lr.gate.Unregister(id)
			oldest++
		}
		for i := 0; i < perTick && lr.next < cfg.Queries; i++ {
			if err := lr.registerNext(cfg); err != nil {
				return err
			}
		}
		lr.gate.Tick()
	}
	return nil
}

// runSustained registers half the fleet up front and trickles the rest
// in evenly across the ticks — steady-state mixed-tier load.
func runSustained(lr *loadRun, cfg loadConfig) error {
	base := cfg.Queries / 2
	if base < 1 {
		base = 1
	}
	for i := 0; i < base; i++ {
		if err := lr.registerNext(cfg); err != nil {
			return err
		}
	}
	perTick := (cfg.Queries - base) / cfg.Ticks
	for t := 0; t < cfg.Ticks; t++ {
		for i := 0; i < perTick && lr.next < cfg.Queries; i++ {
			if err := lr.registerNext(cfg); err != nil {
				return err
			}
		}
		lr.gate.Tick()
	}
	return nil
}
