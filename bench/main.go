// Command bench is the repository's benchmark: it drives paotrserve's
// production path (HTTP, admission, registration, ticks, results) with
// seeded workloads, checks every verdict it samples against an
// independent reference evaluator, and reports end-to-end metrics from
// an untraced run and per-layer metrics from a traced one. README.md
// describes the workloads and metrics.
//
// Usage, from the repository root (bench/run.sh builds the binaries):
//
//	bench --workload twins-20k-4sh --seed 7 --seconds 18 --trace 0
//	bench -seed 7                    # every workload, both runs
//	bench compare A.json[,A2.json...] B.json[,B2.json...]
//	bench compare -selftest
//
// A single run prints `workload metric value unit samples` lines and,
// last, one JSON object with the keys correct, attempted, failed and
// metrics, and it exits 1 when a check failed; its result is also
// written to -out. --trace 0 reports the end-to-end metrics; --trace 1
// runs the workload end to end once and then replays it in-process with
// every tick traced, and reports the per-layer metrics, writing the
// spans to -out/<workload>.trace.json.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"
)

func main() {
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		os.Exit(compareMain(os.Args[2:], os.Stdout))
	}
	fs := flag.NewFlagSet("bench", flag.ExitOnError)
	var (
		workload = fs.String("workload", "", "run only this workload (default: every workload, untraced and traced)")
		seed     = fs.Uint64("seed", 1, "seed of the generated inputs")
		seconds  = fs.Float64("seconds", 18, "nominal length of the measured ticks, split over the repetitions")
		trace    = fs.Int("trace", 0, "1 for the traced run and per-layer metrics, 0 for end-to-end metrics")
		server   = fs.String("server", ".bench_build/paotrserve", "paotrserve binary to drive")
		outDir   = fs.String("out", "bench-out", "directory for result and trace files")
	)
	_ = fs.Parse(os.Args[1:]) // ExitOnError
	if *trace != 0 && *trace != 1 {
		fmt.Fprintln(os.Stderr, "bench: -trace must be 0 or 1")
		os.Exit(2)
	}
	cfg := runConfig{seed: *seed, seconds: *seconds, server: *server, out: *outDir}
	if *workload == "" {
		os.Exit(runAll(cfg))
	}
	w, err := workloadByName(*workload)
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %v\n", err)
		os.Exit(2)
	}
	// A run must end within 180 s; the deadline leaves room to report.
	ctx, cancel := context.WithTimeout(context.Background(), 170*time.Second)
	defer cancel()
	res, err := runOne(ctx, cfg, w, *trace == 1)
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %s: %v\n", w.Name, err)
		os.Exit(1)
	}
	printLines(os.Stdout, res)
	path := filepath.Join(*outDir, fmt.Sprintf("%s.%s.seed%d.json", w.Name, mode(res.Trace), *seed))
	if err := writeResults(path, []*Result{res}); err != nil {
		fmt.Fprintf(os.Stderr, "bench: %v\n", err)
		os.Exit(1)
	}
	if err := printSummary(os.Stdout, res); err != nil {
		fmt.Fprintf(os.Stderr, "bench: %v\n", err)
		os.Exit(1)
	}
	if !res.Correct {
		os.Exit(1)
	}
}

type runConfig struct {
	seed    uint64
	seconds float64
	server  string
	out     string
}

// reps is how many times an end-to-end run sets up a fresh server and
// measures it, splitting the measured ticks evenly: set-up time is the
// median of several set-ups, and timings are sampled across several
// server processes and a longer stretch of time.
const reps = 3

func mode(trace bool) string {
	if trace {
		return "traced"
	}
	return "e2e"
}

// runAll runs every workload untraced and traced, prints every metric,
// writes -out/results.json, and returns the exit code: 1 when any run
// saw a failure or a wrong verdict.
func runAll(cfg runConfig) int {
	ctx := context.Background()
	var all []*Result
	code := 0
	for _, w := range workloads {
		for _, trace := range []bool{false, true} {
			res, err := runOne(ctx, cfg, w, trace)
			if err != nil {
				fmt.Fprintf(os.Stderr, "bench: %s: %v\n", w.Name, err)
				return 1
			}
			printLines(os.Stdout, res)
			all = append(all, res)
			if !res.Correct {
				code = 1
			}
		}
	}
	if err := writeResults(filepath.Join(cfg.out, "results.json"), all); err != nil {
		fmt.Fprintf(os.Stderr, "bench: %v\n", err)
		return 1
	}
	return code
}

// runOne runs one workload end to end, or traced.
func runOne(ctx context.Context, cfg runConfig, w *Workload, trace bool) (*Result, error) {
	p := NewPlan(w, cfg.seed, cfg.seconds/reps)
	res := &Result{Workload: w.Name, Trace: trace, Seed: cfg.seed, Seconds: cfg.seconds}
	if !trace {
		e, err := runE2E(ctx, cfg.server, p, reps)
		if err != nil {
			return nil, err
		}
		e2eMetrics(res, e)
		tally(res, e.verify, &e.ops)
		return res, nil
	}
	e, err := runE2E(ctx, cfg.server, p, 1)
	if err != nil {
		return nil, err
	}
	t, err := runTraced(ctx, p)
	if err != nil {
		return nil, err
	}
	if err := t.rec.write(filepath.Join(cfg.out, w.Name+".trace.json")); err != nil {
		return nil, err
	}
	layerMetrics(res, e, t)
	tally(res, e.verify, &e.ops)
	tally(res, t.verify, nil)
	for _, d := range parity(w, e, t) {
		res.Failed++
		res.Correct = false
		res.Notes = append(res.Notes, "parity: "+d)
	}
	return res, nil
}

// tally adds a pass's operations, checks, failures and mismatches to
// the result.
func tally(res *Result, v *verifier, ops *opCount) {
	res.Attempted += v.checked
	res.Failed += v.mismatches
	res.Notes = append(res.Notes, v.notes...)
	if ops != nil {
		res.Attempted += ops.attempted.Load()
		res.Failed += ops.failed.Load()
		res.Notes = append(res.Notes, ops.notes...)
	}
	res.Correct = res.Failed == 0
}

// e2eMetrics derives the end-to-end metrics of an untraced run. Each is
// computed per repetition, and the run reports the median over the
// repetitions: a spell in which the machine slowed one repetition does
// not set the run's percentiles. Sample counts are totals.
func e2eMetrics(res *Result, e *e2eRun) {
	set := func(name, unit string, samples func(*rep) int, value func(*rep) float64) {
		var vs []float64
		n := 0
		for _, r := range e.reps {
			vs = append(vs, value(r))
			n += samples(r)
		}
		res.set(name, median(vs), unit, n)
	}
	one := func(*rep) int { return 1 }
	ticks := func(r *rep) int { return len(r.tickMs) }
	registers := func(r *rep) int { return len(r.registerUs) }
	results := func(r *rep) int { return len(r.resultsUs) }
	scrapes := func(r *rep) int { return len(r.scrapeMs) }
	for _, r := range e.reps {
		res.MeasuredS += r.measuredS
	}
	set("setup_s", "s", one, func(r *rep) float64 { return r.setupS })
	set("verdicts_per_s", "1/s", ticks, func(r *rep) float64 { return float64(r.verdicts) / (sum(r.tickMs) / 1000) })
	set("j_per_tick", "J", ticks, func(r *rep) float64 { return (r.after.PaidCost - r.before.PaidCost) / float64(len(r.tickMs)) })
	set("tick_p50_ms", "ms", ticks, func(r *rep) float64 { return quantile(r.tickMs, 0.5) })
	set("tick_p90_ms", "ms", ticks, func(r *rep) float64 { return quantile(r.tickMs, 0.9) })
	set("register_p50_us", "us", registers, func(r *rep) float64 { return quantile(r.registerUs, 0.5) })
	set("register_p90_us", "us", registers, func(r *rep) float64 { return quantile(r.registerUs, 0.9) })
	set("results_p50_us", "us", results, func(r *rep) float64 { return quantile(r.resultsUs, 0.5) })
	set("results_p90_us", "us", results, func(r *rep) float64 { return quantile(r.resultsUs, 0.9) })
	set("scrape_p50_ms", "ms", scrapes, func(r *rep) float64 { return quantile(r.scrapeMs, 0.5) })
	set("scrape_p90_ms", "ms", scrapes, func(r *rep) float64 { return quantile(r.scrapeMs, 0.9) })
	set("peak_rss_mb", "MB", one, func(r *rep) float64 { return r.peakRSSMB })
}

// layerMetrics derives the per-layer metrics from a traced run and the
// untraced run of the same inputs that precedes it.
func layerMetrics(res *Result, run *e2eRun, t *tracedRun) {
	e := run.reps[0]
	res.MeasuredS = e.measuredS
	n := len(t.tickMs)
	ticks := float64(n)
	c := countersOf(&t.after).sub(countersOf(&t.before))
	perTick := func(v int64) float64 { return float64(v) / ticks }
	var plan, acquire, execute, fanout, unattributed []float64
	var dueQ, dueC int64
	for _, tr := range t.shardTicks {
		plan = append(plan, float64(tr.PlanNs)/1e6)
		acquire = append(acquire, float64(tr.AcquireNs)/1e6)
		execute = append(execute, float64(tr.ExecuteNs)/1e6)
		fanout = append(fanout, float64(tr.FanOutNs)/1e6)
		unattributed = append(unattributed, float64(tr.TotalNs-tr.PlanNs-tr.AcquireNs-tr.ExecuteNs-tr.FanOutNs)/1e6)
		dueQ += int64(tr.DueQueries)
		dueC += int64(tr.DueClasses)
	}
	st := len(t.shardTicks)
	tickP50, encodeP50 := quantile(t.tickMs, 0.5), quantile(t.encodeMs, 0.5)

	res.set("http.tick_body_mb", mean(e.tickBytes)/1e6, "MB", len(e.tickBytes))
	res.set("http.encode_ms_p50", encodeP50, "ms", n)
	res.set("http.residual_ms_p50", quantile(e.tickMs, 0.5)-tickP50-encodeP50, "ms", len(e.tickMs))
	res.set("http.scrape_residual_ms", quantile(e.scrapeMs, 0.5)-quantile(t.metricsMs, 0.5), "ms", len(e.scrapeMs))

	res.set("admit.register_us_p50", quantile(t.registerUs, 0.5), "us", len(t.registerUs))
	res.set("admit.register_us_p99", quantile(t.registerUs, 0.99), "us", len(t.registerUs))
	res.set("fleet.quote_us_p50", quantile(t.quoteUs, 0.5), "us", len(t.quoteUs))
	res.set("fleet.quote_us_p99", quantile(t.quoteUs, 0.99), "us", len(t.quoteUs))

	res.set("service.tick_ms_p50", quantile(t.svcMs, 0.5), "ms", n)
	res.set("service.tick_ms_p90", quantile(t.svcMs, 0.9), "ms", n)
	res.set("service.allocs_per_tick", mean(t.allocs), "count", n)
	res.set("service.fanout_ms_p50", quantile(fanout, 0.5), "ms", st)
	res.set("service.unattributed_ms_p50", quantile(unattributed, 0.5), "ms", st)
	res.set("service.due_queries_per_tick", perTick(dueQ), "count", n)
	res.set("service.due_classes_per_tick", perTick(dueC), "count", n)
	res.set("service.shared_execs_per_tick", perTick(c.Shared), "count", n)
	res.set("service.results_us_p50", quantile(t.resultsUs, 0.5), "us", len(t.resultsUs))
	res.set("service.results_us_p99", quantile(t.resultsUs, 0.99), "us", len(t.resultsUs))
	res.set("service.metrics_ms_p50", quantile(t.metricsMs, 0.5), "ms", len(t.metricsMs))

	res.set("coord.overhead_ms_p50", quantile(t.coordMs, 0.5), "ms", len(t.coordMs))
	res.set("coord.shard_skew_ms_p50", quantile(t.skewMs, 0.5), "ms", len(t.skewMs))

	res.set("fleet.plan_ms_p50", quantile(plan, 0.5), "ms", st)
	res.set("fleet.plan_ms_p90", quantile(plan, 0.9), "ms", st)
	res.set("fleet.replan_ratio", 1-ratio(float64(c.Reuses), float64(c.Plans)), "ratio", n)
	res.set("fleet.patched_per_tick", perTick(c.Patched), "count", n)

	res.set("engine.execute_ms_p50", quantile(execute, 0.5), "ms", st)
	res.set("engine.predicates_per_tick", perTick(c.Predicates), "count", n)
	res.set("engine.plan_cache_hit_rate", ratio(float64(c.PlanHits), float64(c.Executions)), "ratio", n)

	res.set("acq.acquire_ms_p50", quantile(acquire, 0.5), "ms", st)
	res.set("acq.items_transferred_per_tick", perTick(c.Transferred), "count", n)
	res.set("acq.cache_hit_rate", 1-ratio(float64(c.Transferred), float64(c.Requested)), "ratio", n)
	res.set("acq.dup_pulls_avoided_per_tick", perTick(c.DupAvoided), "count", n)
	res.set("acq.relay_hits_per_tick", perTick(c.RelayHits), "count", n)
	res.set("acq.cross_shard_dup_transfers_per_tick", perTick(c.CrossDup), "count", n)

	res.set("adapt.trips_per_tick", perTick(c.Trips), "count", n)
	res.set("adapt.replans_forced_per_tick", perTick(c.Forced), "count", n)

	res.set("shard.sharing_lost_pct", t.after.SharingLostPct, "%", 1)
	res.set("shard.repartitions", float64(t.after.Repartitions), "count", 1)

	res.set("loadgen.late_ms_p99", quantile(e.lateMs, 0.99), "ms", len(e.lateMs))
	res.set("loadgen.cpu_s", run.cpuS, "s", 1)
	res.set("loadgen.verified_execs", float64(run.verify.checked+t.verify.checked), "count", 1)
}

func sum(xs []float64) float64 {
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// printLines prints one `workload metric value unit samples` line per
// metric, sorted by name.
func printLines(w io.Writer, res *Result) {
	names := make([]string, 0, len(res.Metrics))
	for name := range res.Metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		m := res.Metrics[name]
		fmt.Fprintf(w, "%s %s %s %s %d\n", res.Workload, name, formatValue(m.Value), m.Unit, m.Samples)
	}
	fmt.Fprintf(w, "%s error_rate %s ratio %d\n", res.Workload, formatValue(ratio(float64(res.Failed), float64(res.Attempted))), res.Attempted)
	for _, n := range res.Notes {
		fmt.Fprintf(w, "%s note %s\n", res.Workload, n)
	}
}

func formatValue(v float64) string {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return "0"
	}
	return fmt.Sprintf("%.6g", v)
}

// printSummary prints the one-line JSON result that ends a single run.
func printSummary(w io.Writer, res *Result) error {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := map[string]value{}
	for name, m := range res.Metrics {
		metrics[name] = value{m.Value, m.Unit}
	}
	b, err := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int64            `json:"attempted"`
		Failed    int64            `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{res.Correct, max(res.Attempted, 1), res.Failed, metrics})
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", b)
	return err
}

// resultsFile is the JSON layout of -out files, the input of compare.
type resultsFile struct {
	NumCPU     int       `json:"num_cpu"`
	GoMaxProcs int       `json:"gomaxprocs"`
	Runs       []*Result `json:"runs"`
}

func writeResults(path string, runs []*Result) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	b, err := json.MarshalIndent(resultsFile{NumCPU: runtime.NumCPU(), GoMaxProcs: runtime.GOMAXPROCS(0), Runs: runs}, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
