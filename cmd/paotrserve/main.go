// Command paotrserve runs the multi-query scheduling service as an
// HTTP/JSON server: clients register continuous queries over the shared
// sensor streams, advance time in ticks, and read per-query results and
// fleet-wide metrics. All registered queries share one acquisition cache,
// so an item pulled for one tenant's query is free for every other query
// that needs it — the multi-query payoff of the paper's shared-stream
// model.
//
// Usage:
//
//	paotrserve -addr :8080
//	paotrserve -demo -steps 300        # run the multi-tenant demo and exit
//
// Endpoints:
//
//	POST   /queries   {"id":"q1","query":"AVG(heart-rate,5) > 100","every":1,"executor":"adaptive"}
//	GET    /queries
//	DELETE /queries/{id}
//	POST   /tick      {"steps":10}
//	GET    /results/{id}?n=20
//	GET    /metrics
//
// Available streams: heart-rate, spo2, accelerometer, gps-speed,
// temperature (BLE cost model; accelerometer uses WiFi).
//
// The per-query "executor" field (or the -executor flag, for the fleet
// default) selects the execution strategy: "linear" runs the planner's
// fixed schedule, "adaptive" walks an optimal decision tree when the
// query is within the 12-leaf DP bound and the modelled gap clears
// -adaptive-gap (falling back to linear otherwise).
//
// Same-shape queries are interned into equivalence classes: each tick
// one leader per class evaluates the shared plan and its verdict fans
// out to every subscriber at zero cost, so a fleet of N tenants over S
// distinct alert templates pays for S evaluations, not N. /metrics
// reports the class census (distinct_shapes, shape_subscribers) and
// shared_executions.
//
// Leaf probabilities and per-item costs are learned online over a
// sliding window (-window) with Page-Hinkley change detectors
// (-ph-delta, -ph-lambda) that force targeted replans on regime shifts.
// /metrics reports estimator state (detector trips, forced replans, CI
// width, learned per-stream costs). The -scenario flag swaps the sensor
// fleet:
// "wearables" (default) or "drift", a regime-shifting synthetic corpus
// whose probabilities and costs flip at -shift-tick (for drift e2e
// testing; streams r0..r3).
//
// The -shards flag scales the service horizontally: queries are placed
// onto N shard workers by stream affinity (see internal/shard), each
// worker owns its own acquisition cache, fleet planner and estimator,
// and ticks run concurrently across shards. /metrics then adds
// per-shard summaries, the modelled sharing lost to partitioning and
// the realized cross-shard duplicate traffic; execution results carry
// the shard that ran them. -repartition n enables live re-partitioning:
// after at least n ticks, a tick that observed drift-detector trips
// re-runs the partitioner and moves queries (their learned estimator
// evidence migrates along). -shards 1 (the default) is byte-identical
// to the unsharded service.
//
// The -relay-frac flag (with -shards > 1) enables the fleet-global L2
// item relay: an item one shard already purchased is transferred to
// other shards at that fraction of its acquisition cost instead of
// re-acquired at stream cost, recovering most of the sharing lost to
// partitioning. /metrics then adds relay_hits, relay_transfer_spend,
// relay_saved_spend and sharing_lost_pct_relay (the residual modelled
// loss after relay discounts). 0 (the default) disables the relay.
//
// -worker turns the process into a shard worker: it serves the
// coordinator protocol under /worker/ instead of the public API
// (-shard-index stamps its executions). -join "url1,url2,..." turns the
// process into a coordinator over those already-running workers — the
// public API is served locally, queries are placed across the workers by
// stream affinity, and relay state syncs at tick boundaries. A restarted
// coordinator adopts the standing queries its workers still hold.
//
// The -admit flag (default on) gates registrations behind admission
// control: every POST /queries is priced at its marginal joint cost (a
// read-only quote against the joint planner's resident state), charged
// against a per-tenant token-bucket budget (-admit-rate J/tick refill,
// -admit-burst J cap; the tenant is the id prefix before the first '/'),
// and tiered by the request's "tier" field (gold, silver, or bronze —
// the default). Under SLO burn (the last -admit-window ticks' p99
// total-tick latency above -admit-slo-gold-ms) bronze registrations are
// shed and silver deferred while gold still admits; shed and deferred
// registrations get 429 with
// a Retry-After hint and the quoted cost in the body, and deferred ones
// are retried automatically at tick boundaries until budgets refill.
// /metrics reports the backpressure state under "admission";
// /metrics.prom exports the paotr_admit_* families; every verdict lands
// in the event journal (admit/defer/shed). -admit=false serves the
// ungated runtime, byte-identical to the pre-admission service.
//
// The -pprof flag exposes net/http/pprof under /debug/pprof/, for
// CPU/heap profiling of a live fleet. /metrics reports joint planning
// health alongside: plan_ns (cumulative wall time spent in the joint
// planner) and plan_incremental (plans that kept some shape classes'
// cached schedules and re-placed only the rest: registered, stale or
// drifted classes). Drift past -replan-threshold re-places only the
// drifted classes: a class is re-placed once its drift since it was last
// placed passes the threshold, or when its detector trips.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"net/http"
	"net/http/pprof"
	"os"
	"strconv"
	"strings"
	"time"

	"paotr/internal/acquisition"
	"paotr/internal/adapt"
	"paotr/internal/admit"
	"paotr/internal/corpus"
	"paotr/internal/engine"
	"paotr/internal/service"
	"paotr/internal/stream"
)

func main() {
	var (
		addr    = flag.String("addr", ":8080", "listen address")
		seed    = flag.Uint64("seed", 1, "sensor simulation seed")
		workers = flag.Int("workers", 0, "tick worker-pool size (0 = GOMAXPROCS)")
		demo    = flag.Bool("demo", false, "run the multi-tenant demo scenario and exit")
		steps   = flag.Int("steps", 300, "ticks to run in -demo mode")
		replan  = flag.Float64("replan-threshold", 0.02,
			"probability drift tolerated before re-planning (0 = exact match, negative = re-plan every tick)")
		executor = flag.String("executor", "linear",
			"default execution strategy: linear or adaptive")
		adaptiveGap = flag.Float64("adaptive-gap", engine.DefaultGapThreshold,
			"relative linear/non-linear cost gap required before the adaptive executor prefers a decision tree")
		window = flag.Int("window", 0,
			"sliding-window size of the windowed estimator (0 = default 64)")
		phDelta = flag.Float64("ph-delta", 0,
			"Page-Hinkley tolerance: probability shifts below this are absorbed (0 = default 0.1)")
		phLambda = flag.Float64("ph-lambda", 0,
			"Page-Hinkley trip threshold: cumulative deviation required to force replans (0 = default 12)")
		scenario = flag.String("scenario", "wearables",
			"sensor fleet: wearables, or drift (regime-shifting corpus, streams r0..r3)")
		shiftTick = flag.Int64("shift-tick", 150,
			"tick at which the drift scenario flips probabilities and costs (-scenario drift only; <= 0 never)")
		shards = flag.Int("shards", 1,
			"shard workers: queries are placed by stream affinity, each shard owns its own cache/planner/estimator (1 = the unsharded service)")
		repartition = flag.Int("repartition", 0,
			"minimum ticks between drift-driven repartitions of the sharded fleet (0 = never re-partition live; needs -shards > 1)")
		relayFrac = flag.Float64("relay-frac", 0,
			"fleet-global L2 relay: per-item transfer cost as a fraction of acquisition cost for items another shard already purchased (0 = relay off; needs -shards > 1 or -join/-worker)")
		workerMode = flag.Bool("worker", false,
			"run as a shard worker: serve the coordinator protocol under /worker/ instead of the public API")
		shardIndex = flag.Int("shard-index", 0,
			"this worker's shard index, stamped on its executions (-worker only)")
		join = flag.String("join", "",
			"comma-separated worker base URLs to coordinate over (e.g. \"http://w0:8081,http://w1:8082\"); serves the public API over those workers")
		pprofOn = flag.Bool("pprof", false,
			"expose net/http/pprof under /debug/pprof/ (CPU/heap profiling of a live fleet, e.g. plan-time or per-tick allocation hunts)")
		admitOn = flag.Bool("admit", true,
			"gate registrations behind admission control: marginal-cost pricing, per-tenant budgets, SLA tiers (false = serve ungated, byte-identical to the pre-admission service)")
		admitRate = flag.Float64("admit-rate", 0,
			"per-tenant budget refill in planned J/tick (0 = default 25)")
		admitBurst = flag.Float64("admit-burst", 0,
			"per-tenant budget burst cap in planned J (0 = default 500)")
		admitWindow = flag.Int("admit-window", 0,
			"SLO window in ticks over which the admission controller measures p99 tick latency (0 = default 64)")
		admitSLOGoldMS = flag.Float64("admit-slo-gold-ms", 0,
			"gold-tier p99 tick-latency objective in milliseconds; sustained breach marks the fleet overloaded (0 = default 250)")
		traceSample = flag.Int("trace-sample", 0,
			"tick-tracer sampling period: every n-th tick records one structured trace served at /debug/ticks/{n} (0 = tracing off, the zero-allocation default)")
		logJSON = flag.Bool("log-json", false,
			"emit one-line JSON log records (level, ts, shard, event) instead of plain text")
	)
	flag.Parse()
	lg := newServeLogger(*logJSON, os.Stderr)

	cfg := serviceConfig{
		seed: *seed, workers: *workers, replan: *replan,
		executor: *executor, gap: *adaptiveGap,
		window: *window, phDelta: *phDelta, phLambda: *phLambda,
		scenario: *scenario, shiftTick: *shiftTick,
		shards: *shards, repartition: *repartition, relayFrac: *relayFrac,
		traceSample: *traceSample,
		admit:       *admitOn,
		admitRate:   *admitRate, admitBurst: *admitBurst, admitWindow: *admitWindow,
		admitSLOGoldMS: *admitSLOGoldMS,
	}
	if *workerMode {
		lg.shard = *shardIndex
		h, err := newWorkerHandler(cfg, *shardIndex)
		if err != nil {
			fmt.Fprintf(os.Stderr, "paotrserve: %v\n", err)
			os.Exit(2)
		}
		lg.Infof("listen", "paotrserve worker %d listening on %s (relay frac %.2f)", *shardIndex, *addr, *relayFrac)
		lg.Fatal("serve", http.ListenAndServe(*addr, h))
	}
	var svc service.Runtime
	var err error
	if *join != "" {
		svc, err = newCoordinator(cfg, strings.Split(*join, ","))
	} else {
		svc, err = newServiceWith(cfg)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "paotrserve: %v\n", err)
		os.Exit(2)
	}
	if *demo {
		if err := runDemo(os.Stdout, svc, *steps, *adaptiveGap); err != nil {
			fmt.Fprintf(os.Stderr, "paotrserve: %v\n", err)
			os.Exit(1)
		}
		return
	}
	streams := "heart-rate, spo2, accelerometer, gps-speed, temperature"
	if *scenario == "drift" {
		streams = "r0, r1, r2, r3 (regime shift at tick " + strconv.FormatInt(*shiftTick, 10) + ")"
	}
	srv := newServer(svc, *adaptiveGap)
	if *pprofOn {
		srv.enablePprof()
		lg.Infof("pprof", "pprof enabled under /debug/pprof/")
	}
	lg.Infof("listen", "paotrserve listening on %s (streams: %s)", *addr, streams)
	lg.Fatal("serve", http.ListenAndServe(*addr, srv))
}

// executorByName resolves an execution-strategy name from the API or CLI.
// The empty string means "use the default".
func executorByName(name string, gap float64) (engine.Executor, error) {
	switch name {
	case "", engine.StrategyLinear:
		return engine.LinearExecutor{}, nil
	case engine.StrategyAdaptive:
		return engine.AdaptiveExecutor{GapThreshold: gap}, nil
	}
	return nil, fmt.Errorf("unknown executor %q (want %q or %q)", name, engine.StrategyLinear, engine.StrategyAdaptive)
}

// serviceConfig collects the service-construction knobs of the CLI.
type serviceConfig struct {
	seed     uint64
	workers  int
	replan   float64
	executor string
	gap      float64
	// window/phDelta/phLambda tune the windowed estimator (0 = default).
	window   int
	phDelta  float64
	phLambda float64
	// scenario is "wearables" (default when empty) or "drift"; shiftTick
	// is the drift scenario's regime-flip tick.
	scenario  string
	shiftTick int64
	// shards > 1 runs the sharded runtime; repartition is the minimum
	// tick gap between drift-driven repartitions (0 = off); relayFrac > 0
	// enables the fleet-global L2 item relay at that transfer fraction.
	shards      int
	repartition int
	relayFrac   float64
	// traceSample is the tick tracer's sampling period (0 = tracing off,
	// the zero-allocation default; see service.WithTraceSampling).
	traceSample int
	// admit gates registrations behind admission control (the -admit
	// flag); the remaining knobs tune the controller, 0 meaning the
	// admit.DefaultConfig value.
	admit          bool
	admitRate      float64
	admitBurst     float64
	admitWindow    int
	admitSLOGoldMS float64
}

// admitConfigFor maps the CLI's admission knobs onto an admit.Config,
// falling back to admit.DefaultConfig for every zero knob.
func admitConfigFor(cfg serviceConfig) admit.Config {
	c := admit.DefaultConfig()
	if cfg.admitRate > 0 {
		c.RefillJPerTick = cfg.admitRate
	}
	if cfg.admitBurst > 0 {
		c.BurstJ = cfg.admitBurst
	}
	if cfg.admitWindow > 0 {
		c.WindowTicks = cfg.admitWindow
	}
	if cfg.admitSLOGoldMS > 0 {
		c.SLOTickP99[admit.TierGold] = time.Duration(cfg.admitSLOGoldMS * float64(time.Millisecond))
	}
	return c
}

// gateRuntime wraps rt in the admission gate when cfg asks for it.
// Worker processes are never gated — admission is a front-door concern,
// so the coordinator gates for the whole fleet.
func gateRuntime(cfg serviceConfig, rt service.Runtime) service.Runtime {
	if !cfg.admit {
		return rt
	}
	return service.NewAdmissionGate(rt, admit.NewController(admitConfigFor(cfg)))
}

// newService builds the service over the standard simulated sensor fleet
// with the linear default executor (the test configuration).
func newService(seed uint64, workers int, replanThreshold float64) service.Runtime {
	svc, err := newServiceWith(serviceConfig{
		seed: seed, workers: workers, replan: replanThreshold,
		executor: "linear", gap: engine.DefaultGapThreshold,
	})
	if err != nil {
		panic(err) // unreachable: "linear" always resolves
	}
	return svc
}

// serviceOptions builds the per-service options of a configuration
// (everything except the sharded-runtime knobs).
func serviceOptions(cfg serviceConfig) ([]service.Option, error) {
	x, err := executorByName(cfg.executor, cfg.gap)
	if err != nil {
		return nil, err
	}
	opts := []service.Option{
		service.WithEngineOptions(engine.WithReplanThreshold(cfg.replan)),
		service.WithExecutor(x),
		service.WithAdaptConfig(adapt.Config{
			Window: cfg.window, PHDelta: cfg.phDelta, PHLambda: cfg.phLambda,
		}),
	}
	if cfg.workers > 0 {
		opts = append(opts, service.WithWorkers(cfg.workers))
	}
	if cfg.traceSample > 0 {
		opts = append(opts, service.WithTraceSampling(cfg.traceSample))
	}
	return opts, nil
}

// registryFor builds the configured sensor fleet.
func registryFor(cfg serviceConfig) (*stream.Registry, error) {
	switch cfg.scenario {
	case "", "wearables":
		return stream.Wearables(cfg.seed), nil
	case "drift":
		return corpus.RegimeRegistry(corpus.RegimeConfig{Seed: cfg.seed, ShiftStep: cfg.shiftTick}), nil
	}
	return nil, fmt.Errorf("unknown scenario %q (want \"wearables\" or \"drift\")", cfg.scenario)
}

// newServiceWith builds the serving runtime over the configured sensor
// fleet from an explicit configuration: the plain service, or the
// sharded runtime when cfg.shards > 1.
func newServiceWith(cfg serviceConfig) (service.Runtime, error) {
	opts, err := serviceOptions(cfg)
	if err != nil {
		return nil, err
	}
	reg, err := registryFor(cfg)
	if err != nil {
		return nil, err
	}
	if cfg.shards > 1 {
		if cfg.repartition > 0 {
			opts = append(opts, service.WithRepartitionEvery(cfg.repartition))
		}
		if cfg.relayFrac > 0 {
			opts = append(opts, service.WithRelay(cfg.relayFrac))
		}
		return gateRuntime(cfg, service.NewSharded(reg, cfg.shards, opts...)), nil
	}
	return gateRuntime(cfg, service.New(reg, opts...)), nil
}

// newWorkerHandler builds a shard worker process: a plain service (plus
// a relay mirror when cfg.relayFrac > 0) behind the /worker/ protocol.
func newWorkerHandler(cfg serviceConfig, shardIdx int) (http.Handler, error) {
	opts, err := serviceOptions(cfg)
	if err != nil {
		return nil, err
	}
	reg, err := registryFor(cfg)
	if err != nil {
		return nil, err
	}
	var mirror *acquisition.ItemRelay
	if cfg.relayFrac > 0 {
		mirror = acquisition.NewItemRelay(reg.Len(), cfg.relayFrac)
		opts = append(opts, service.WithSharedRelay(mirror))
	}
	opts = append(opts, service.WithShardIndex(shardIdx))
	return service.NewWorkerHandler(service.New(reg, opts...), mirror), nil
}

// newCoordinator builds the coordinator runtime over already-running
// worker processes. The workers carry the per-service configuration;
// only the sharded-runtime knobs apply here.
func newCoordinator(cfg serviceConfig, endpoints []string) (service.Runtime, error) {
	reg, err := registryFor(cfg)
	if err != nil {
		return nil, err
	}
	var opts []service.Option
	if cfg.repartition > 0 {
		opts = append(opts, service.WithRepartitionEvery(cfg.repartition))
	}
	if cfg.relayFrac > 0 {
		opts = append(opts, service.WithRelay(cfg.relayFrac))
	}
	sh, err := service.NewShardedRemote(reg, endpoints, opts...)
	if err != nil {
		return nil, err
	}
	return gateRuntime(cfg, sh), nil
}

// server is the HTTP front-end over one serving runtime (plain or
// sharded). gap is the adaptive executor's gap threshold, applied to
// per-query "executor" choices.
type server struct {
	svc service.Runtime
	gap float64
	mux *http.ServeMux
}

// newServer wires the endpoint handlers.
func newServer(svc service.Runtime, gap float64) *server {
	s := &server{svc: svc, gap: gap, mux: http.NewServeMux()}
	s.mux.HandleFunc("POST /queries", s.handleRegister)
	s.mux.HandleFunc("GET /queries", s.handleListQueries)
	// {id...} matches across '/' so tenant-style ids like "a/tachycardia"
	// stay addressable.
	s.mux.HandleFunc("DELETE /queries/{id...}", s.handleUnregister)
	s.mux.HandleFunc("POST /tick", s.handleTick)
	s.mux.HandleFunc("GET /results/{id...}", s.handleResults)
	s.mux.HandleFunc("GET /metrics", s.handleMetrics)
	s.mux.HandleFunc("GET /metrics.prom", s.handleMetricsProm)
	s.mux.HandleFunc("GET /debug/events", s.handleDebugEvents)
	s.mux.HandleFunc("GET /debug/ticks", s.handleDebugTicks)
	s.mux.HandleFunc("GET /debug/ticks/{n}", s.handleDebugTick)
	s.mux.HandleFunc("PUT /debug/trace-sample", s.handleTraceSample)
	s.mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
	})
	return s
}

func (s *server) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.mux.ServeHTTP(w, r) }

// enablePprof mounts the net/http/pprof handlers on the server mux (the
// -pprof flag): profiles are how plan-time and per-tick allocation
// regressions get diagnosed against a live fleet instead of a synthetic
// benchmark corpus.
func (s *server) enablePprof() {
	s.mux.HandleFunc("GET /debug/pprof/", pprof.Index)
	s.mux.HandleFunc("GET /debug/pprof/cmdline", pprof.Cmdline)
	s.mux.HandleFunc("GET /debug/pprof/profile", pprof.Profile)
	s.mux.HandleFunc("GET /debug/pprof/symbol", pprof.Symbol)
	s.mux.HandleFunc("GET /debug/pprof/trace", pprof.Trace)
	// Named runtime profiles are routed explicitly rather than relying
	// on the subtree pattern above resolving them through pprof.Index:
	// registering more-specific /debug/... routes (like /debug/ticks/{n})
	// must never shadow a profile, and the explicit routes pin that
	// (TestPprofNamedProfiles).
	for _, name := range []string{"goroutine", "heap", "allocs", "threadcreate", "block", "mutex"} {
		s.mux.Handle("GET /debug/pprof/"+name, pprof.Handler(name))
	}
}

// queryOptions converts a register request into service options, using
// gap as the threshold for per-query adaptive executors.
func queryOptions(req registerRequest, gap float64) ([]service.QueryOption, error) {
	var opts []service.QueryOption
	if req.Every > 0 {
		opts = append(opts, service.Every(req.Every))
	}
	if req.Executor != "" {
		x, err := executorByName(req.Executor, gap)
		if err != nil {
			return nil, err
		}
		opts = append(opts, service.WithQueryExecutor(x))
	}
	return opts, nil
}

// registerRequest is the body of POST /queries.
type registerRequest struct {
	ID    string `json:"id"`
	Query string `json:"query"`
	// Every runs the query only on every n-th tick (default 1).
	Every int `json:"every,omitempty"`
	// Executor selects the execution strategy for this query ("linear"
	// or "adaptive"; empty uses the service default).
	Executor string `json:"executor,omitempty"`
	// Tier is the admission priority: "gold", "silver" or "bronze"
	// (default). Ignored when the server runs -admit=false.
	Tier string `json:"tier,omitempty"`
}

func (s *server) handleRegister(w http.ResponseWriter, r *http.Request) {
	var req registerRequest
	if err := json.NewDecoder(io.LimitReader(r.Body, 1<<20)).Decode(&req); err != nil {
		writeError(w, http.StatusBadRequest, fmt.Errorf("decoding request: %w", err))
		return
	}
	if req.ID == "" || req.Query == "" {
		writeError(w, http.StatusBadRequest, fmt.Errorf("id and query are required"))
		return
	}
	opts, err := queryOptions(req, s.gap)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	tier, err := admit.ParseTier(req.Tier)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	if err := s.register(req.ID, req.Query, tier, opts); err != nil {
		var adm *service.AdmissionError
		if errors.As(err, &adm) {
			s.writeAdmission(w, adm)
			return
		}
		status := http.StatusBadRequest
		if errors.Is(err, service.ErrDuplicateID) {
			status = http.StatusConflict
		}
		writeError(w, status, err)
		return
	}
	m, _ := s.svc.QueryMetrics(req.ID)
	writeJSON(w, http.StatusCreated, m)
}

// register routes a registration through the admission gate's tiered
// entry point when the runtime is gated, the plain Register otherwise.
func (s *server) register(id, text string, tier admit.Tier, opts []service.QueryOption) error {
	if g, ok := s.svc.(*service.AdmissionGate); ok {
		return g.RegisterTier(id, text, tier, opts...)
	}
	return s.svc.Register(id, text, opts...)
}

// admissionResponse is the 429 body of a shed or deferred registration:
// the controller's verdict, including the quoted marginal cost the
// client was priced at.
type admissionResponse struct {
	Error    string         `json:"error"`
	Decision admit.Decision `json:"decision"`
	// Queued reports the registration was parked for automatic retry at
	// tick boundaries (Defer verdicts): the client may poll GET /queries
	// for it instead of re-POSTing.
	Queued bool `json:"queued"`
}

// writeAdmission maps an admission rejection to 429 Too Many Requests
// with a Retry-After hint in ticks.
func (s *server) writeAdmission(w http.ResponseWriter, adm *service.AdmissionError) {
	if adm.Decision.RetryAfterTicks > 0 {
		w.Header().Set("Retry-After", strconv.Itoa(adm.Decision.RetryAfterTicks))
	}
	writeJSON(w, http.StatusTooManyRequests, admissionResponse{
		Error:    adm.Error(),
		Decision: adm.Decision,
		Queued:   adm.Queued,
	})
}

func (s *server) handleListQueries(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, queryRows(s.svc))
}

// queryRows is the GET /queries body: every registered query's
// aggregates, in registration order.
func queryRows(rt service.Runtime) []service.QueryMetrics {
	ids := rt.QueryIDs()
	out := make([]service.QueryMetrics, 0, len(ids))
	for _, id := range ids {
		if m, err := rt.QueryMetrics(id); err == nil {
			out = append(out, m)
		}
	}
	return out
}

func (s *server) handleUnregister(w http.ResponseWriter, r *http.Request) {
	if err := s.svc.Unregister(r.PathValue("id")); err != nil {
		writeError(w, http.StatusNotFound, err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{"status": "unregistered"})
}

// tickRequest is the body of POST /tick.
type tickRequest struct {
	Steps int `json:"steps"`
}

// maxTickSteps bounds one request's work.
const maxTickSteps = 100_000

func (s *server) handleTick(w http.ResponseWriter, r *http.Request) {
	req := tickRequest{Steps: 1}
	if r.ContentLength != 0 {
		if err := json.NewDecoder(io.LimitReader(r.Body, 1<<20)).Decode(&req); err != nil {
			writeError(w, http.StatusBadRequest, fmt.Errorf("decoding request: %w", err))
			return
		}
	}
	if req.Steps < 1 || req.Steps > maxTickSteps {
		writeError(w, http.StatusBadRequest, fmt.Errorf("steps must be in [1, %d]", maxTickSteps))
		return
	}
	writeJSON(w, http.StatusOK, s.svc.Run(req.Steps))
}

func (s *server) handleResults(w http.ResponseWriter, r *http.Request) {
	n := 0
	if q := r.URL.Query().Get("n"); q != "" {
		v, err := strconv.Atoi(q)
		if err != nil || v < 0 {
			writeError(w, http.StatusBadRequest, fmt.Errorf("invalid n %q", q))
			return
		}
		n = v
	}
	res, err := s.svc.Results(r.PathValue("id"), n)
	if err != nil {
		writeError(w, http.StatusNotFound, err)
		return
	}
	writeJSON(w, http.StatusOK, res)
}

func (s *server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.svc.Metrics())
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

func writeError(w http.ResponseWriter, status int, err error) {
	writeJSON(w, status, map[string]string{"error": err.Error()})
}

// demoQueries is the multi-tenant demo scenario: three tenants whose
// continuous queries overlap heavily on the same streams, so the shared
// cache and plan reuse both get traction.
var demoQueries = []registerRequest{
	// Tenant A: telehealth alerting. The two alerting queries small
	// enough for the decision-tree DP run adaptively.
	{ID: "a/tachycardia", Query: "AVG(heart-rate,5) > 100 AND accelerometer < 12", Executor: "adaptive"},
	{ID: "a/hypoxia", Query: "spo2 < 92 OR (heart-rate > 110 AND gps-speed < 0.5)", Executor: "adaptive"},
	{ID: "a/exertion", Query: "AVG(heart-rate,5) > 90 AND AVG(spo2,3) < 95"},
	// Cardiac triage shares heart-rate across all three AND nodes with
	// different windows — the shared-stream shape where a decision tree
	// can beat every fixed schedule (paper, Section V).
	{ID: "a/cardiac", Query: "(AVG(heart-rate,8) > 95 AND spo2 < 94) OR (AVG(heart-rate,3) > 110 AND gps-speed < 0.5) OR (heart-rate > 125 AND accelerometer > 15)", Executor: "adaptive"},
	// Tenant B: activity tracking, lower cadence.
	{ID: "b/fall", Query: "accelerometer > 20 AND AVG(gps-speed,4) < 0.2", Every: 2},
	{ID: "b/workout", Query: "accelerometer > 15 AND heart-rate > 100"},
	{ID: "b/commute", Query: "AVG(gps-speed,4) > 1.5 AND heart-rate > 80", Every: 2},
	// Tenant C: environment monitoring, slow cadence.
	{ID: "c/heat", Query: "AVG(temperature,6) > 24 AND heart-rate > 90", Every: 5},
	{ID: "c/indoors", Query: "AVG(temperature,6) < 25 AND spo2 > 90", Every: 5},
}

// runDemo registers the demo fleet, runs it for the given number of
// ticks, and prints per-query and fleet-wide metrics.
func runDemo(w io.Writer, svc service.Runtime, steps int, gap float64) error {
	for _, q := range demoQueries {
		opts, err := queryOptions(q, gap)
		if err != nil {
			return err
		}
		if err := svc.Register(q.ID, q.Query, opts...); err != nil {
			return err
		}
	}
	fmt.Fprintf(w, "multi-tenant demo: %d queries, %d ticks\n\n", len(demoQueries), steps)
	svc.Run(steps)
	m := svc.Metrics()
	fmt.Fprintf(w, "%-14s %-8s %6s %6s %10s %10s %8s %s\n",
		"query", "exec", "runs", "true", "paid J", "expect J", "plan-hit", "text")
	for _, qm := range queryRows(svc) {
		hit := 0.0
		if qm.Executions > 0 {
			hit = float64(qm.PlanCacheHits) / float64(qm.Executions)
		}
		fmt.Fprintf(w, "%-14s %-8s %6d %6d %10.2f %10.2f %7.0f%% %s\n",
			qm.ID, qm.Executor, qm.Executions, qm.TrueCount, qm.PaidCost, qm.ExpectedCost, 100*hit, qm.Query)
	}
	fmt.Fprintf(w, "\n--- fleet over %d ticks ---\n", m.Ticks)
	fmt.Fprintf(w, "executions:            %d (%d adaptive)\n", m.Executions, m.AdaptiveExecutions)
	fmt.Fprintf(w, "predicates evaluated:  %d\n", m.PredicatesEvaluated)
	fmt.Fprintf(w, "paid cost:             %.2f J (expected %.2f J, realized/expected %.2f)\n",
		m.PaidCost, m.ExpectedCost, m.RealizedOverExpected)
	fmt.Fprintf(w, "cache hit rate:        %.1f%% (%d/%d items served from cache)\n",
		100*m.CacheHitRate, m.CacheRequested-m.CacheTransferred, m.CacheRequested)
	fmt.Fprintf(w, "plan-cache hit rate:   %.1f%%\n", 100*m.PlanCacheHitRate)
	fmt.Fprintf(w, "batched acquisition:   %d duplicate pulls avoided, %d items (%.2f J) pre-acquired\n",
		m.DuplicatePullsAvoided, m.BatchedItems, m.BatchedCost)
	if m.FleetPlans > 0 {
		fmt.Fprintf(w, "fleet planning:        %d joint plans (%d reused), %d executions, modelled %.2f J vs %.2f J independent (%.1f%% saving)\n",
			m.FleetPlans, m.FleetPlanReuses, m.FleetPlannedExecutions,
			m.FleetExpectedCost, m.IndependentExpectedCost, 100*m.FleetModelledSaving)
	}
	if m.Shards > 1 {
		fmt.Fprintf(w, "sharding:              %d shards; modelled sharing lost %.1f%% (%.1f J joint at K shards vs %.1f J at one); %d cross-shard duplicate transfers (%.2f J); %d repartitions, %d queries moved\n",
			m.Shards, m.SharingLostPct, m.ShardJointExpectedCost, m.SingleJointExpectedCost,
			m.CrossShardDuplicateTransfers, m.CrossShardDuplicateSpend, m.Repartitions, m.QueriesMoved)
		for _, ps := range m.PerShard {
			fmt.Fprintf(w, "  shard %d:             %d queries (load %.1f J), %d executions, %.2f J paid, %.1f%% cache hit\n",
				ps.Shard, ps.Queries, ps.ExpectedLoad, ps.Executions, ps.PaidCost, 100*ps.CacheHitRate)
		}
	}
	fmt.Fprintf(w, "estimator:             %s (%d predicates tracked, window %d, avg CI width %.2f, %d/%d detector trips, %d forced replans)\n",
		m.Estimator, m.TrackedPredicates, m.EstimatorWindow, m.AvgCIWidth,
		m.PredicateDetectorTrips, m.CostDetectorTrips, m.ReplansForced)
	fmt.Fprintf(w, "\n%-14s %10s %10s %8s %8s %8s\n", "stream", "requested", "pulled", "hit-rate", "spent J", "dup-avoid")
	for _, ps := range m.PerStream {
		fmt.Fprintf(w, "%-14s %10d %10d %7.1f%% %8.2f %9d\n",
			ps.Name, ps.Requested, ps.Transferred, 100*ps.HitRate, ps.Spent, ps.DuplicatePullsAvoided)
	}
	return nil
}
