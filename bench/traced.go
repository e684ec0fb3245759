package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime/metrics"
	"time"

	"paotr/internal/adapt"
	"paotr/internal/admit"
	"paotr/internal/engine"
	"paotr/internal/obs"
	"paotr/internal/service"
	"paotr/internal/stream"
)

// span is one timed call into a layer, recorded by the benchmark around
// the call. Spans of one tick share Trace (the tick number; 0 during
// set-up); Parent is the span that made the call.
type span struct {
	ID     int64              `json:"id"`
	Parent int64              `json:"parent,omitempty"`
	Trace  int64              `json:"trace"`
	Name   string             `json:"name"`
	Start  int64              `json:"start_ns"`
	Dur    int64              `json:"dur_ns"`
	Attrs  map[string]float64 `json:"attrs,omitempty"`
	parent *span
}

// recorder keeps spans in memory until the run ends. The traced run is
// one goroutine, so cur — the innermost open span — needs no lock.
type recorder struct {
	t0    time.Time
	trace int64
	spans []*span
	cur   *span
}

func newRecorder() *recorder { return &recorder{t0: time.Now()} }

// begin opens a span as a child of the innermost open span.
func (r *recorder) begin(name string) *span {
	s := &span{ID: int64(len(r.spans) + 1), Trace: r.trace, Name: name, Start: time.Since(r.t0).Nanoseconds(), parent: r.cur}
	if r.cur != nil {
		s.Parent = r.cur.ID
	}
	r.spans = append(r.spans, s)
	r.cur = s
	return s
}

// end closes s and returns its duration.
func (r *recorder) end(s *span) time.Duration {
	s.Dur = time.Since(r.t0).Nanoseconds() - s.Start
	r.cur = s.parent
	return time.Duration(s.Dur)
}

// write stores the spans as JSON in path.
func (r *recorder) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	b, err := json.Marshal(struct {
		Spans []*span `json:"spans"`
	}{r.spans})
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

// layerProbe sits between the admission gate and the runtime it gates,
// so the calls admission makes into the runtime get spans of their own.
type layerProbe struct {
	service.Runtime
	rec *recorder
}

func (p *layerProbe) QuoteRegister(id, text string, opts ...service.QueryOption) (service.Quote, error) {
	s := p.rec.begin("fleet.quote")
	defer p.rec.end(s)
	return p.Runtime.QuoteRegister(id, text, opts...)
}

func (p *layerProbe) Register(id, text string, opts ...service.QueryOption) error {
	s := p.rec.begin("service.register")
	defer p.rec.end(s)
	return p.Runtime.Register(id, text, opts...)
}

func (p *layerProbe) Tick() service.TickResult {
	s := p.rec.begin("service.tick")
	a0 := heapAllocs()
	res := p.Runtime.Tick()
	s.Attrs = map[string]float64{"allocs": float64(heapAllocs() - a0)}
	p.rec.end(s)
	return res
}

var allocSample = []metrics.Sample{{Name: "/gc/heap/allocs:objects"}}

// heapAllocs is the process's cumulative count of heap allocations.
func heapAllocs() uint64 {
	metrics.Read(allocSample)
	return allocSample[0].Value.Uint64()
}

// newGate builds paotrserve's runtime for w: its default service
// options, the workload's shard and relay flags, and admission with the
// benchmark's budgets. wrap may interpose on the gated runtime.
func newGate(w *Workload, wrap func(service.Runtime) service.Runtime, extra ...service.Option) *service.AdmissionGate {
	opts := append([]service.Option{
		service.WithEngineOptions(engine.WithReplanThreshold(0.02)),
		service.WithExecutor(engine.LinearExecutor{}),
		service.WithBatchedAcquisition(true),
		service.WithFleetPlanning(true),
		service.WithShapeFactoring(true),
		service.WithCacheStripes(0),
		service.WithAdaptConfig(adapt.Config{}),
	}, extra...)
	reg := stream.Wearables(sensorSeed)
	var rt service.Runtime
	if w.Shards > 1 {
		if w.RelayFrac > 0 {
			opts = append(opts, service.WithRelay(w.RelayFrac))
		}
		rt = service.NewSharded(reg, w.Shards, opts...)
	} else {
		rt = service.New(reg, opts...)
	}
	cfg := admit.DefaultConfig()
	cfg.RefillJPerTick, cfg.BurstJ = 1e6, 1e6
	return service.NewAdmissionGate(wrap(rt), admit.NewController(cfg))
}

// tracedRun is what one traced pass measured.
type tracedRun struct {
	rec *recorder
	// shardTicks are the runtime's own traces, one per shard per tick.
	shardTicks []obs.TickTrace
	// Per measured tick: the gated tick, the runtime's tick and its
	// allocations, the JSON encoding of the result, and on several
	// shards the coordinator's share and the shards' skew.
	tickMs, svcMs, allocs, encodeMs []float64
	coordMs, skewMs                 []float64
	registerUs, quoteUs             []float64
	resultsUs, metricsMs            []float64
	before, after                   service.Metrics
	verify                          *verifier
}

// runTraced replays the plan in-process against the traced runtime and
// checks every execution.
func runTraced(ctx context.Context, p *Plan) (*tracedRun, error) {
	w := p.W
	rec := newRecorder()
	out := &tracedRun{rec: rec, verify: newVerifier()}
	probe := &layerProbe{rec: rec}
	gate := newGate(w, func(rt service.Runtime) service.Runtime { probe.Runtime = rt; return probe }, service.WithTraceSampling(1))
	live := &liveSet{}
	for _, r := range p.Base {
		if out.register(gate, r) {
			live.add(r)
		}
	}
	tick := int64(0)
	for t := 0; t < w.Warmup; t++ {
		tick++
		rec.trace = tick
		gate.Run(1)
	}
	out.before = gate.Metrics()
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	nextRead := 0
	slot := 1000 / w.TicksPerSecond
	for i := 0; i < p.Ticks; i++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		rec.trace = tick + 1
		if w.Churn > 0 {
			for _, id := range live.popOldest(w.Churn) {
				s := rec.begin("admit.unregister")
				err := gate.Unregister(id)
				rec.end(s)
				if err != nil {
					out.verify.mismatch("unregister %s: %v", id, err)
				}
			}
			for _, r := range p.Churn[i] {
				if out.register(gate, r) {
					live.add(r)
				}
			}
		}
		// Open-loop reads are replayed between ticks, each before the
		// first tick whose nominal slot starts after it was due.
		for ; nextRead < len(p.Reads) && p.Reads[nextRead].AtMs < float64(i)*slot; nextRead++ {
			if rd := p.Reads[nextRead]; rd.Scrape {
				out.scrape(gate)
			} else {
				out.results(gate, p.pickReg(rd.Pick, i+1))
			}
		}
		tick++
		s := rec.begin("admit.tick")
		res := gate.Run(1)
		out.tickMs = append(out.tickMs, ms(rec.end(s)))
		e := rec.begin("http.encode")
		buf.Reset()
		if err := enc.Encode(res); err != nil {
			return nil, fmt.Errorf("encoding tick %d: %w", tick, err)
		}
		out.encodeMs = append(out.encodeMs, ms(rec.end(e)))
		out.shardTraces(gate, s, tick)
		out.verify.tick(res[0], tick, live)
	}
	out.after = gate.Metrics()
	rec.trace = 0
	for _, b := range p.ReadBase {
		out.results(gate, p.Base[b])
	}
	for i := 0; len(p.ReadBase) > 0 && i < closedScrapes; i++ {
		out.scrape(gate)
	}
	return out, nil
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// register registers r through the gate at gold tier.
func (out *tracedRun) register(gate *service.AdmissionGate, r Reg) bool {
	var opts []service.QueryOption
	if r.Every > 0 {
		opts = append(opts, service.Every(r.Every))
	}
	s := out.rec.begin("admit.register")
	err := gate.RegisterTier(r.ID, r.Query, admit.TierGold, opts...)
	out.registerUs = append(out.registerUs, float64(out.rec.end(s).Nanoseconds())/1e3)
	for _, c := range out.rec.spans[s.ID:] {
		if c.Name == "fleet.quote" {
			out.quoteUs = append(out.quoteUs, float64(c.Dur)/1e3)
		}
	}
	if err != nil {
		out.verify.mismatch("register %s: %v", r.ID, err)
		return false
	}
	return true
}

// scrape times the Metrics call a GET /metrics.prom makes.
func (out *tracedRun) scrape(gate *service.AdmissionGate) {
	s := out.rec.begin("service.metrics")
	gate.Metrics()
	out.metricsMs = append(out.metricsMs, ms(out.rec.end(s)))
}

// results times the Results call a GET /results/{id}?n=1 makes and
// checks the verdict it returns.
func (out *tracedRun) results(gate *service.AdmissionGate, r Reg) {
	s := out.rec.begin("service.results")
	execs, err := gate.Results(r.ID, 1)
	out.resultsUs = append(out.resultsUs, float64(out.rec.end(s).Nanoseconds())/1e3)
	if err != nil {
		out.verify.mismatch("results %s: %v", r.ID, err)
		return
	}
	for _, e := range execs {
		out.verify.check(r.Query, e.Tick, e.Value)
	}
}

// shardTraces files the runtime's own per-shard tick traces under the
// tick's span and derives the coordinator's share of the tick.
func (out *tracedRun) shardTraces(gate *service.AdmissionGate, tickSpan *span, tick int64) {
	trs := gate.TickTraces(tick)
	var slowest, fastest int64 = 0, -1
	for _, tr := range trs {
		out.shardTicks = append(out.shardTicks, tr)
		slowest = max(slowest, tr.TotalNs)
		if fastest < 0 || tr.TotalNs < fastest {
			fastest = tr.TotalNs
		}
	}
	var svc *span
	for _, s := range out.rec.spans[tickSpan.ID:] {
		if s.Name == "service.tick" {
			svc = s
			out.svcMs = append(out.svcMs, float64(s.Dur)/1e6)
			out.allocs = append(out.allocs, s.Attrs["allocs"])
		}
	}
	for _, tr := range trs {
		unattributed := tr.TotalNs - tr.PlanNs - tr.AcquireNs - tr.ExecuteNs - tr.FanOutNs
		out.rec.spans = append(out.rec.spans, &span{
			ID: int64(len(out.rec.spans) + 1), Parent: svc.ID, Trace: tick, Name: "service.shard_tick",
			Start: tr.StartUnixNs - out.rec.t0.UnixNano(), Dur: tr.TotalNs,
			Attrs: map[string]float64{
				"shard": float64(tr.Shard), "plan_ns": float64(tr.PlanNs), "acquire_ns": float64(tr.AcquireNs),
				"execute_ns": float64(tr.ExecuteNs), "fanout_ns": float64(tr.FanOutNs),
				"unattributed_ns": float64(unattributed),
				"due_queries":     float64(tr.DueQueries), "due_classes": float64(tr.DueClasses),
			},
		})
	}
	// On one shard the overhead is the runtime's time outside its traced
	// tick, and there is no skew.
	if len(trs) > 0 {
		out.coordMs = append(out.coordMs, float64(svc.Dur-slowest)/1e6)
		out.skewMs = append(out.skewMs, float64(slowest-fastest)/1e6)
	}
}
