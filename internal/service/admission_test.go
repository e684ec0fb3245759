package service

import (
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"sync"
	"testing"
	"time"

	"paotr/internal/admit"
	"paotr/internal/engine"
	"paotr/internal/obs"
)

// admitConfig is a tight test policy: small budgets, instant windows.
func admitConfig() admit.Config {
	return admit.Config{
		RefillJPerTick: 5,
		BurstJ:         15,
		MaxQuoteJ:      [admit.NumTiers]float64{0, 0, 0},
		SLOTickP99: [admit.NumTiers]time.Duration{
			time.Second, 4 * time.Second, 16 * time.Second,
		},
		WindowTicks: 2,
	}
}

// pinnedFleetQueries is the sharing workload with explicit probability
// annotations: with no estimator drift between a quote and the next
// tick's plan, quote accuracy can be asserted exactly.
func pinnedFleetQueries() []string {
	return []string{
		"AVG(heart-rate,8) > 100 [p=0.6] AND AVG(spo2,6) < 95 [p=0.7]",
		"AVG(heart-rate,8) > 110 [p=0.3] AND accelerometer > 15 [p=0.5]",
		"AVG(spo2,6) < 92 [p=0.4] OR AVG(gps-speed,4) < 0.5 [p=0.6]",
		"AVG(temperature,6) > 24 [p=0.5] AND heart-rate > 90 [p=0.55]",
		"accelerometer > 20 [p=0.25] AND AVG(gps-speed,4) < 0.2 [p=0.45]",
	}
}

// TestQuoteRegisterMatchesRealizedDelta: the service-level quote must
// match the joint-plan cost delta the fleet realizes when the query is
// actually registered — the admission pricing acceptance criterion.
// Probabilities are pinned so the only difference between the treated
// and control runs is the admitted newcomer. The probes are quoted after
// three ticks, so they catch a quote priced at the wrong cache state:
// the newcomer first runs after the next tick's Advance, when item 1 of
// every stream is uncached and every cached item has aged one step.
func TestQuoteRegisterMatchesRealizedDelta(t *testing.T) {
	build := func() *Service {
		s := New(testRegistry(5))
		for i, q := range pinnedFleetQueries() {
			if err := s.Register(string(rune('a'+i)), q); err != nil {
				t.Fatal(err)
			}
		}
		s.Run(3)
		return s
	}
	probes := []struct {
		newcomer string
		// discount marks a probe that partially overlaps resident windows,
		// so its marginal must be strictly below its independent price.
		discount bool
	}{
		// Overlaps resident windows on heart-rate and spo2 but adds its own
		// temperature read — a partial overlap discount.
		{"AVG(heart-rate,8) > 95 [p=0.5] AND AVG(temperature,6) > 22 [p=0.35]", true},
		{"AVG(heart-rate,10) > 95 [p=0.5]", false},
		{"accelerometer > 5 [p=0.9] AND spo2 < 99 [p=0.5]", false},
		{"heart-rate > 95 [p=0.5]", false},
		{"gps-speed < 0.5 [p=0.5]", false},
		{"AVG(gps-speed,4) < 0.5 [p=0.5] OR temperature > 22 [p=0.5]", false},
		{"temperature > 22 [p=0.5]", false},
	}
	for _, p := range probes {
		t.Run(p.newcomer, func(t *testing.T) {
			s := build()
			quote, err := s.QuoteRegister("x", p.newcomer)
			if err != nil {
				t.Fatal(err)
			}
			before := s.Metrics().FleetExpectedCost
			if err := s.Register("x", p.newcomer); err != nil {
				t.Fatal(err)
			}
			s.Tick()
			after := s.Metrics().FleetExpectedCost

			// FleetExpectedCost accumulates per tick; the tick after admission
			// adds (resident + newcomer) while a control service without the
			// newcomer adds just resident. Compare against that control.
			ctl := build()
			cb := ctl.Metrics().FleetExpectedCost
			ctl.Tick()
			delta := (after - before) - (ctl.Metrics().FleetExpectedCost - cb)
			if math.Abs(delta-quote.MarginalJPerTick) > 1e-6 {
				t.Fatalf("quote %.9f J/tick, realized joint-plan delta %.9f", quote.MarginalJPerTick, delta)
			}
			if quote.IndependentJPerTick <= 0 {
				t.Fatalf("independent price %.9f, want > 0: planned alone at the next tick it pays for item 1", quote.IndependentJPerTick)
			}
			if quote.MarginalJPerTick > quote.IndependentJPerTick+1e-9 {
				t.Fatalf("marginal %.9f above independent %.9f", quote.MarginalJPerTick, quote.IndependentJPerTick)
			}
			if p.discount && quote.MarginalJPerTick >= quote.IndependentJPerTick-1e-9 {
				t.Fatalf("no overlap discount: marginal %.9f, independent %.9f", quote.MarginalJPerTick, quote.IndependentJPerTick)
			}
		})
	}
}

// TestQuoteRegisterDoesNotMutate: quoting must not change what the
// fleet plans or pays — tick results with and without an interleaved
// quote are byte-identical.
func TestQuoteRegisterDoesNotMutate(t *testing.T) {
	run := func(quote bool) string {
		s := New(testRegistry(9))
		for i, q := range fleetQueries() {
			if err := s.Register(string(rune('a'+i)), q); err != nil {
				t.Fatal(err)
			}
		}
		var out []TickResult
		for i := 0; i < 12; i++ {
			if quote && i%3 == 0 {
				if _, err := s.QuoteRegister("probe", "AVG(temperature,6) > 20 AND heart-rate > 85"); err != nil {
					t.Fatal(err)
				}
			}
			out = append(out, s.Tick())
		}
		b, err := json.Marshal(out)
		if err != nil {
			t.Fatal(err)
		}
		return string(b)
	}
	if clean, probed := run(false), run(true); clean != probed {
		t.Fatal("interleaved quotes changed tick results")
	}
}

// TestQuoteRegisterTwinIsFree: an exact twin of a resident shape quotes
// zero marginal cost with SharedShape set.
func TestQuoteRegisterTwinIsFree(t *testing.T) {
	s := New(testRegistry(3))
	const text = "AVG(heart-rate,5) > 100 AND accelerometer < 12"
	if err := s.Register("a/orig", text); err != nil {
		t.Fatal(err)
	}
	q, err := s.QuoteRegister("b/twin", text)
	if err != nil {
		t.Fatal(err)
	}
	if !q.SharedShape || q.MarginalJPerTick != 0 {
		t.Fatalf("twin quote: %+v, want shared shape at zero marginal", q)
	}
	if q.IndependentJPerTick <= 0 {
		t.Fatalf("twin independent price %v, want > 0", q.IndependentJPerTick)
	}
}

// TestQuoteRegisterErrors: duplicate ids and non-compiling texts fail.
func TestQuoteRegisterErrors(t *testing.T) {
	s := New(testRegistry(3))
	if err := s.Register("a", "heart-rate > 120"); err != nil {
		t.Fatal(err)
	}
	if _, err := s.QuoteRegister("a", "heart-rate > 120"); !errors.Is(err, ErrDuplicateID) {
		t.Fatalf("duplicate id: %v", err)
	}
	if _, err := s.QuoteRegister("b", "no-such-stream > 1"); err == nil {
		t.Fatal("bad text quoted")
	}
}

// TestShardedQuoteRegister: the coordinator quotes twins free and routes
// fresh shapes to their placement shard.
func TestShardedQuoteRegister(t *testing.T) {
	sh := NewSharded(testRegistry(7), 2)
	if err := sh.Register("a/q", "heart-rate > 120 OR spo2 < 90"); err != nil {
		t.Fatal(err)
	}
	sh.Run(2)
	q, err := sh.QuoteRegister("b/twin", "heart-rate > 120 OR spo2 < 90")
	if err != nil {
		t.Fatal(err)
	}
	if !q.SharedShape || q.MarginalJPerTick != 0 {
		t.Fatalf("sharded twin quote: %+v", q)
	}
	q, err = sh.QuoteRegister("b/fresh", "AVG(temperature,6) > 24 AND accelerometer > 15")
	if err != nil {
		t.Fatal(err)
	}
	if q.MarginalJPerTick <= 0 {
		t.Fatalf("fresh shape quoted %v, want > 0", q.MarginalJPerTick)
	}
}

// gatedService builds a small admission-gated fleet.
func gatedService(t *testing.T, cfg admit.Config) (*AdmissionGate, *Service) {
	t.Helper()
	s := New(testRegistry(11))
	g := NewAdmissionGate(s, admit.NewController(cfg))
	return g, s
}

// TestGateBudgetExhaustionDefersThenAdmits: an over-budget registration
// returns a queued AdmissionError with the quote, and the gate's tick
// loop admits it once the tenant's bucket refills — no client retry.
func TestGateBudgetExhaustionDefersThenAdmits(t *testing.T) {
	const (
		first  = "AVG(heart-rate,5) > 100 AND accelerometer < 12"
		second = "AVG(temperature,6) > 24 OR AVG(gps-speed,4) > 1.5"
	)
	// Measure the two quotes on an ungated twin fleet, then size the
	// budget to cover the first admission but strand the second until
	// one or two refills have landed.
	probe := New(testRegistry(11))
	q1, err := probe.QuoteRegister("a/first", first)
	if err != nil {
		t.Fatal(err)
	}
	if err := probe.Register("a/first", first); err != nil {
		t.Fatal(err)
	}
	q2, err := probe.QuoteRegister("a/second", second)
	if err != nil {
		t.Fatal(err)
	}
	if q1.MarginalJPerTick <= 0 || q2.MarginalJPerTick <= 0 {
		t.Fatalf("probe quotes not positive: %v %v", q1, q2)
	}
	cfg := admitConfig()
	cfg.BurstJ = q1.MarginalJPerTick + q2.MarginalJPerTick/2
	cfg.RefillJPerTick = q2.MarginalJPerTick / 2

	g, _ := gatedService(t, cfg)
	if err := g.RegisterTier("a/first", first, admit.TierGold); err != nil {
		t.Fatal(err)
	}
	err = g.RegisterTier("a/second", second, admit.TierGold)
	var ae *AdmissionError
	if !errors.As(err, &ae) || ae.Decision.Action != admit.Defer || !ae.Queued {
		t.Fatalf("want queued defer, got %v", err)
	}
	if ae.Decision.QuoteJ <= 0 || ae.Decision.RetryAfterTicks < 1 {
		t.Fatalf("defer verdict missing quote/retry: %+v", ae.Decision)
	}
	if got := g.DeferredIDs(); len(got) != 1 || got[0] != "a/second" {
		t.Fatalf("defer queue: %v", got)
	}
	deadline := ae.Decision.RetryAfterTicks + 5
	for i := 0; i < deadline; i++ {
		g.Tick()
	}
	found := false
	for _, id := range g.QueryIDs() {
		if id == "a/second" {
			found = true
		}
	}
	if !found {
		t.Fatalf("deferred query not admitted after %d ticks; queue %v", deadline, g.DeferredIDs())
	}
	if len(g.DeferredIDs()) != 0 {
		t.Fatalf("defer queue not drained: %v", g.DeferredIDs())
	}
	j := g.Journal().CountByType()
	if j[obs.EventDefer] < 1 || j[obs.EventAdmit] < 2 {
		t.Fatalf("journal census: %v", j)
	}
}

// TestGateSLOBurnShedsBronzeOnly: under forced overload bronze sheds,
// gold admits, and the metrics snapshot exposes the backpressure state.
func TestGateSLOBurnShedsBronzeOnly(t *testing.T) {
	cfg := admitConfig()
	cfg.BurstJ, cfg.RefillJPerTick = 1e6, 1e6
	g, _ := gatedService(t, cfg)
	g.Controller().SetOverloaded(true)

	err := g.RegisterTier("a/best-effort", "heart-rate > 120", admit.TierBronze)
	var ae *AdmissionError
	if !errors.As(err, &ae) || ae.Decision.Action != admit.Shed || ae.Decision.Reason != "slo-burn" {
		t.Fatalf("bronze under burn: %v", err)
	}
	if err := g.RegisterTier("a/alert", "spo2 < 92", admit.TierGold); err != nil {
		t.Fatalf("gold under burn: %v", err)
	}
	m := g.Metrics()
	if m.Admission == nil || !m.Admission.Overloaded {
		t.Fatalf("metrics missing admission backpressure: %+v", m.Admission)
	}
	if m.Admission.Decisions["bronze"]["shed"] != 1 || m.Admission.Decisions["gold"]["admit"] != 1 {
		t.Fatalf("decision census: %v", m.Admission.Decisions)
	}
	if m.Admission.ShedPrecision != 1 {
		t.Fatalf("shed precision %v", m.Admission.ShedPrecision)
	}
}

// TestGatePassthroughIsByteIdentical: behind a gate with headroom, the
// fleet's tick results are byte-identical to the ungated service — the
// gate prices and observes but never perturbs.
func TestGatePassthroughIsByteIdentical(t *testing.T) {
	run := func(gated bool) string {
		// One tick worker: which execution pays for a shared item depends
		// on scheduling, and the comparison is byte for byte.
		s := New(testRegistry(13), WithWorkers(1))
		var rt Runtime = s
		if gated {
			cfg := admit.DefaultConfig()
			cfg.BurstJ, cfg.RefillJPerTick = 1e9, 1e9
			rt = NewAdmissionGate(s, admit.NewController(cfg))
		}
		for i, q := range fleetQueries() {
			if err := rt.Register(string(rune('a'+i))+"/q", q); err != nil {
				t.Fatal(err)
			}
		}
		b, err := json.Marshal(rt.Run(10))
		if err != nil {
			t.Fatal(err)
		}
		return string(b)
	}
	if plain, gated := run(false), run(true); plain != gated {
		t.Fatal("admission gate with headroom changed tick results")
	}
}

// TestGateUnregisterCancelsDeferred: unregistering a parked id removes
// it from the defer queue without touching the runtime.
func TestGateUnregisterCancelsDeferred(t *testing.T) {
	cfg := admitConfig()
	cfg.BurstJ, cfg.RefillJPerTick = 0.001, 0.001
	g, _ := gatedService(t, cfg)
	err := g.RegisterTier("a/parked", "heart-rate > 120 AND accelerometer > 15", admit.TierSilver)
	var ae *AdmissionError
	if !errors.As(err, &ae) || !ae.Queued {
		t.Fatalf("want queued defer, got %v", err)
	}
	if err := g.Unregister("a/parked"); err != nil {
		t.Fatal(err)
	}
	if ids := g.DeferredIDs(); len(ids) != 0 {
		t.Fatalf("defer queue after cancel: %v", ids)
	}
}

// residentCheck audits a service's resident joint state against its live
// linear shape classes (see fleet.Planner.CheckResident).
func residentCheck(s *Service) error {
	s.mu.Lock()
	var keys []string
	for _, c := range s.classList {
		if _, adaptive := s.executorFor(c.members[0]).(engine.AdaptiveExecutor); !adaptive {
			keys = append(keys, c.planKey)
		}
	}
	s.mu.Unlock()
	return s.planner.CheckResident(keys)
}

// TestAdmissionRaceKeepsResidentState races goroutines that register
// distinct shapes and twins, unregister, quote and tick through an
// AdmissionGate, once over a Service and once over a 2-shard Sharded.
// Every tick must run each due query once, and at the end every worker's
// resident joint state must match a rebuild of its live linear classes.
func TestAdmissionRaceKeepsResidentState(t *testing.T) {
	twins := []string{
		"AVG(heart-rate,5) > 100 AND spo2 < 95",
		"gps-speed > 1.5 OR AVG(temperature,4) > 38",
		"accelerometer > 15 OR spo2 < 90",
	}
	rounds := 60
	if testing.Short() {
		rounds = 20
	}
	cfg := admitConfig()
	cfg.RefillJPerTick, cfg.BurstJ = 1e6, 1e6
	for _, shards := range []int{1, 2} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			var rt Runtime
			var locals []*Service
			if shards == 1 {
				s := New(testRegistry(13), WithWorkers(2))
				rt, locals = s, []*Service{s}
			} else {
				sh := NewSharded(testRegistry(13), shards, WithWorkers(2))
				rt = sh
				for i := range shards {
					locals = append(locals, sh.Shard(i))
				}
			}
			g := NewAdmissionGate(rt, admit.NewController(cfg))
			const writers = 4
			var wg sync.WaitGroup
			for w := range writers {
				wg.Add(1)
				go func() {
					defer wg.Done()
					var mine []string
					for i := range rounds {
						id := fmt.Sprintf("t%d/q%d", w, i)
						text := twins[(w+i)%len(twins)]
						if i%2 == 0 {
							text = fmt.Sprintf("AVG(heart-rate,%d) > %d AND spo2 < 9%d", 1+(w+i)%8, 60+w*rounds+i, i%10)
						}
						if _, err := g.QuoteRegister(id+"/probe", text); err != nil {
							t.Error(err)
							return
						}
						if err := g.RegisterTier(id, text, admit.TierGold); err != nil {
							t.Error(err)
							return
						}
						mine = append(mine, id)
						if i%3 == 2 {
							if err := g.Unregister(mine[0]); err != nil {
								t.Error(err)
								return
							}
							mine = mine[1:]
						}
						if i%4 == w {
							res := g.Tick()
							seen := map[string]bool{}
							for _, e := range res.Executions {
								if seen[e.ID] || e.Err != "" {
									t.Errorf("tick %d: execution %+v duplicated or failed", res.Tick, e)
								}
								seen[e.ID] = true
							}
						}
					}
				}()
			}
			wg.Wait()
			live := map[string]bool{}
			for _, id := range g.QueryIDs() {
				live[id] = true
			}
			res := g.Tick()
			if len(res.Executions) != len(live) {
				t.Fatalf("final tick ran %d executions for %d live queries", len(res.Executions), len(live))
			}
			for _, e := range res.Executions {
				if !live[e.ID] || e.Err != "" {
					t.Errorf("final tick execution %+v", e)
				}
				delete(live, e.ID)
			}
			for i, s := range locals {
				if err := residentCheck(s); err != nil {
					t.Errorf("shard %d: %v", i, err)
				}
			}
		})
	}
}
