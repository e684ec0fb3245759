// Prometheus text exposition for the serving runtime: GET /metrics.prom
// renders every service.Counters field the JSON /metrics endpoint
// reports (TestWritePromCoversCounters pins that), plus the tick-latency
// histograms and the event-journal census, in the text exposition
// format (0.0.4) — hand-rolled via internal/obs so the repo stays
// dependency-free. The payload is validated in CI by cmd/metricslint
// against obs.LintProm.
package main

import (
	"bytes"
	"net/http"
	"sort"
	"strconv"

	"paotr/internal/obs"
	"paotr/internal/service"
)

// handleMetricsProm serves GET /metrics.prom.
func (s *server) handleMetricsProm(w http.ResponseWriter, r *http.Request) {
	var buf bytes.Buffer
	writeProm(&buf, s.svc.Metrics(), s.svc.Journal(), s.svc.TraceSampling())
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(buf.Bytes())
}

// writeProm renders one scrape. Families are emitted header-first and
// samples in deterministic order, so consecutive scrapes differ only in
// values — the shape is lintable and diffable.
func writeProm(buf *bytes.Buffer, m service.Metrics, j *obs.Journal, traceSample int) {
	p := obs.NewPromWriter(buf)

	counter := func(name, help string, v float64) {
		p.Header(name, help, "counter")
		p.Value(name, nil, v)
	}
	gauge := func(name, help string, v float64) {
		p.Header(name, help, "gauge")
		p.Value(name, nil, v)
	}

	counter("paotr_ticks_total", "Ticks executed since start.", float64(m.Ticks))
	gauge("paotr_queries", "Continuous queries currently registered.", float64(m.Queries))
	counter("paotr_executions_total", "Query executions since start.", float64(m.Executions))
	counter("paotr_adaptive_executions_total", "Executions that ran a decision tree instead of the linear schedule.", float64(m.AdaptiveExecutions))
	counter("paotr_paid_joules_total", "Acquisition energy actually paid.", m.PaidCost)
	counter("paotr_expected_joules_total", "Planner-modelled expected acquisition energy.", m.ExpectedCost)
	counter("paotr_predicates_evaluated_total", "Predicate evaluations since start.", float64(m.PredicatesEvaluated))
	counter("paotr_plan_cache_hits_total", "Executions served by a cached per-query plan.", float64(m.PlanCacheHits))
	counter("paotr_fleet_plans_total", "Joint fleet plans produced.", float64(m.FleetPlans))
	counter("paotr_fleet_plan_reuses_total", "Joint fleet plans reused from the cache.", float64(m.FleetPlanReuses))
	counter("paotr_fleet_plan_incremental_total", "Joint plans produced by patching a cached plan instead of replanning.", float64(m.FleetPlanIncremental))
	counter("paotr_fleet_placed_classes_total", "Shape classes the joint greedy placed: every class from scratch, the changed ones in a patch.", float64(m.FleetPlacedClasses))
	counter("paotr_fleet_planned_executions_total", "Executions that ran a joint fleet schedule.", float64(m.FleetPlannedExecutions))
	counter("paotr_plan_seconds_total", "Wall time spent in the joint planner.", float64(m.PlanNanos)/1e9)
	counter("paotr_fleet_expected_joules_total", "Joint-planner modelled acquisition energy (every shared item priced once).", m.FleetExpectedCost)
	counter("paotr_independent_expected_joules_total", "Acquisition energy per-query planning would have modelled for the same workloads.", m.IndependentExpectedCost)
	gauge("paotr_distinct_shapes", "Distinct query shapes (shape-factoring equivalence classes).", float64(m.DistinctShapes))
	gauge("paotr_shape_subscribers", "Queries subscribed to a shape class.", float64(m.ShapeSubscribers))
	counter("paotr_shared_executions_total", "Executions served by a class leader's fan-out instead of evaluating.", float64(m.SharedExecutions))
	counter("paotr_cache_requests_total", "Items requested from the acquisition cache.", float64(m.CacheRequested))
	counter("paotr_cache_transfers_total", "Items actually transferred from streams (cache misses and prefetches).", float64(m.CacheTransferred))
	counter("paotr_batched_items_total", "Items pre-acquired by the tick batcher.", float64(m.BatchedItems))
	counter("paotr_batched_joules_total", "Acquisition energy the tick batcher paid on the fleet's behalf (included in paid).", m.BatchedCost)
	counter("paotr_duplicate_pulls_avoided_total", "Duplicate same-tick pulls coalesced by the batcher.", float64(m.DuplicatePullsAvoided))
	gauge("paotr_tracked_predicates", "Predicates with live estimator state.", float64(m.TrackedPredicates))
	counter("paotr_trace_evictions_total", "Estimator predicate states evicted to honour the cap.", float64(m.TraceEvictions))

	p.Header("paotr_detector_trips_total", "Page-Hinkley change-detector trips by kind.", "counter")
	p.Value("paotr_detector_trips_total", map[string]string{"kind": "predicate"}, float64(m.PredicateDetectorTrips))
	p.Value("paotr_detector_trips_total", map[string]string{"kind": "cost"}, float64(m.CostDetectorTrips))
	counter("paotr_replans_forced_total", "Plans invalidated by drift detection.", float64(m.ReplansForced))

	if m.Shards > 1 {
		gauge("paotr_shards", "Shard workers in the fleet.", float64(m.Shards))
		counter("paotr_repartitions_total", "Drift-driven repartitions of the fleet.", float64(m.Repartitions))
		counter("paotr_queries_moved_total", "Queries moved by repartitions.", float64(m.QueriesMoved))
		counter("paotr_cross_shard_duplicate_transfers_total", "Items acquired by more than one shard.", float64(m.CrossShardDuplicateTransfers))
	}
	if m.RelayEnabled {
		counter("paotr_relay_purchases_total", "Items purchased at full cost (once per item fleet-wide).", float64(m.RelayPurchases))
		counter("paotr_relay_hits_total", "Items transferred from the fleet-global relay.", float64(m.RelayHits))
		counter("paotr_relay_transfer_joules_total", "Energy paid for relay transfers.", m.RelayTransferSpend)
		counter("paotr_relay_saved_joules_total", "Acquisition energy relay hits avoided.", m.RelaySavedSpend)
	}

	p.Header("paotr_stream_spent_joules_total", "Acquisition energy paid per stream.", "counter")
	for _, ps := range m.PerStream {
		p.Value("paotr_stream_spent_joules_total", map[string]string{"stream": ps.Name}, ps.Spent)
	}
	p.Header("paotr_stream_requests_total", "Items requested per stream.", "counter")
	for _, ps := range m.PerStream {
		p.Value("paotr_stream_requests_total", map[string]string{"stream": ps.Name}, float64(ps.Requested))
	}
	p.Header("paotr_stream_transfers_total", "Items transferred per stream.", "counter")
	for _, ps := range m.PerStream {
		p.Value("paotr_stream_transfers_total", map[string]string{"stream": ps.Name}, float64(ps.Transferred))
	}

	// Tick-latency histograms: fleet-wide per phase, then the per-shard
	// total-tick distributions.
	if len(m.TickLatency) > 0 {
		p.Header("paotr_tick_phase_seconds", "Tick latency by phase (plan/acquire/execute/fanout/total).", "histogram")
		phases := make([]string, 0, len(m.TickLatency))
		for name := range m.TickLatency {
			phases = append(phases, name)
		}
		sort.Strings(phases)
		for _, name := range phases {
			p.Histogram("paotr_tick_phase_seconds", map[string]string{"phase": name}, m.TickLatency[name])
		}
	}
	shardHists := false
	for _, sh := range m.PerShard {
		if sh.TickLatency != nil {
			shardHists = true
			break
		}
	}
	if shardHists {
		p.Header("paotr_shard_tick_seconds", "Total tick latency per shard.", "histogram")
		for _, sh := range m.PerShard {
			if sh.TickLatency != nil {
				p.Histogram("paotr_shard_tick_seconds", map[string]string{"shard": strconv.Itoa(sh.Shard)}, *sh.TickLatency)
			}
		}
	}

	// Admission-control backpressure (absent when -admit=false).
	if a := m.Admission; a != nil {
		gauge("paotr_admit_overloaded", "Whether the admission controller considers the fleet overloaded (recent p99 above the gold SLO).", b2f(a.Overloaded))
		gauge("paotr_admit_recent_p99_seconds", "p99 total-tick latency over the last completed SLO window.", a.RecentP99Ns/1e9)
		gauge("paotr_admit_slo_gold_seconds", "Gold-tier p99 tick-latency objective.", a.SLOGoldNs/1e9)
		gauge("paotr_admit_deferred_pending", "Registrations parked in the defer queue awaiting budget or headroom.", float64(a.DeferredPending))
		counter("paotr_admit_admitted_joules_total", "Quoted marginal J/tick admitted into the fleet.", a.AdmittedQuoteJ)
		gauge("paotr_admit_shed_precision", "Fraction of sheds that hit non-gold tiers (1 = no gold query ever shed).", a.ShedPrecision)
		p.Header("paotr_admit_decisions_total", "Admission verdicts by tier and action.", "counter")
		tiers := make([]string, 0, len(a.Decisions))
		for t := range a.Decisions {
			tiers = append(tiers, t)
		}
		sort.Strings(tiers)
		for _, t := range tiers {
			actions := make([]string, 0, len(a.Decisions[t]))
			for act := range a.Decisions[t] {
				actions = append(actions, act)
			}
			sort.Strings(actions)
			for _, act := range actions {
				p.Value("paotr_admit_decisions_total", map[string]string{"tier": t, "action": act}, float64(a.Decisions[t][act]))
			}
		}
		if len(a.Tenants) > 0 {
			p.Header("paotr_admit_tenant_budget_joules", "Per-tenant token-bucket balance in planned J.", "gauge")
			for _, tb := range a.Tenants {
				p.Value("paotr_admit_tenant_budget_joules", map[string]string{"tenant": tb.Tenant}, tb.BalanceJ)
			}
		}
	}

	// Event-journal census and tracer state.
	if j != nil {
		byType := j.CountByType()
		if len(byType) > 0 {
			p.Header("paotr_journal_events_total", "Journal events recorded by type (survives ring eviction).", "counter")
			types := make([]string, 0, len(byType))
			for t := range byType {
				types = append(types, t)
			}
			sort.Strings(types)
			for _, t := range types {
				p.Value("paotr_journal_events_total", map[string]string{"type": t}, float64(byType[t]))
			}
		}
		counter("paotr_journal_events_dropped_total", "Journal events evicted from the ring buffer.", float64(j.Dropped()))
	}
	gauge("paotr_trace_sample_period", "Tick-tracer sampling period (0 = tracing disabled).", float64(traceSample))
}

// b2f renders a boolean as a 0/1 gauge value.
func b2f(v bool) float64 {
	if v {
		return 1
	}
	return 0
}
