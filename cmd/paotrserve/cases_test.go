package main

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"os"
	"strings"
	"testing"

	"paotr/internal/engine"
	"paotr/internal/service"
	"paotr/internal/stream"
)

// e2eStep is one HTTP interaction of a catalogued case.
type e2eStep struct {
	method, path, body string
	wantStatus         int
	// check, when set, inspects the decoded JSON response.
	check func(t *testing.T, body []byte)
}

// e2eCase is one row of cmd/paotrserve/TESTCASES.md: caseID must appear
// in the catalog (enforced by TestCatalogInSync).
type e2eCase struct {
	caseID string
	name   string
	// server overrides the default (linear, batched) test service.
	server func(t *testing.T) *httptest.Server
	steps  []e2eStep
}

// adaptiveServer forces decision-tree execution for every query within
// the DP bound: adaptive default executor with a negative gap threshold,
// mirroring `paotrserve -executor adaptive -adaptive-gap -1`.
func adaptiveServer(t *testing.T) *httptest.Server {
	t.Helper()
	svc, err := newServiceWith(serviceConfig{
		seed: 1, workers: 4, replan: 0.02,
		executor: "adaptive", gap: -1,
	})
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(newServer(svc, -1))
	t.Cleanup(srv.Close)
	return srv
}

// driftServer serves the regime-shifting scenario: probabilities and
// per-item costs of streams r0..r3 flip at the configured tick,
// mirroring `paotrserve -scenario drift -shift-tick n`.
func driftServer(shiftTick int64) func(t *testing.T) *httptest.Server {
	return func(t *testing.T) *httptest.Server {
		t.Helper()
		svc, err := newServiceWith(serviceConfig{
			seed: 17, workers: 4, replan: 0.02,
			executor: "linear",
			scenario: "drift", shiftTick: shiftTick,
		})
		if err != nil {
			t.Fatal(err)
		}
		srv := httptest.NewServer(newServer(svc, -1))
		t.Cleanup(srv.Close)
		return srv
	}
}

// shardedServer serves the 4-shard runtime over the wearables fleet,
// mirroring `paotrserve -shards 4`.
func shardedServer(t *testing.T) *httptest.Server {
	t.Helper()
	svc, err := newServiceWith(serviceConfig{
		seed: 1, workers: 4, replan: 0.02,
		executor: "linear",
		shards:   4,
	})
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(newServer(svc, -1))
	t.Cleanup(srv.Close)
	return srv
}

// oneShardServer serves the sharded runtime with a single shard,
// mirroring `paotrserve -shards 1` through the NewSharded path (the
// degenerate configuration that must match the plain service).
func oneShardServer(t *testing.T) *httptest.Server {
	t.Helper()
	svc := service.NewSharded(stream.Wearables(1), 1,
		service.WithWorkers(4),
		service.WithEngineOptions(engine.WithReplanThreshold(0.02)))
	srv := httptest.NewServer(newServer(svc, -1))
	t.Cleanup(srv.Close)
	return srv
}

// relayShardedServer serves the 4-shard runtime with the fleet-global
// L2 item relay at the given transfer fraction, mirroring
// `paotrserve -shards 4 -relay-frac <frac>`.
func relayShardedServer(frac float64) func(t *testing.T) *httptest.Server {
	return func(t *testing.T) *httptest.Server {
		t.Helper()
		svc, err := newServiceWith(serviceConfig{
			seed: 1, workers: 4, replan: 0.02,
			executor: "linear",
			shards:   4, relayFrac: frac,
		})
		if err != nil {
			t.Fatal(err)
		}
		srv := httptest.NewServer(newServer(svc, -1))
		t.Cleanup(srv.Close)
		return srv
	}
}

// remoteRelayCase is E00702: two shard workers running as separate
// HTTP processes behind a relay-enabled coordinator, mirroring
// `paotrserve -worker` plus `paotrserve -join`. After ticking, a fresh
// coordinator over the same running workers (a coordinator restart)
// must adopt the standing queries and keep serving merged results.
func remoteRelayCase() e2eCase {
	cfg := serviceConfig{
		seed: 1, workers: 2, replan: 0.02,
		executor:  "linear",
		relayFrac: 0.1,
	}
	var endpoints []string
	return e2eCase{caseID: "E00702", name: "remote workers and coordinator restart", server: remoteServer(cfg, &endpoints), steps: []e2eStep{
		{"POST", "/queries", `{"id":"t0","query":"AVG(heart-rate,5) > 100 OR spo2 < 92"}`, http.StatusCreated, nil},
		{"POST", "/queries", `{"id":"t1","query":"AVG(heart-rate,5) > 95 OR accelerometer > 15"}`, http.StatusCreated, nil},
		{"POST", "/queries", `{"id":"t2","query":"heart-rate > 110 OR gps-speed > 1.5"}`, http.StatusCreated, nil},
		{"POST", "/tick", `{"steps":10}`, http.StatusOK, nil},
		{"GET", "/metrics", "", http.StatusOK,
			func(t *testing.T, body []byte) {
				var m service.Metrics
				mustDecode(t, body, &m)
				if m.Shards != 2 || m.Executions != 30 {
					t.Errorf("remote fleet: shards = %d, executions = %d, want 2 and 30", m.Shards, m.Executions)
				}
				if !m.RelayEnabled || m.RelayPurchases == 0 {
					t.Errorf("remote relay inactive: enabled=%v purchases=%d", m.RelayEnabled, m.RelayPurchases)
				}
			}},
		{"GET", "/healthz", "", http.StatusOK,
			func(t *testing.T, body []byte) {
				// Coordinator restart: a second coordinator over the same
				// running workers adopts the standing queries and serves
				// merged ticks without re-registration.
				svc2, err := newCoordinator(cfg, endpoints)
				if err != nil {
					t.Fatalf("restarted coordinator: %v", err)
				}
				if ids := svc2.QueryIDs(); len(ids) != 3 {
					t.Fatalf("restarted coordinator adopted %d queries, want 3: %v", len(ids), ids)
				}
				tr := svc2.Tick()
				if len(tr.Executions) != 3 {
					t.Errorf("restarted coordinator tick merged %d executions, want 3", len(tr.Executions))
				}
				for _, e := range tr.Executions {
					if e.Err != "" {
						t.Errorf("restarted coordinator execution %s: %s", e.ID, e.Err)
					}
				}
			}},
	}}
}

// remoteServer starts two `paotrserve -worker` handlers behind a `-join`
// coordinator and records the workers' base URLs in *endpoints, so case
// steps can restart the coordinator or read a worker directly.
func remoteServer(cfg serviceConfig, endpoints *[]string) func(t *testing.T) *httptest.Server {
	return func(t *testing.T) *httptest.Server {
		t.Helper()
		*endpoints = nil
		for i := 0; i < 2; i++ {
			h, err := newWorkerHandler(cfg, i)
			if err != nil {
				t.Fatal(err)
			}
			ws := httptest.NewServer(h)
			t.Cleanup(ws.Close)
			*endpoints = append(*endpoints, ws.URL)
		}
		svc, err := newCoordinator(cfg, *endpoints)
		if err != nil {
			t.Fatal(err)
		}
		srv := httptest.NewServer(newServer(svc, -1))
		t.Cleanup(srv.Close)
		return srv
	}
}

// remoteIDEscapeCase is E01101: query ids holding URL syntax ("/" and
// "?" here) still address exactly their query through a `-join`
// coordinator. Both queries read back their own results, and
// deleting "t/a?b" removes it from the coordinator and its worker while
// "t/a" keeps serving results.
func remoteIDEscapeCase() e2eCase {
	cfg := serviceConfig{seed: 1, workers: 2, replan: 0.02, executor: "linear"}
	var endpoints []string
	odd := url.PathEscape("t/a?b")
	results := func(id string, n int) func(t *testing.T, body []byte) {
		return func(t *testing.T, body []byte) {
			var res []service.Execution
			mustDecode(t, body, &res)
			if len(res) != n {
				t.Fatalf("results of %q: %d executions, want %d", id, len(res), n)
			}
			for _, e := range res {
				if e.ID != id || e.Err != "" {
					t.Errorf("results of %q hold execution %+v", id, e)
				}
			}
		}
	}
	return e2eCase{caseID: "E01101", name: "escaped query ids through remote workers", server: remoteServer(cfg, &endpoints), steps: []e2eStep{
		{"POST", "/queries", `{"id":"t/a","query":"AVG(heart-rate,5) > 100 OR spo2 < 92"}`, http.StatusCreated, nil},
		{"POST", "/queries", `{"id":"t/a?b","query":"heart-rate > 110 OR gps-speed > 1.5"}`, http.StatusCreated, nil},
		{"POST", "/tick", `{"steps":3}`, http.StatusOK, nil},
		{"GET", "/results/t/a?n=2", "", http.StatusOK, results("t/a", 2)},
		{"GET", "/results/" + odd + "?n=2", "", http.StatusOK, results("t/a?b", 2)},
		{"DELETE", "/queries/" + odd, "", http.StatusOK, nil},
		{"POST", "/tick", `{"steps":1}`, http.StatusOK, nil},
		{"GET", "/results/t/a?n=4", "", http.StatusOK, results("t/a", 4)},
		{"GET", "/results/" + odd, "", http.StatusNotFound, wantErrorBody},
		{"GET", "/queries", "", http.StatusOK,
			func(t *testing.T, body []byte) {
				var rows []service.QueryMetrics
				mustDecode(t, body, &rows)
				if len(rows) != 1 || rows[0].ID != "t/a" {
					t.Errorf("coordinator queries = %+v, want only t/a", rows)
				}
				var onWorkers []string
				for _, ep := range endpoints {
					resp, err := http.Get(ep + "/worker/queries")
					if err != nil {
						t.Fatal(err)
					}
					var regs []struct {
						ID string `json:"id"`
					}
					err = json.NewDecoder(resp.Body).Decode(&regs)
					resp.Body.Close()
					if err != nil {
						t.Fatal(err)
					}
					for _, r := range regs {
						onWorkers = append(onWorkers, r.ID)
					}
				}
				if len(onWorkers) != 1 || onWorkers[0] != "t/a" {
					t.Errorf("worker queries = %q, want only t/a", onWorkers)
				}
			}},
	}}
}

// -replan-threshold 0.1`: the tolerant drift threshold keeps settled
// estimates within the planner's patch eligibility, so post-shift churn
// exercises incremental replanning rather than full replans.
func driftChurnServer(t *testing.T) *httptest.Server {
	t.Helper()
	svc, err := newServiceWith(serviceConfig{
		seed: 17, workers: 4, replan: 0.1,
		executor: "linear",
		scenario: "drift", shiftTick: 40,
	})
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(newServer(svc, -1))
	t.Cleanup(srv.Close)
	return srv
}

// registrationStormCase is E00601: a four-digit registration storm
// followed by ticks — the fleet scale the sub-quadratic joint planner
// exists for. The metrics read checks the planner-health fields land on
// the wire (plan_ns, plan_incremental) and that the storm actually went
// through joint planning.
func registrationStormCase() e2eCase {
	const storm = 1000
	steps := make([]e2eStep, 0, storm+2)
	for i := 0; i < storm; i++ {
		q := fmt.Sprintf(`{"id":"storm%d","query":"AVG(heart-rate,%d) > %d OR AVG(spo2,%d) < %d"}`,
			i, i%6+2, 80+i%40, i%4+2, 88+i%8)
		steps = append(steps, e2eStep{"POST", "/queries", q, http.StatusCreated, nil})
	}
	steps = append(steps,
		e2eStep{"POST", "/tick", `{"steps":2}`, http.StatusOK, nil},
		e2eStep{"GET", "/metrics", "", http.StatusOK, func(t *testing.T, body []byte) {
			for _, field := range []string{`"plan_ns"`, `"plan_incremental"`} {
				if !strings.Contains(string(body), field) {
					t.Errorf("/metrics missing %s", field)
				}
			}
			var m service.Metrics
			mustDecode(t, body, &m)
			if m.Queries != storm || m.Ticks != 2 {
				t.Errorf("queries = %d, ticks = %d, want %d and 2", m.Queries, m.Ticks, storm)
			}
			if m.FleetPlans == 0 || m.FleetPlannedExecutions == 0 {
				t.Errorf("storm fleet did no joint planning: plans %d, executions %d",
					m.FleetPlans, m.FleetPlannedExecutions)
			}
			if m.PlanNanos <= 0 {
				t.Errorf("plan_ns not accounted: %d", m.PlanNanos)
			}
		}})
	return e2eCase{caseID: "E00601", name: "1k-query registration storm plans jointly", steps: steps}
}

// twinStormCase is E00801: ten thousand tenants registering twenty
// distinct alert templates between them. Shape factoring interns the
// storm into twenty equivalence classes — registration of an exact twin
// never recompiles or replans — and each tick evaluates twenty shapes,
// fanning the verdicts out to the other 9,980 subscribers for free.
func twinStormCase() e2eCase {
	const tenants, shapes = 10000, 20
	steps := make([]e2eStep, 0, tenants+2)
	for i := 0; i < tenants; i++ {
		s := i % shapes
		q := fmt.Sprintf(`{"id":"twin%d","query":"AVG(heart-rate,%d) > %d OR spo2 < %d"}`,
			i, s%6+2, 80+s, 88+s%8)
		steps = append(steps, e2eStep{"POST", "/queries", q, http.StatusCreated, nil})
	}
	steps = append(steps,
		e2eStep{"POST", "/tick", `{"steps":2}`, http.StatusOK, nil},
		e2eStep{"GET", "/metrics", "", http.StatusOK, func(t *testing.T, body []byte) {
			var m service.Metrics
			mustDecode(t, body, &m)
			if m.Queries != tenants || m.DistinctShapes != shapes || m.ShapeSubscribers != tenants {
				t.Errorf("census: %d queries in %d classes (%d subscribers), want %d in %d",
					m.Queries, m.DistinctShapes, m.ShapeSubscribers, tenants, shapes)
			}
			if m.Executions != 2*tenants {
				t.Errorf("executions = %d, want %d (every tenant, every tick)", m.Executions, 2*tenants)
			}
			if want := int64(2 * (tenants - shapes)); m.SharedExecutions != want {
				t.Errorf("shared executions = %d, want %d (all but one leader per class per tick)",
					m.SharedExecutions, want)
			}
		}})
	return e2eCase{caseID: "E00801", name: "10k-twin registration storm factors into 20 classes", steps: steps}
}

// thirteenLeafQuery exceeds the 12-leaf DP bound of the strategy package.
func thirteenLeafQuery() string {
	terms := make([]string, 13)
	for i := range terms {
		terms[i] = fmt.Sprintf("AVG(heart-rate,%d) > %d [p=0.9]", i%5+1, 60+i)
	}
	return strings.Join(terms, " AND ")
}

func e2eCases() []e2eCase {
	registerHR := e2eStep{"POST", "/queries", `{"id":"hr","query":"heart-rate > 100"}`, http.StatusCreated, nil}
	// preChurn carries E00602's incremental-plan count across its two
	// metrics reads: the post-churn tick must patch, not full-replan.
	var preChurn int64
	cases := []e2eCase{
		{caseID: "E00001", name: "register linear query", steps: []e2eStep{
			{"POST", "/queries", `{"id":"q","query":"AVG(heart-rate,5) > 100"}`, http.StatusCreated,
				func(t *testing.T, body []byte) {
					var m service.QueryMetrics
					mustDecode(t, body, &m)
					if m.ID != "q" || m.Executor != "linear" || m.Every != 1 {
						t.Errorf("registered metrics = %+v", m)
					}
				}},
		}},
		{caseID: "E00002", name: "register adaptive query", steps: []e2eStep{
			{"POST", "/queries", `{"id":"q","query":"heart-rate > 100 OR spo2 < 92","executor":"adaptive"}`, http.StatusCreated,
				func(t *testing.T, body []byte) {
					var m service.QueryMetrics
					mustDecode(t, body, &m)
					if m.Executor != "adaptive" {
						t.Errorf("executor = %q, want adaptive", m.Executor)
					}
				}},
		}},
		{caseID: "E00003", name: "every=n cadence", steps: []e2eStep{
			{"POST", "/queries", `{"id":"slow","query":"spo2 > 0","every":5}`, http.StatusCreated, nil},
			{"POST", "/tick", `{"steps":20}`, http.StatusOK, nil},
			{"GET", "/metrics", "", http.StatusOK,
				func(t *testing.T, body []byte) {
					var m service.Metrics
					mustDecode(t, body, &m)
					if m.Executions != 4 {
						t.Errorf("every=5 over 20 ticks ran %d times, want 4", m.Executions)
					}
				}},
		}},
		{caseID: "E00004", name: "tick returns due executions", steps: []e2eStep{
			registerHR,
			{"POST", "/tick", `{"steps":3}`, http.StatusOK,
				func(t *testing.T, body []byte) {
					var ticks []service.TickResult
					mustDecode(t, body, &ticks)
					if len(ticks) != 3 || len(ticks[2].Executions) != 1 || ticks[2].Executions[0].ID != "hr" {
						t.Errorf("ticks = %+v", ticks)
					}
				}},
		}},
		{caseID: "E00005", name: "results oldest first", steps: []e2eStep{
			registerHR,
			{"POST", "/tick", `{"steps":5}`, http.StatusOK, nil},
			{"GET", "/results/hr?n=2", "", http.StatusOK,
				func(t *testing.T, body []byte) {
					var res []service.Execution
					mustDecode(t, body, &res)
					if len(res) != 2 || res[0].Tick != 4 || res[1].Tick != 5 {
						t.Errorf("results = %+v", res)
					}
				}},
		}},
		{caseID: "E00006", name: "unregister frees the id", steps: []e2eStep{
			registerHR,
			{"DELETE", "/queries/hr", "", http.StatusOK, nil},
			{"POST", "/queries", `{"id":"hr","query":"spo2 < 90"}`, http.StatusCreated, nil},
		}},
		{caseID: "E00007", name: "healthz", steps: []e2eStep{
			{"GET", "/healthz", "", http.StatusOK, nil},
		}},
		{caseID: "E00008", name: "list queries", steps: []e2eStep{
			registerHR,
			{"POST", "/queries", `{"id":"ox","query":"spo2 < 92"}`, http.StatusCreated, nil},
			{"GET", "/queries", "", http.StatusOK,
				func(t *testing.T, body []byte) {
					var ms []service.QueryMetrics
					mustDecode(t, body, &ms)
					if len(ms) != 2 || ms[0].ID != "hr" || ms[1].ID != "ox" {
						t.Errorf("query list = %+v", ms)
					}
				}},
		}},

		{caseID: "E00101", name: "malformed query text", steps: []e2eStep{
			{"POST", "/queries", `{"id":"bad","query":"AVG(heart-rate"}`, http.StatusBadRequest, wantErrorBody},
		}},
		{caseID: "E00102", name: "unknown stream", steps: []e2eStep{
			{"POST", "/queries", `{"id":"bad","query":"nosuch > 1"}`, http.StatusBadRequest, wantErrorBody},
		}},
		{caseID: "E00103", name: "duplicate id", steps: []e2eStep{
			registerHR,
			{"POST", "/queries", `{"id":"hr","query":"spo2 < 90"}`, http.StatusConflict, wantErrorBody},
		}},
		{caseID: "E00104", name: "missing id or query", steps: []e2eStep{
			{"POST", "/queries", `{"id":"","query":""}`, http.StatusBadRequest, wantErrorBody},
			{"POST", "/queries", `{"id":"x"}`, http.StatusBadRequest, wantErrorBody},
		}},
		{caseID: "E00105", name: "unknown executor", steps: []e2eStep{
			{"POST", "/queries", `{"id":"x","query":"heart-rate > 1","executor":"quantum"}`, http.StatusBadRequest, wantErrorBody},
		}},
		{caseID: "E00106", name: "malformed JSON body", steps: []e2eStep{
			{"POST", "/queries", `{"id": "x", `, http.StatusBadRequest, wantErrorBody},
		}},
		{caseID: "E00107", name: "results for unknown id", steps: []e2eStep{
			{"GET", "/results/nope", "", http.StatusNotFound, wantErrorBody},
		}},
		{caseID: "E00108", name: "unregister unknown id", steps: []e2eStep{
			{"DELETE", "/queries/nope", "", http.StatusNotFound, wantErrorBody},
		}},
		{caseID: "E00109", name: "tick steps validation", steps: []e2eStep{
			{"POST", "/tick", `{"steps":0}`, http.StatusBadRequest, wantErrorBody},
			{"POST", "/tick", `{"steps":100001}`, http.StatusBadRequest, wantErrorBody},
		}},

		{caseID: "E00201", name: "adaptive strategy executes decision trees", server: adaptiveServer, steps: []e2eStep{
			{"POST", "/queries", `{"id":"ce","query":"(heart-rate > 100 [p=0.4] AND AVG(heart-rate,3) > 95 [p=0.5]) OR (spo2 < 92 [p=0.3] AND AVG(heart-rate,2) > 90 [p=0.6])"}`, http.StatusCreated, nil},
			{"POST", "/tick", `{"steps":10}`, http.StatusOK, nil},
			{"GET", "/results/ce?n=1", "", http.StatusOK,
				func(t *testing.T, body []byte) {
					var res []service.Execution
					mustDecode(t, body, &res)
					if len(res) != 1 || res[0].Strategy != "adaptive" {
						t.Errorf("execution = %+v, want strategy adaptive", res)
					}
				}},
		}},
		{caseID: "E00202", name: "DP bound falls back to linear", server: adaptiveServer, steps: []e2eStep{
			{"POST", "/queries", fmt.Sprintf(`{"id":"big","query":%q}`, thirteenLeafQuery()), http.StatusCreated, nil},
			{"POST", "/tick", `{"steps":2}`, http.StatusOK, nil},
			{"GET", "/results/big?n=1", "", http.StatusOK,
				func(t *testing.T, body []byte) {
					var res []service.Execution
					mustDecode(t, body, &res)
					if len(res) != 1 || res[0].Strategy != "linear" {
						t.Errorf("execution = %+v, want linear fallback", res)
					}
				}},
		}},
		{caseID: "E00203", name: "fleet metrics aggregate", steps: []e2eStep{
			registerHR,
			{"POST", "/tick", `{"steps":10}`, http.StatusOK, nil},
			{"GET", "/metrics", "", http.StatusOK,
				func(t *testing.T, body []byte) {
					var m service.Metrics
					mustDecode(t, body, &m)
					if m.Ticks != 10 || m.Executions != 10 || m.Queries != 1 || m.PaidCost <= 0 || m.ExpectedCost <= 0 {
						t.Errorf("metrics = %+v", m)
					}
				}},
		}},
		{caseID: "E00204", name: "batcher coalesces duplicate first-leaf pulls", steps: []e2eStep{
			registerHR,
			{"POST", "/queries", `{"id":"hr5","query":"AVG(heart-rate,5) > 90"}`, http.StatusCreated, nil},
			{"POST", "/queries", `{"id":"hr3","query":"AVG(heart-rate,3) > 95"}`, http.StatusCreated, nil},
			{"POST", "/tick", `{"steps":10}`, http.StatusOK, nil},
			{"GET", "/metrics", "", http.StatusOK,
				func(t *testing.T, body []byte) {
					var m service.Metrics
					mustDecode(t, body, &m)
					if m.DuplicatePullsAvoided == 0 || m.BatchedItems == 0 {
						t.Errorf("no batching recorded for overlapping queries: %+v", m)
					}
				}},
		}},
		{caseID: "E00205", name: "per-query executor kind and adaptive count", server: adaptiveServer, steps: []e2eStep{
			{"POST", "/queries", `{"id":"q","query":"heart-rate > 100 [p=0.5] OR spo2 < 92 [p=0.3]"}`, http.StatusCreated, nil},
			{"POST", "/tick", `{"steps":5}`, http.StatusOK, nil},
			{"GET", "/queries", "", http.StatusOK,
				func(t *testing.T, body []byte) {
					var ms []service.QueryMetrics
					mustDecode(t, body, &ms)
					if len(ms) != 1 || ms[0].Executor != "adaptive" || ms[0].AdaptiveExecutions == 0 {
						t.Errorf("query metrics = %+v, want adaptive executions", ms)
					}
				}},
		}},
		{caseID: "E00301", name: "cross-tenant sharing avoids duplicate pulls", steps: []e2eStep{
			// Two tenants over overlapping streams: the joint planner
			// coalesces their opening windows, so missing items wanted by
			// both are pulled exactly once.
			{"POST", "/queries", `{"id":"a/load","query":"AVG(heart-rate,6) > 90 AND spo2 < 97"}`, http.StatusCreated, nil},
			{"POST", "/queries", `{"id":"b/load","query":"AVG(heart-rate,6) > 95 AND accelerometer < 25"}`, http.StatusCreated, nil},
			{"POST", "/queries", `{"id":"b/rest","query":"AVG(heart-rate,4) < 70 OR spo2 > 93"}`, http.StatusCreated, nil},
			{"POST", "/tick", `{"steps":12}`, http.StatusOK, nil},
			{"GET", "/metrics", "", http.StatusOK,
				func(t *testing.T, body []byte) {
					var m service.Metrics
					mustDecode(t, body, &m)
					if m.DuplicatePullsAvoided == 0 {
						t.Errorf("overlapping tenants avoided no duplicate pulls: %+v", m)
					}
					if m.FleetPlans == 0 || m.FleetPlannedExecutions == 0 {
						t.Errorf("no fleet planning recorded: %+v", m)
					}
					if m.FleetExpectedCost > m.IndependentExpectedCost+1e-9 {
						t.Errorf("joint model %v exceeds independent %v", m.FleetExpectedCost, m.IndependentExpectedCost)
					}
				}},
		}},
		{caseID: "E00302", name: "per-stream metrics exposed", steps: []e2eStep{
			registerHR,
			{"POST", "/queries", `{"id":"hr5","query":"AVG(heart-rate,5) > 90"}`, http.StatusCreated, nil},
			{"POST", "/queries", `{"id":"ox","query":"AVG(spo2,3) < 95"}`, http.StatusCreated, nil},
			{"POST", "/tick", `{"steps":10}`, http.StatusOK, nil},
			{"GET", "/metrics", "", http.StatusOK,
				func(t *testing.T, body []byte) {
					var m service.Metrics
					mustDecode(t, body, &m)
					if len(m.PerStream) == 0 {
						t.Fatalf("no per-stream metrics: %+v", m)
					}
					byName := map[string]service.StreamMetrics{}
					for _, ps := range m.PerStream {
						byName[ps.Name] = ps
					}
					hr, ok := byName["heart-rate"]
					if !ok || hr.Requested == 0 || hr.Transferred == 0 {
						t.Errorf("heart-rate stream metrics missing or empty: %+v", m.PerStream)
					}
					if hr.HitRate <= 0 {
						t.Errorf("heart-rate hit rate not tracked: %+v", hr)
					}
					if byName["temperature"].Requested != 0 {
						t.Errorf("unused stream shows traffic: %+v", byName["temperature"])
					}
				}},
		}},
		{caseID: "E00303", name: "fleet-planned executions flagged", steps: []e2eStep{
			registerHR,
			{"POST", "/queries", `{"id":"hr2","query":"AVG(heart-rate,5) > 90"}`, http.StatusCreated, nil},
			{"POST", "/tick", `{"steps":3}`, http.StatusOK, nil},
			{"GET", "/results/hr?n=1", "", http.StatusOK,
				func(t *testing.T, body []byte) {
					var res []service.Execution
					mustDecode(t, body, &res)
					if len(res) != 1 || !res[0].FleetPlanned {
						t.Errorf("execution = %+v, want fleet_planned", res)
					}
				}},
		}},

		{caseID: "E00401", name: "drift scenario trips detectors and forces replans", server: driftServer(40), steps: []e2eStep{
			// Register over the regime streams, tick through the shift at
			// 40, and observe the adaptation loop close via /metrics.
			{"POST", "/queries", `{"id":"or","query":"r0 < 0.5 OR r1 < 0.5 OR r2 < 0.5 OR r3 < 0.5"}`, http.StatusCreated, nil},
			{"POST", "/queries", `{"id":"and","query":"r3 < 0.5 AND r0 < 0.5"}`, http.StatusCreated, nil},
			{"POST", "/tick", `{"steps":160}`, http.StatusOK, nil},
			{"GET", "/metrics", "", http.StatusOK,
				func(t *testing.T, body []byte) {
					var m service.Metrics
					mustDecode(t, body, &m)
					if m.Estimator != "windowed" || m.EstimatorWindow == 0 {
						t.Errorf("estimator state missing: %+v", m)
					}
					if m.PredicateDetectorTrips == 0 {
						t.Errorf("no predicate detector trips across the shift: %+v", m)
					}
					if m.ReplansForced == 0 {
						t.Errorf("detector trips forced no replans: %+v", m)
					}
					for _, ps := range m.PerStream {
						if ps.Name == "r0" && ps.CostDetectorTrips == 0 {
							t.Errorf("r0 cost shift (1→6 J/item) undetected: %+v", ps)
						}
						if ps.Name == "r0" && ps.LearnedCostPerItem < 3 {
							t.Errorf("r0 learned cost %.2f, want re-learned toward 6", ps.LearnedCostPerItem)
						}
					}
				}},
		}},
		{caseID: "E00402", name: "stationary run stays quiet", server: driftServer(0), steps: []e2eStep{
			// shift-tick 0 never shifts: same streams, one regime — the
			// detectors must not trip and no replans may be forced.
			{"POST", "/queries", `{"id":"or","query":"r0 < 0.5 OR r1 < 0.5 OR r2 < 0.5 OR r3 < 0.5"}`, http.StatusCreated, nil},
			{"POST", "/tick", `{"steps":160}`, http.StatusOK, nil},
			{"GET", "/metrics", "", http.StatusOK,
				func(t *testing.T, body []byte) {
					var m service.Metrics
					mustDecode(t, body, &m)
					if m.PredicateDetectorTrips != 0 || m.CostDetectorTrips != 0 || m.ReplansForced != 0 {
						t.Errorf("stationary run reported adaptive activity: %+v", m)
					}
					if m.AvgCIWidth <= 0 || m.AvgCIWidth > 0.6 {
						t.Errorf("avg CI width %.2f after 160 ticks, want tightened evidence", m.AvgCIWidth)
					}
				}},
		}},

		{caseID: "E00501", name: "sharded register, tick and per-shard results", server: shardedServer, steps: []e2eStep{
			{"POST", "/queries", `{"id":"a/tachy","query":"AVG(heart-rate,5) > 100 AND accelerometer < 12"}`, http.StatusCreated, nil},
			{"POST", "/queries", `{"id":"b/workout","query":"accelerometer > 15 AND heart-rate > 100"}`, http.StatusCreated, nil},
			{"POST", "/queries", `{"id":"b/hypoxia","query":"spo2 < 92 OR heart-rate > 110"}`, http.StatusCreated, nil},
			{"POST", "/queries", `{"id":"c/heat","query":"AVG(temperature,6) > 24 AND heart-rate > 90"}`, http.StatusCreated, nil},
			{"POST", "/tick", `{"steps":5}`, http.StatusOK,
				func(t *testing.T, body []byte) {
					var ticks []service.TickResult
					mustDecode(t, body, &ticks)
					if len(ticks) != 5 || len(ticks[4].Executions) != 4 {
						t.Fatalf("ticks = %+v", ticks)
					}
					shards := map[int]bool{}
					for _, e := range ticks[4].Executions {
						if e.Err != "" {
							t.Errorf("execution error: %+v", e)
						}
						shards[e.Shard] = true
					}
					if len(shards) < 2 {
						t.Errorf("4 queries all executed on %d shard(s); want a real split", len(shards))
					}
				}},
			{"GET", "/results/a/tachy?n=3", "", http.StatusOK,
				func(t *testing.T, body []byte) {
					var res []service.Execution
					mustDecode(t, body, &res)
					if len(res) != 3 {
						t.Errorf("results = %+v", res)
					}
				}},
		}},
		{caseID: "E00502", name: "sharded metrics expose per-shard and sharing-lost state", server: shardedServer, steps: []e2eStep{
			{"POST", "/queries", `{"id":"t0","query":"AVG(heart-rate,5) > 100 OR spo2 < 92"}`, http.StatusCreated, nil},
			{"POST", "/queries", `{"id":"t1","query":"AVG(heart-rate,5) > 95 OR accelerometer > 15"}`, http.StatusCreated, nil},
			{"POST", "/queries", `{"id":"t2","query":"heart-rate > 110 OR gps-speed > 1.5"}`, http.StatusCreated, nil},
			{"POST", "/tick", `{"steps":20}`, http.StatusOK, nil},
			{"GET", "/metrics", "", http.StatusOK,
				func(t *testing.T, body []byte) {
					var m service.Metrics
					mustDecode(t, body, &m)
					if m.Shards != 4 || len(m.PerShard) != 4 {
						t.Fatalf("shards = %d, per_shard = %d entries", m.Shards, len(m.PerShard))
					}
					var execs int64
					for _, ps := range m.PerShard {
						execs += ps.Executions
					}
					if execs != m.Executions || m.Executions != 60 {
						t.Errorf("per-shard executions %d vs fleet %d (want 60)", execs, m.Executions)
					}
					if m.ShardJointExpectedCost <= 0 || m.SingleJointExpectedCost <= 0 {
						t.Errorf("sharing-loss model absent: %+v", m)
					}
					if m.ShardJointExpectedCost < m.SingleJointExpectedCost-1e-9 || m.SharingLostPct < 0 {
						t.Errorf("sharing-loss inverted: shard %v vs single %v (%v%%)",
							m.ShardJointExpectedCost, m.SingleJointExpectedCost, m.SharingLostPct)
					}
					// Overlapping heart-rate queries split across shards
					// must re-pull items some other shard already paid for.
					if m.CrossShardDuplicateTransfers == 0 {
						t.Error("no cross-shard duplicate transfers on an overlapping fleet")
					}
				}},
		}},
		{caseID: "E00503", name: "one-shard server matches the plain service", server: oneShardServer, steps: []e2eStep{
			{"POST", "/queries", `{"id":"hr","query":"AVG(heart-rate,5) > 100 OR spo2 < 92"}`, http.StatusCreated, nil},
			{"POST", "/tick", `{"steps":15}`, http.StatusOK,
				func(t *testing.T, body []byte) {
					// Replay the same fleet on a plain unsharded service over
					// identically seeded streams: the serialized tick results
					// must match byte for byte.
					plain := service.New(stream.Wearables(1),
						service.WithWorkers(4),
						service.WithEngineOptions(engine.WithReplanThreshold(0.02)))
					if err := plain.Register("hr", "AVG(heart-rate,5) > 100 OR spo2 < 92"); err != nil {
						t.Fatal(err)
					}
					want, err := json.Marshal(plain.Run(15))
					if err != nil {
						t.Fatal(err)
					}
					var sharded []service.TickResult
					mustDecode(t, body, &sharded)
					got, err := json.Marshal(sharded)
					if err != nil {
						t.Fatal(err)
					}
					if string(got) != string(want) {
						t.Errorf("one-shard results diverge from the plain service:\n got %.200s\nwant %.200s", got, want)
					}
				}},
			{"GET", "/metrics", "", http.StatusOK,
				func(t *testing.T, body []byte) {
					var m service.Metrics
					mustDecode(t, body, &m)
					if m.Shards != 1 {
						t.Errorf("shards = %d, want 1", m.Shards)
					}
					if m.CrossShardDuplicateTransfers != 0 || m.SharingLostPct != 0 {
						t.Errorf("one shard reported sharing loss: %+v", m)
					}
				}},
		}},

		{caseID: "E00701", name: "relay serves cross-shard L1 misses", server: relayShardedServer(0.1), steps: []e2eStep{
			// The E00502 fleet with the relay on: overlapping heart-rate
			// queries split across shards race within each tick, so the
			// first shard to pull an item pays full price and the rest
			// take it from the relay at the transfer fraction.
			{"POST", "/queries", `{"id":"t0","query":"AVG(heart-rate,5) > 100 OR spo2 < 92"}`, http.StatusCreated, nil},
			{"POST", "/queries", `{"id":"t1","query":"AVG(heart-rate,5) > 95 OR accelerometer > 15"}`, http.StatusCreated, nil},
			{"POST", "/queries", `{"id":"t2","query":"heart-rate > 110 OR gps-speed > 1.5"}`, http.StatusCreated, nil},
			{"POST", "/tick", `{"steps":20}`, http.StatusOK, nil},
			{"GET", "/metrics", "", http.StatusOK,
				func(t *testing.T, body []byte) {
					var m service.Metrics
					mustDecode(t, body, &m)
					if !m.RelayEnabled || m.RelayTransferFrac != 0.1 {
						t.Fatalf("relay not enabled at frac 0.1: %+v", m)
					}
					if m.RelayHits == 0 || m.RelayPurchases == 0 {
						t.Errorf("no relay traffic: hits=%d purchases=%d", m.RelayHits, m.RelayPurchases)
					}
					if m.RelayTransferSpend <= 0 || m.RelaySavedSpend <= 0 {
						t.Errorf("relay spend unaccounted: transfer=%v saved=%v",
							m.RelayTransferSpend, m.RelaySavedSpend)
					}
					if m.SharingLostPct > 0 && m.SharingLostPctRelay >= m.SharingLostPct {
						t.Errorf("relayed loss %.1f%% not below raw loss %.1f%%",
							m.SharingLostPctRelay, m.SharingLostPct)
					}
				}},
		}},
		remoteRelayCase(),
		{caseID: "E00703", name: "transfer-cost fraction prices relay traffic", server: relayShardedServer(0.5), steps: []e2eStep{
			{"POST", "/queries", `{"id":"t0","query":"AVG(heart-rate,5) > 100 OR spo2 < 92"}`, http.StatusCreated, nil},
			{"POST", "/queries", `{"id":"t1","query":"AVG(heart-rate,5) > 95 OR accelerometer > 15"}`, http.StatusCreated, nil},
			{"POST", "/queries", `{"id":"t2","query":"heart-rate > 110 OR gps-speed > 1.5"}`, http.StatusCreated, nil},
			{"POST", "/tick", `{"steps":20}`, http.StatusOK, nil},
			{"GET", "/metrics", "", http.StatusOK,
				func(t *testing.T, body []byte) {
					var m service.Metrics
					mustDecode(t, body, &m)
					// Per-item relay pricing: every hit pays frac of the
					// item's acquisition cost and saves the rest, so across
					// any traffic transfer/(transfer+saved) == frac, and the
					// modelled residual loss is frac of the raw loss.
					checkFrac := func(m service.Metrics, frac float64) {
						if m.RelayTransferFrac != frac {
							t.Errorf("transfer frac %v, want %v", m.RelayTransferFrac, frac)
						}
						if total := m.RelayTransferSpend + m.RelaySavedSpend; total > 0 {
							if ratio := m.RelayTransferSpend / total; ratio < frac-1e-6 || ratio > frac+1e-6 {
								t.Errorf("frac %v: transfer/(transfer+saved) = %v", frac, ratio)
							}
						} else if m.RelayHits > 0 {
							t.Errorf("frac %v: hits without spend accounting", frac)
						}
						if want := frac * m.SharingLostPct; m.SharingLostPctRelay < want-1e-6 || m.SharingLostPctRelay > want+1e-6 {
							t.Errorf("frac %v: relayed loss %.3f%%, want frac x raw = %.3f%%",
								frac, m.SharingLostPctRelay, want)
						}
					}
					checkFrac(m, 0.5)
					// Sweep the fraction across the same fleet in-process:
					// the pricing identities must hold at every frac, and
					// frac 1 must degenerate to no saving at all.
					for _, frac := range []float64{0.1, 1} {
						svc, err := newServiceWith(serviceConfig{
							seed: 1, workers: 4, replan: 0.02,
							executor: "linear",
							shards:   4, relayFrac: frac,
						})
						if err != nil {
							t.Fatal(err)
						}
						for _, q := range []struct{ id, text string }{
							{"t0", "AVG(heart-rate,5) > 100 OR spo2 < 92"},
							{"t1", "AVG(heart-rate,5) > 95 OR accelerometer > 15"},
							{"t2", "heart-rate > 110 OR gps-speed > 1.5"},
						} {
							if err := svc.Register(q.id, q.text); err != nil {
								t.Fatal(err)
							}
						}
						svc.Run(20)
						sm := svc.Metrics()
						checkFrac(sm, frac)
						if frac == 1 && sm.RelaySavedSpend != 0 {
							t.Errorf("frac 1 saved %v J, want 0 (transfers cost full price)", sm.RelaySavedSpend)
						}
					}
				}},
		}},

		{caseID: "E00206", name: "realized-vs-expected ratio", steps: []e2eStep{
			// The first scheduled leaf is pre-pulled by the batcher, but
			// heart-rate never exceeds 500, so the OR always evaluates the
			// other leaf too and the query pays for it itself.
			{"POST", "/queries", `{"id":"hr","query":"heart-rate > 500 OR spo2 > 0"}`, http.StatusCreated, nil},
			{"POST", "/tick", `{"steps":10}`, http.StatusOK, nil},
			{"GET", "/metrics", "", http.StatusOK,
				func(t *testing.T, body []byte) {
					var m service.Metrics
					mustDecode(t, body, &m)
					if m.RealizedOverExpected <= 0 {
						t.Errorf("fleet ratio missing: %+v", m)
					}
				}},
			{"GET", "/queries", "", http.StatusOK,
				func(t *testing.T, body []byte) {
					var qs []service.QueryMetrics
					mustDecode(t, body, &qs)
					if len(qs) != 1 || qs[0].RealizedOverExpected <= 0 {
						t.Errorf("per-query ratio missing: %+v", qs)
					}
				}},
		}},

		registrationStormCase(),
		{caseID: "E00602", name: "incremental replan after drift and churn", server: driftChurnServer, steps: []e2eStep{
			// Plan a stable fleet through the regime shift at tick 40, then
			// unregister one query: the next tick must absorb the churn by
			// patching the cached joint plan — survivors keep their
			// schedules — rather than replanning the whole fleet.
			{"POST", "/queries", `{"id":"or1","query":"r0 < 0.5 OR r1 < 0.5"}`, http.StatusCreated, nil},
			{"POST", "/queries", `{"id":"or2","query":"r1 < 0.5 OR r2 < 0.5"}`, http.StatusCreated, nil},
			{"POST", "/queries", `{"id":"or3","query":"r2 < 0.5 OR r3 < 0.5"}`, http.StatusCreated, nil},
			{"POST", "/queries", `{"id":"and4","query":"r3 < 0.5 AND r0 < 0.5"}`, http.StatusCreated, nil},
			{"POST", "/tick", `{"steps":120}`, http.StatusOK, nil},
			{"GET", "/metrics", "", http.StatusOK,
				func(t *testing.T, body []byte) {
					var m service.Metrics
					mustDecode(t, body, &m)
					if m.ReplansForced == 0 {
						t.Errorf("regime shift forced no replans: %+v", m)
					}
					preChurn = m.FleetPlanIncremental
				}},
			{"DELETE", "/queries/or2", "", http.StatusOK, nil},
			{"POST", "/tick", `{"steps":1}`, http.StatusOK, nil},
			{"GET", "/metrics", "", http.StatusOK,
				func(t *testing.T, body []byte) {
					var m service.Metrics
					mustDecode(t, body, &m)
					if m.Queries != 3 {
						t.Errorf("queries = %d after churn, want 3", m.Queries)
					}
					if m.FleetPlanIncremental <= preChurn {
						t.Errorf("post-churn tick full-replanned the fleet: plan_incremental %d -> %d",
							preChurn, m.FleetPlanIncremental)
					}
					if m.PlanNanos <= 0 {
						t.Errorf("plan_ns not accounted: %d", m.PlanNanos)
					}
				}},
		}},

		twinStormCase(),
		{caseID: "E00802", name: "unregister of one subscriber leaves the class live", steps: []e2eStep{
			// Three twins share one shape; a fourth query holds its own.
			{"POST", "/queries", `{"id":"tw0","query":"AVG(heart-rate,5) > 100 OR spo2 < 92"}`, http.StatusCreated, nil},
			{"POST", "/queries", `{"id":"tw1","query":"AVG(heart-rate,5) > 100 OR spo2 < 92"}`, http.StatusCreated, nil},
			{"POST", "/queries", `{"id":"tw2","query":"AVG(heart-rate,5) > 100 OR spo2 < 92"}`, http.StatusCreated, nil},
			{"POST", "/queries", `{"id":"solo","query":"accelerometer > 15"}`, http.StatusCreated, nil},
			{"POST", "/tick", `{"steps":5}`, http.StatusOK, nil},
			{"GET", "/metrics", "", http.StatusOK,
				func(t *testing.T, body []byte) {
					var m service.Metrics
					mustDecode(t, body, &m)
					if m.DistinctShapes != 2 || m.ShapeSubscribers != 4 {
						t.Fatalf("census before churn: %d classes / %d subscribers, want 2 / 4",
							m.DistinctShapes, m.ShapeSubscribers)
					}
					if m.SharedExecutions != 10 {
						t.Errorf("shared executions = %d, want 10 (two non-leader twins x five ticks)", m.SharedExecutions)
					}
				}},
			{"DELETE", "/queries/tw1", "", http.StatusOK, nil},
			{"POST", "/tick", `{"steps":1}`, http.StatusOK, nil},
			{"GET", "/metrics", "", http.StatusOK,
				func(t *testing.T, body []byte) {
					var m service.Metrics
					mustDecode(t, body, &m)
					// The class outlives the departed subscriber: the two
					// remaining twins still share one shape.
					if m.DistinctShapes != 2 || m.ShapeSubscribers != 3 {
						t.Errorf("census after churn: %d classes / %d subscribers, want 2 / 3",
							m.DistinctShapes, m.ShapeSubscribers)
					}
					if m.SharedExecutions != 11 {
						t.Errorf("shared executions = %d, want 11", m.SharedExecutions)
					}
				}},
			{"GET", "/results/tw2?n=1", "", http.StatusOK,
				func(t *testing.T, body []byte) {
					var res []service.Execution
					mustDecode(t, body, &res)
					if len(res) != 1 || res[0].Tick != 6 || !res[0].Shared || res[0].Cost != 0 {
						t.Errorf("surviving twin's execution = %+v, want shared at tick 6 for free", res)
					}
				}},
		}},
		{caseID: "E00803", name: "metrics expose the shape-class census", steps: []e2eStep{
			{"POST", "/queries", `{"id":"a/alert","query":"AVG(heart-rate,5) > 100 AND spo2 < 95"}`, http.StatusCreated, nil},
			{"POST", "/queries", `{"id":"b/alert","query":"AVG(heart-rate,5) > 100 AND spo2 < 95"}`, http.StatusCreated, nil},
			{"POST", "/queries", `{"id":"c/uniq","query":"gps-speed > 1.5"}`, http.StatusCreated, nil},
			{"POST", "/tick", `{"steps":3}`, http.StatusOK, nil},
			{"GET", "/metrics", "", http.StatusOK,
				func(t *testing.T, body []byte) {
					for _, field := range []string{`"shape_factoring"`, `"distinct_shapes"`, `"shape_subscribers"`, `"shared_executions"`} {
						if !strings.Contains(string(body), field) {
							t.Errorf("/metrics missing %s", field)
						}
					}
					var m service.Metrics
					mustDecode(t, body, &m)
					if !m.ShapeFactoring || m.DistinctShapes != 2 || m.ShapeSubscribers != 3 || m.SharedExecutions != 3 {
						t.Errorf("census = factoring %v, %d classes / %d subscribers / %d shared, want on, 2 / 3 / 3",
							m.ShapeFactoring, m.DistinctShapes, m.ShapeSubscribers, m.SharedExecutions)
					}
				}},
		}},
	}
	cases = append(cases, obsCases()...)
	cases = append(cases, admitCases()...)
	return append(cases, remoteIDEscapeCase())
}

func mustDecode(t *testing.T, body []byte, out any) {
	t.Helper()
	if err := json.Unmarshal(body, out); err != nil {
		t.Fatalf("decoding %s: %v", body, err)
	}
}

func wantErrorBody(t *testing.T, body []byte) {
	t.Helper()
	var e map[string]string
	mustDecode(t, body, &e)
	if e["error"] == "" {
		t.Errorf("error response missing error field: %s", body)
	}
}

// TestCaseCatalog runs every case of TESTCASES.md end to end against a
// live server.
func TestCaseCatalog(t *testing.T) {
	for _, c := range e2eCases() {
		t.Run(c.caseID+"_"+strings.ReplaceAll(c.name, " ", "_"), func(t *testing.T) {
			newSrv := c.server
			if newSrv == nil {
				newSrv = testServer
			}
			srv := newSrv(t)
			for i, step := range c.steps {
				req, err := http.NewRequest(step.method, srv.URL+step.path, strings.NewReader(step.body))
				if err != nil {
					t.Fatal(err)
				}
				resp, err := http.DefaultClient.Do(req)
				if err != nil {
					t.Fatal(err)
				}
				body, err := io.ReadAll(resp.Body)
				resp.Body.Close()
				if err != nil {
					t.Fatal(err)
				}
				if resp.StatusCode != step.wantStatus {
					t.Fatalf("step %d %s %s: status %d, want %d (body %s)",
						i, step.method, step.path, resp.StatusCode, step.wantStatus, body)
				}
				if step.check != nil {
					step.check(t, body)
				}
			}
		})
	}
}

// TestCatalogInSync checks that every implemented case id appears in
// TESTCASES.md and vice versa, keeping the spiderpool-style catalog and
// the suite in lockstep.
func TestCatalogInSync(t *testing.T) {
	md, err := os.ReadFile("TESTCASES.md")
	if err != nil {
		t.Fatal(err)
	}
	catalog := map[string]bool{}
	for _, line := range strings.Split(string(md), "\n") {
		if !strings.HasPrefix(line, "| E") {
			continue
		}
		fields := strings.Split(line, "|")
		if len(fields) > 1 {
			catalog[strings.TrimSpace(fields[1])] = true
		}
	}
	impl := map[string]bool{}
	for _, c := range e2eCases() {
		impl[c.caseID] = true
		if !catalog[c.caseID] {
			t.Errorf("case %s implemented but missing from TESTCASES.md", c.caseID)
		}
	}
	for id := range catalog {
		if !impl[id] {
			t.Errorf("case %s catalogued in TESTCASES.md but not implemented", id)
		}
	}
}
