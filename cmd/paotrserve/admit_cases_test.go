// End-to-end admission-control cases (E01001..E01004 of TESTCASES.md):
// tiered registration through the HTTP API against a gated runtime,
// driving the 429/Retry-After surface, the defer queue, and the
// /metrics backpressure exposition.
package main

import (
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"paotr/internal/admit"
	"paotr/internal/service"
)

// admitServer serves a gated runtime with the given admission knobs,
// mirroring `paotrserve -admit -admit-rate ... -admit-burst ...`. The
// returned gate pointer lets cases drive controller drills (forced
// overload) that would otherwise need a saturating load.
func admitServer(rate, burst float64, gate **service.AdmissionGate) func(t *testing.T) *httptest.Server {
	return func(t *testing.T) *httptest.Server {
		t.Helper()
		svc, err := newServiceWith(serviceConfig{
			seed: 1, workers: 4, replan: 0.02,
			executor: "linear",
			admit:    true, admitRate: rate, admitBurst: burst, admitWindow: 8,
		})
		if err != nil {
			t.Fatal(err)
		}
		g, ok := svc.(*service.AdmissionGate)
		if !ok {
			t.Fatalf("admit server runtime is %T, want *service.AdmissionGate", svc)
		}
		if gate != nil {
			*gate = g
		}
		srv := httptest.NewServer(newServer(svc, -1))
		t.Cleanup(srv.Close)
		return srv
	}
}

// decodeAdmission decodes a 429 body.
func decodeAdmission(t *testing.T, body []byte) admissionResponse {
	t.Helper()
	var ar admissionResponse
	mustDecode(t, body, &ar)
	if ar.Error == "" {
		t.Errorf("429 body missing error: %s", body)
	}
	return ar
}

// admitCases are the admission rows of TESTCASES.md.
func admitCases() []e2eCase {
	// E01002 keeps a handle on its gate so a case step can force the
	// overload verdict (the controller's drill hook) without having to
	// saturate a real tick SLO from a unit test.
	var overloadGate *service.AdmissionGate
	return []e2eCase{
		{caseID: "E01001", name: "storm admission with headroom", server: admitServer(1e6, 1e6, nil), steps: []e2eStep{
			{"POST", "/queries", `{"id":"a/hr","query":"AVG(heart-rate,5) > 100","tier":"gold"}`, http.StatusCreated, nil},
			{"POST", "/queries", `{"id":"b/hr","query":"AVG(heart-rate,5) > 100","tier":"silver"}`, http.StatusCreated, nil},
			{"POST", "/queries", `{"id":"c/spo2","query":"spo2 < 92"}`, http.StatusCreated, nil},
			{"POST", "/queries", `{"id":"d/bad","query":"spo2 < 92","tier":"platinum"}`, http.StatusBadRequest, wantErrorBody},
			{"POST", "/tick", `{"steps":5}`, http.StatusOK, nil},
			{"GET", "/metrics", "", http.StatusOK,
				func(t *testing.T, body []byte) {
					var m service.Metrics
					mustDecode(t, body, &m)
					a := m.Admission
					if a == nil {
						t.Fatal("gated /metrics missing admission block")
					}
					admits := a.Decisions["gold"]["admit"] + a.Decisions["silver"]["admit"] + a.Decisions["bronze"]["admit"]
					if admits != 3 || a.Overloaded || a.DeferredPending != 0 {
						t.Errorf("admission census = %+v, want 3 admits, not overloaded, empty queue", a)
					}
					// The twin of a/hr is free; the distinct shapes paid.
					if a.AdmittedQuoteJ <= 0 {
						t.Errorf("admitted quote sum = %v, want > 0", a.AdmittedQuoteJ)
					}
					// Tenant d never reached the controller (unknown tier is a
					// 400 at the HTTP layer), so no bucket was opened for it.
					if len(a.Tenants) != 3 {
						t.Errorf("tenant census = %+v, want a,b,c", a.Tenants)
					}
				}},
			{"GET", "/metrics.prom", "", http.StatusOK,
				func(t *testing.T, body []byte) {
					for _, want := range []string{
						`paotr_admit_decisions_total{action="admit",tier="gold"} 1`,
						"paotr_admit_overloaded 0",
						"paotr_admit_deferred_pending 0",
						`paotr_journal_events_total{type="admit"} 3`,
					} {
						if !strings.Contains(string(body), want) {
							t.Errorf("/metrics.prom missing %q", want)
						}
					}
				}},
		}},
		{caseID: "E01002", name: "overload sheds bronze and defers silver, gold admits", server: admitServer(1e6, 1e6, &overloadGate), steps: []e2eStep{
			{"GET", "/healthz", "", http.StatusOK,
				func(t *testing.T, body []byte) { overloadGate.Controller().SetOverloaded(true) }},
			{"POST", "/queries", `{"id":"be/load","query":"accelerometer > 15","tier":"bronze"}`, http.StatusTooManyRequests,
				func(t *testing.T, body []byte) {
					ar := decodeAdmission(t, body)
					if ar.Decision.Action != admit.Shed || ar.Decision.Reason != "slo-burn" || ar.Queued {
						t.Errorf("bronze under overload = %+v, want shed slo-burn, not queued", ar)
					}
				}},
			{"POST", "/queries", `{"id":"biz/load","query":"accelerometer > 15","tier":"silver"}`, http.StatusTooManyRequests,
				func(t *testing.T, body []byte) {
					ar := decodeAdmission(t, body)
					if ar.Decision.Action != admit.Defer || !ar.Queued || ar.Decision.RetryAfterTicks <= 0 {
						t.Errorf("silver under overload = %+v, want queued defer with retry horizon", ar)
					}
				}},
			{"POST", "/queries", `{"id":"icu/alert","query":"accelerometer > 15","tier":"gold"}`, http.StatusCreated, nil},
			{"GET", "/metrics", "", http.StatusOK,
				func(t *testing.T, body []byte) {
					var m service.Metrics
					mustDecode(t, body, &m)
					a := m.Admission
					if a == nil || !a.Overloaded {
						t.Fatalf("admission block = %+v, want overloaded", a)
					}
					if a.Decisions["bronze"]["shed"] != 1 || a.Decisions["silver"]["defer"] != 1 || a.Decisions["gold"]["admit"] != 1 {
						t.Errorf("decision census = %+v", a.Decisions)
					}
					if a.ShedPrecision != 1 {
						t.Errorf("shed precision = %v, want 1 (no gold shed)", a.ShedPrecision)
					}
					if a.DeferredPending != 1 {
						t.Errorf("deferred pending = %d, want the parked silver query", a.DeferredPending)
					}
				}},
			{"GET", "/healthz", "", http.StatusOK,
				func(t *testing.T, body []byte) {
					// Overload clears: the parked silver registration admits at
					// a tick boundary past its retry horizon (one SLO window)
					// without a client retry.
					overloadGate.Controller().SetOverloaded(false)
					overloadGate.Run(10)
					ids := strings.Join(overloadGate.QueryIDs(), ",")
					if !strings.Contains(ids, "biz/load") {
						t.Errorf("deferred silver query not admitted after overload cleared: %s", ids)
					}
				}},
		}},
		{caseID: "E01003", name: "budget exhaustion 429 quotes the marginal cost", server: admitServer(0.05, 0.001, nil), steps: []e2eStep{
			{"POST", "/queries", `{"id":"t/pricey","query":"AVG(heart-rate,5) > 100 AND spo2 < 95"}`, http.StatusTooManyRequests,
				func(t *testing.T, body []byte) {
					ar := decodeAdmission(t, body)
					d := ar.Decision
					if d.Action != admit.Defer || d.Reason != "budget-exhausted" || !ar.Queued {
						t.Errorf("over-budget verdict = %+v, want queued budget-exhausted defer", ar)
					}
					if d.QuoteJ <= 0 {
						t.Errorf("429 body quotes no marginal cost: %+v", d)
					}
					if d.RetryAfterTicks <= 0 {
						t.Errorf("429 body carries no retry horizon: %+v", d)
					}
					if d.Tenant != "t" {
						t.Errorf("tenant = %q, want id prefix \"t\"", d.Tenant)
					}
				}},
			{"GET", "/queries", "", http.StatusOK,
				func(t *testing.T, body []byte) {
					var ms []service.QueryMetrics
					mustDecode(t, body, &ms)
					if len(ms) != 0 {
						t.Errorf("deferred query visible in /queries before admission: %+v", ms)
					}
				}},
		}},
		// E01004 drains tenant t's bucket with an admitted registration
		// (quote ~1.75 J/tick at seed 1 against a 2 J burst), so the next
		// distinct shape (~1.46 J/tick) must defer until refills cover it.
		{caseID: "E01004", name: "deferred registration eventually admits", server: admitServer(0.1, 2.0, nil), steps: []e2eStep{
			{"POST", "/queries", `{"id":"t/first","query":"AVG(heart-rate,5) > 100 AND spo2 < 95"}`, http.StatusCreated, nil},
			{"POST", "/queries", `{"id":"t/later","query":"accelerometer > 15"}`, http.StatusTooManyRequests,
				func(t *testing.T, body []byte) {
					ar := decodeAdmission(t, body)
					if ar.Decision.Action != admit.Defer || !ar.Queued {
						t.Errorf("verdict = %+v, want queued defer", ar)
					}
				}},
			// Tick past the refill horizon: the gate retries the parked
			// registration at tick boundaries and admits once the tenant's
			// bucket covers the quote.
			{"POST", "/tick", `{"steps":30}`, http.StatusOK, nil},
			{"GET", "/queries", "", http.StatusOK,
				func(t *testing.T, body []byte) {
					var ms []service.QueryMetrics
					mustDecode(t, body, &ms)
					found := false
					for _, m := range ms {
						if m.ID == "t/later" {
							found = true
							if m.Executions == 0 {
								t.Errorf("admitted query never executed: %+v", m)
							}
						}
					}
					if !found || len(ms) != 2 {
						t.Fatalf("deferred query not admitted after refill: %+v", ms)
					}
				}},
			{"GET", "/metrics", "", http.StatusOK,
				func(t *testing.T, body []byte) {
					var m service.Metrics
					mustDecode(t, body, &m)
					a := m.Admission
					if a == nil || a.DeferredPending != 0 {
						t.Fatalf("defer queue not drained: %+v", a)
					}
					if a.Decisions["bronze"]["defer"] < 1 || a.Decisions["bronze"]["admit"] != 2 {
						t.Errorf("decision census = %+v, want >=1 defer and 2 admits", a.Decisions)
					}
				}},
		}},
	}
}

// TestAdmitRetryAfterHeader pins the HTTP contract the e2e harness
// can't see (it only surfaces bodies): a deferred registration's 429
// carries Retry-After in ticks.
func TestAdmitRetryAfterHeader(t *testing.T) {
	srv := admitServer(0.05, 0.001, nil)(t)
	resp, err := http.Post(srv.URL+"/queries", "application/json",
		strings.NewReader(`{"id":"t/q","query":"spo2 < 92"}`))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status = %d, want 429", resp.StatusCode)
	}
	if ra := resp.Header.Get("Retry-After"); ra == "" || ra == "0" {
		t.Errorf("Retry-After header = %q, want a positive tick count", ra)
	}
}

// TestAdmitOffIsUngated pins -admit=false: the runtime is the plain
// service, registrations bypass admission entirely, and /metrics
// carries no admission block — byte-identical to the pre-admission
// server.
func TestAdmitOffIsUngated(t *testing.T) {
	svc, err := newServiceWith(serviceConfig{
		seed: 1, workers: 4, replan: 0.02,
		executor: "linear",
		admit:    false,
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, gated := svc.(*service.AdmissionGate); gated {
		t.Fatal("-admit=false still built a gated runtime")
	}
	if svc.Metrics().Admission != nil {
		t.Error("ungated runtime reports admission state")
	}
}
