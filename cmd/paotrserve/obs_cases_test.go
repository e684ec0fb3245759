package main

import (
	"bytes"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"paotr/internal/obs"
	"paotr/internal/service"
)

// tracingServer serves the default fleet with tick tracing on at the
// given period, mirroring `paotrserve -trace-sample <n>`.
func tracingServer(sample int) func(t *testing.T) *httptest.Server {
	return func(t *testing.T) *httptest.Server {
		t.Helper()
		svc, err := newServiceWith(serviceConfig{
			seed: 1, workers: 4, replan: 0.02,
			executor:    "linear",
			traceSample: sample,
		})
		if err != nil {
			t.Fatal(err)
		}
		srv := httptest.NewServer(newServer(svc, -1))
		t.Cleanup(srv.Close)
		return srv
	}
}

// obsCases are the observability rows of TESTCASES.md (E009xx): the
// Prometheus exposition, the event journal and the tick tracer, each
// exercised over a live server.
func obsCases() []e2eCase {
	return []e2eCase{
		{caseID: "E00901", name: "metrics.prom exposition lints and matches the fleet", steps: []e2eStep{
			{"POST", "/queries", `{"id":"hr","query":"AVG(heart-rate,5) > 100 AND accelerometer < 12"}`, http.StatusCreated, nil},
			{"POST", "/queries", `{"id":"ox","query":"spo2 < 92 OR heart-rate > 110"}`, http.StatusCreated, nil},
			{"POST", "/tick", `{"steps":10}`, http.StatusOK, nil},
			{"GET", "/metrics.prom", "", http.StatusOK,
				func(t *testing.T, body []byte) {
					rep, err := obs.LintProm(bytes.NewReader(body))
					if err != nil {
						t.Fatalf("exposition does not lint: %v\n%s", err, body)
					}
					if rep.Families < 20 || rep.Samples < rep.Families {
						t.Errorf("exposition too thin: %d families, %d samples", rep.Families, rep.Samples)
					}
					text := string(body)
					for _, want := range []string{
						"paotr_ticks_total 10",
						"paotr_queries 2",
						`paotr_tick_phase_seconds_bucket{le="+Inf",phase="total"} 10`,
						`paotr_detector_trips_total{kind="predicate"} 0`,
						"paotr_journal_events_dropped_total 0",
						"paotr_trace_sample_period 0",
					} {
						if !strings.Contains(text, want) {
							t.Errorf("exposition missing %q", want)
						}
					}
				}},
		}},
		{caseID: "E00902", name: "journal records drift trips across the regime shift", server: driftServer(40), steps: []e2eStep{
			{"POST", "/queries", `{"id":"or","query":"r0 < 0.5 OR r1 < 0.5 OR r2 < 0.5 OR r3 < 0.5"}`, http.StatusCreated, nil},
			{"POST", "/queries", `{"id":"and","query":"r3 < 0.5 AND r0 < 0.5"}`, http.StatusCreated, nil},
			{"POST", "/tick", `{"steps":160}`, http.StatusOK, nil},
			{"GET", "/debug/events?type=" + obs.EventDriftTrip, "", http.StatusOK,
				func(t *testing.T, body []byte) {
					var resp eventsResponse
					mustDecode(t, body, &resp)
					if len(resp.Events) == 0 {
						t.Fatalf("no drift-trip events after the regime shift: %s", body)
					}
					for _, ev := range resp.Events {
						if ev.Type != obs.EventDriftTrip {
							t.Errorf("type filter leaked event %+v", ev)
						}
						if ev.Tick < 40 {
							t.Errorf("drift trip before the shift at 40: %+v", ev)
						}
						if ev.Pred == "" && ev.Stream == 0 && ev.Detail == "" {
							t.Errorf("drift trip carries no context: %+v", ev)
						}
					}
					if resp.CountsByType[obs.EventDriftTrip] < int64(len(resp.Events)) {
						t.Errorf("counts_by_type %v below returned events %d", resp.CountsByType, len(resp.Events))
					}
					if resp.CountsByType[obs.EventForcedReplan] == 0 {
						t.Errorf("drift trips forced no replan events: %v", resp.CountsByType)
					}
				}},
			{"GET", "/debug/events?type=" + obs.EventForcedReplan + "&n=5", "", http.StatusOK,
				func(t *testing.T, body []byte) {
					var resp eventsResponse
					mustDecode(t, body, &resp)
					if len(resp.Events) == 0 || len(resp.Events) > 5 {
						t.Fatalf("n=5 filter returned %d events", len(resp.Events))
					}
					for _, ev := range resp.Events {
						if ev.Type != obs.EventForcedReplan {
							t.Errorf("type filter leaked event %+v", ev)
						}
					}
				}},
			{"GET", "/debug/events?n=0", "", http.StatusBadRequest, wantErrorBody},
		}},
		{caseID: "E00903", name: "tick traces agree with the metrics counters", server: tracingServer(1), steps: []e2eStep{
			{"POST", "/queries", `{"id":"hr","query":"AVG(heart-rate,5) > 100 AND accelerometer < 12"}`, http.StatusCreated, nil},
			{"POST", "/queries", `{"id":"ox","query":"spo2 < 92 OR heart-rate > 110"}`, http.StatusCreated, nil},
			{"POST", "/tick", `{"steps":6}`, http.StatusOK, nil},
			{"GET", "/debug/ticks", "", http.StatusOK,
				func(t *testing.T, body []byte) {
					var resp tickListResponse
					mustDecode(t, body, &resp)
					if resp.SamplePeriod != 1 || len(resp.Ticks) != 6 {
						t.Fatalf("sampling every tick over 6 ticks: period %d, %d sampled", resp.SamplePeriod, len(resp.Ticks))
					}
				}},
			{"GET", "/debug/ticks/4", "", http.StatusOK,
				func(t *testing.T, body []byte) {
					var resp tickTraceResponse
					mustDecode(t, body, &resp)
					if resp.Tick != 4 || len(resp.Traces) != 1 {
						t.Fatalf("tick 4 traces = %+v", resp)
					}
					tr := resp.Traces[0]
					if tr.Tick != 4 || tr.DueQueries != 2 || tr.TotalNs <= 0 {
						t.Errorf("trace = %+v", tr)
					}
					subs := 0
					for _, c := range tr.Classes {
						subs += c.Subscribers
						if c.Leader == "" || c.Shape == "" {
							t.Errorf("class trace missing identity: %+v", c)
						}
					}
					if subs != tr.DueQueries {
						t.Errorf("class subscribers %d != due queries %d", subs, tr.DueQueries)
					}
				}},
			{"GET", "/debug/ticks/9999", "", http.StatusNotFound, wantErrorBody},
			{"GET", "/metrics", "", http.StatusOK,
				func(t *testing.T, body []byte) {
					// The histogram and the tracer count the same ticks: with
					// sampling at every tick, the total-phase count equals the
					// tick counter and the sampled-tick census.
					var m service.Metrics
					mustDecode(t, body, &m)
					total, ok := m.TickLatency[obs.PhaseNames[obs.PhaseTotal]]
					if !ok || total.Count != m.Ticks || m.Ticks != 6 {
						t.Errorf("tick_latency total count = %+v, ticks = %d, want both 6", total, m.Ticks)
					}
				}},
			{"PUT", "/debug/trace-sample", `{"period":0}`, http.StatusOK,
				func(t *testing.T, body []byte) {
					var resp map[string]int
					mustDecode(t, body, &resp)
					if resp["period"] != 0 {
						t.Errorf("trace-sample not disabled: %v", resp)
					}
				}},
		}},
		{caseID: "E00904", name: "every counter on metrics.prom matches metrics, unsharded", steps: counterParitySteps()},
		{caseID: "E00904", name: "every counter on metrics.prom matches metrics, 4 shards with the relay",
			server: relayShardedServer(0.1), steps: counterParitySteps()},
	}
}

// counterParitySteps drives a fleet with twins, reads GET /metrics and
// then GET /metrics.prom, and requires every service.Counters key the
// JSON reports to equal its exposition sample (see counterSamples).
// Nothing ticks between the two reads, so the counters cannot move.
func counterParitySteps() []e2eStep {
	var js map[string]any
	return []e2eStep{
		{"POST", "/queries", `{"id":"hr","query":"AVG(heart-rate,5) > 100 AND accelerometer < 12"}`, http.StatusCreated, nil},
		{"POST", "/queries", `{"id":"hr-twin","query":"accelerometer < 12 AND AVG(heart-rate,5) > 100"}`, http.StatusCreated, nil},
		{"POST", "/queries", `{"id":"ox","query":"spo2 < 92 OR heart-rate > 110"}`, http.StatusCreated, nil},
		{"POST", "/queries", `{"id":"move","query":"accelerometer > 15 OR gps-speed > 1.5"}`, http.StatusCreated, nil},
		{"POST", "/queries", `{"id":"env","query":"temperature > 24 OR (accelerometer > 20 AND gps-speed > 1.0)"}`, http.StatusCreated, nil},
		{"POST", "/queries", `{"id":"ad","query":"AVG(spo2,3) < 95 AND heart-rate > 90","executor":"adaptive"}`, http.StatusCreated, nil},
		{"POST", "/tick", `{"steps":40}`, http.StatusOK, nil},
		{"GET", "/metrics", "", http.StatusOK, func(t *testing.T, body []byte) {
			js = nil
			mustDecode(t, body, &js)
		}},
		{"GET", "/metrics.prom", "", http.StatusOK, func(t *testing.T, body []byte) {
			if _, err := obs.LintProm(bytes.NewReader(body)); err != nil {
				t.Fatalf("exposition does not lint: %v\n%s", err, body)
			}
			samples := promSamples(t, body)
			for key, cs := range counterSamples(t) {
				jv, inJSON := js[key]
				pv, inProm := samples[cs.sample]
				switch {
				case inJSON && !inProm:
					t.Errorf("/metrics reports %s = %v, /metrics.prom has no %s", key, jv, cs.sample)
				case inProm:
					want := 0.0 // a zero omitted from the JSON
					if inJSON {
						want = jv.(float64) / cs.div
					}
					if pv != want {
						t.Errorf("%s = %v on /metrics.prom, want %v from /metrics %s", cs.sample, pv, want, key)
					}
				}
			}
		}},
	}
}

// TestPprofNamedProfiles pins the named-profile routes: with -pprof on,
// every named runtime profile must resolve explicitly (not just the
// index page), so registering more-specific /debug/... routes can never
// shadow them.
func TestPprofNamedProfiles(t *testing.T) {
	s := newServer(newService(1, 1, 0.02), -1)
	s.enablePprof()
	srv := httptest.NewServer(s)
	defer srv.Close()
	for _, name := range []string{"goroutine", "heap", "allocs", "threadcreate", "block", "mutex"} {
		resp, err := http.Get(srv.URL + "/debug/pprof/" + name + "?debug=1")
		if err != nil {
			t.Fatal(err)
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusOK || len(body) == 0 {
			t.Errorf("profile %s: status %d, %d bytes", name, resp.StatusCode, len(body))
		}
	}
}

// TestMetricsPromShardedLints: the sharded runtime's exposition (merged
// histograms, per-shard series, repartition counters) must lint too.
func TestMetricsPromSharded(t *testing.T) {
	srv := shardedServer(t)
	for _, q := range []string{
		`{"id":"t0","query":"AVG(heart-rate,5) > 100 OR spo2 < 92"}`,
		`{"id":"t1","query":"accelerometer > 15 OR gps-speed > 1.5"}`,
	} {
		if resp := doJSON(t, "POST", srv.URL+"/queries", q, nil); resp.StatusCode != http.StatusCreated {
			t.Fatalf("register status = %d", resp.StatusCode)
		}
	}
	doJSON(t, "POST", srv.URL+"/tick", `{"steps":8}`, nil)
	resp, err := http.Get(srv.URL + "/metrics.prom")
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("metrics.prom status = %d", resp.StatusCode)
	}
	if _, err := obs.LintProm(bytes.NewReader(body)); err != nil {
		t.Fatalf("sharded exposition does not lint: %v\n%s", err, body)
	}
	text := string(body)
	for _, want := range []string{"paotr_shards 4", `paotr_shard_tick_seconds_count{shard="0"}`} {
		if !strings.Contains(text, want) {
			t.Errorf("sharded exposition missing %q", want)
		}
	}
}

// TestMetricsJSONStillServesTickLatency: the JSON endpoint carries the
// histogram snapshots the exposition is rendered from.
func TestMetricsJSONTickLatency(t *testing.T) {
	srv := testServer(t)
	doJSON(t, "POST", srv.URL+"/queries", `{"id":"hr","query":"heart-rate > 100"}`, nil)
	doJSON(t, "POST", srv.URL+"/tick", `{"steps":5}`, nil)
	var m service.Metrics
	doJSON(t, "GET", srv.URL+"/metrics", "", &m)
	for _, phase := range obs.PhaseNames {
		s, ok := m.TickLatency[phase]
		if !ok || s.Count != 5 {
			t.Errorf("phase %s: snapshot %+v, want count 5", phase, s)
		}
	}
	if total := m.TickLatency["total"]; total.P50Ns <= 0 || total.P99Ns < total.P50Ns {
		t.Errorf("quantiles not populated: %+v", m.TickLatency["total"])
	}
}
