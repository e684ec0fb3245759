package main

import (
	"encoding/json"
	"io"
	"os"
	"sort"
	"testing"
)

type spec struct {
	Workloads []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []bound `json:"end_to_end"`
	PerLayer []bound `json:"per_layer"`
}

func readSpec(t *testing.T) spec {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var s spec
	if err := json.Unmarshal(b, &s); err != nil {
		t.Fatal(err)
	}
	return s
}

func TestCompareSelftest(t *testing.T) {
	if err := compareSelftest(readSpec(t).EndToEnd, io.Discard); err != nil {
		t.Fatal(err)
	}
}

// BENCHMARK.json lists exactly the workloads and metrics the benchmark
// reports, with the same units.
func TestSpecMatchesBenchmark(t *testing.T) {
	s := readSpec(t)
	if len(s.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the benchmark has %d", len(s.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if s.Workloads[i].Name != w.Name || s.Workloads[i].Why != w.Why {
			t.Errorf("workload %d: BENCHMARK.json has %+v, the benchmark %q: %q", i, s.Workloads[i], w.Name, w.Why)
		}
	}
	e2e, layer := &Result{}, &Result{}
	run := &e2eRun{reps: []*rep{{}}, verify: newVerifier()}
	e2eMetrics(e2e, run)
	layerMetrics(layer, run, &tracedRun{verify: newVerifier()})
	for _, c := range []struct {
		name string
		want []bound
		got  map[string]Metric
	}{{"end_to_end", s.EndToEnd, e2e.Metrics}, {"per_layer", s.PerLayer, layer.Metrics}} {
		var names []string
		for name, m := range c.got {
			names = append(names, name)
			found := false
			for _, b := range c.want {
				if b.Name == name {
					found = true
					if b.Unit != m.Unit {
						t.Errorf("%s %s: unit %q in BENCHMARK.json, %q reported", c.name, name, b.Unit, m.Unit)
					}
				}
			}
			if !found {
				t.Errorf("%s: %s is reported but not in BENCHMARK.json", c.name, name)
			}
		}
		sort.Strings(names)
		if len(names) != len(c.want) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, the benchmark reports %d: %v", c.name, len(c.want), len(names), names)
		}
	}
}
