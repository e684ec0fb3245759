package main

import (
	"bytes"
	"reflect"
	"strconv"
	"strings"
	"testing"

	"paotr/internal/obs"
	"paotr/internal/service"
)

// promSamples parses an exposition into its samples: the sample name
// with its labels, as rendered, mapped to the value.
func promSamples(t *testing.T, body []byte) map[string]float64 {
	t.Helper()
	out := map[string]float64{}
	for _, line := range strings.Split(string(body), "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			t.Fatalf("sample %q: %v", line, err)
		}
		out[line[:i]] = v
	}
	return out
}

// counterSample is the exposition sample one service.Counters field
// renders as; the sample's value is the field's value divided by div
// (plan_ns renders as seconds).
type counterSample struct {
	sample string
	div    float64
}

// counterSamples renders a snapshot whose every Counters field holds a
// distinct value and maps each field's JSON key to the one sample that
// carries the value. A field that no sample carries fails the test:
// every counter needs a family.
func counterSamples(t *testing.T) map[string]counterSample {
	t.Helper()
	var m service.Metrics
	// The shard and relay families render only on such a runtime.
	m.Shards, m.RelayEnabled = 2, true
	v := reflect.ValueOf(&m.Counters).Elem()
	value := func(i int) float64 { return float64(1001 + i) }
	for i := 0; i < v.NumField(); i++ {
		switch f := v.Field(i); f.Kind() {
		case reflect.Int, reflect.Int64:
			f.SetInt(int64(value(i)))
		case reflect.Float64:
			f.SetFloat(value(i))
		default:
			t.Fatalf("Counters.%s has kind %s, want a number", v.Type().Field(i).Name, f.Kind())
		}
	}
	var buf bytes.Buffer
	writeProm(&buf, m, nil, 0)
	if _, err := obs.LintProm(bytes.NewReader(buf.Bytes())); err != nil {
		t.Fatalf("exposition does not lint: %v\n%s", err, buf.Bytes())
	}
	samples := promSamples(t, buf.Bytes())
	out := map[string]counterSample{}
	for i := 0; i < v.NumField(); i++ {
		field := v.Type().Field(i)
		key := strings.Split(field.Tag.Get("json"), ",")[0]
		var found []counterSample
		for name, got := range samples {
			for _, div := range []float64{1, 1e9} {
				if got == value(i)/div {
					found = append(found, counterSample{name, div})
				}
			}
		}
		if len(found) != 1 {
			t.Errorf("Counters.%s (%s = %v) is carried by %d samples %v, want exactly one", field.Name, key, value(i), len(found), found)
			continue
		}
		out[key] = found[0]
	}
	return out
}

// TestWritePromCoversCounters: /metrics.prom renders every Counters
// field, each as its own sample.
func TestWritePromCoversCounters(t *testing.T) {
	got := counterSamples(t)
	for key, want := range map[string]string{
		"batched_cost":              "paotr_batched_joules_total",
		"fleet_planned_executions":  "paotr_fleet_planned_executions_total",
		"fleet_expected_cost":       "paotr_fleet_expected_joules_total",
		"independent_expected_cost": "paotr_independent_expected_joules_total",
		"plan_ns":                   "paotr_plan_seconds_total",
		"fleet_placed_classes":      "paotr_fleet_placed_classes_total",
	} {
		if got[key].sample != want {
			t.Errorf("%s renders as %q, want %q", key, got[key].sample, want)
		}
	}
}
