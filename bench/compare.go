package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"strings"
)

// bound is one end-to-end metric of BENCHMARK.json: how far it may get
// worse, as a share of the baseline median, before it counts as worse.
type bound struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

func loadBounds(path string) ([]bound, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var spec struct {
		EndToEnd []bound `json:"end_to_end"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if len(spec.EndToEnd) == 0 {
		return nil, fmt.Errorf("%s: no end_to_end metrics", path)
	}
	return spec.EndToEnd, nil
}

// Verdicts of one comparison row.
const (
	better     = "better"
	unchanged  = "unchanged"
	worse      = "worse"
	unresolved = "unresolved"
)

// row compares one end-to-end metric on one workload.
type row struct {
	Workload, Metric string
	// A and B are the medians; Spread is the larger of the two sides'
	// interquartile ranges as shares of their medians; Change is B's
	// signed distance from A as a share of A, positive when worse.
	A, B, Spread, Change float64
	Verdict              string
}

// compareRuns judges B's end-to-end runs against A's, per workload and
// metric. A metric whose spread exceeds its bound is unresolved, unless
// every B run reads better than every A run.
func compareRuns(bounds []bound, a, b []*Result) []row {
	values := func(runs []*Result, wl, metric string) []float64 {
		var out []float64
		for _, r := range runs {
			if m, ok := r.Metrics[metric]; ok && r.Workload == wl && !r.Trace {
				out = append(out, m.Value)
			}
		}
		return out
	}
	var wls []string
	seen := map[string]bool{}
	for _, r := range a {
		if !seen[r.Workload] {
			seen[r.Workload] = true
			wls = append(wls, r.Workload)
		}
	}
	sort.Strings(wls)
	var rows []row
	for _, wl := range wls {
		for _, bd := range bounds {
			va, vb := values(a, wl, bd.Name), values(b, wl, bd.Name)
			if len(va) == 0 || len(vb) == 0 {
				continue
			}
			sign := 1.0 // +1 when a larger value is worse
			if bd.Better == "higher" {
				sign = -1
			}
			r := row{Workload: wl, Metric: bd.Name, A: median(va), B: median(vb)}
			r.Spread = max(relIQR(va), relIQR(vb))
			r.Change = sign * rel(r.B-r.A, r.A)
			allBetter := true
			for _, x := range va {
				for _, y := range vb {
					allBetter = allBetter && sign*(y-x) < 0
				}
			}
			switch {
			case r.Spread > bd.Bound && allBetter:
				r.Verdict = better
			case r.Spread > bd.Bound:
				r.Verdict = unresolved
			case r.Change > bd.Bound:
				r.Verdict = worse
			case r.Change < -bd.Bound:
				r.Verdict = better
			default:
				r.Verdict = unchanged
			}
			rows = append(rows, r)
		}
	}
	return rows
}

// rel is d as a share of base (d itself against a zero base).
func rel(d, base float64) float64 {
	if base == 0 {
		return d
	}
	return d / math.Abs(base)
}

// relIQR is the interquartile range of xs as a share of their median.
func relIQR(xs []float64) float64 {
	q1, q3 := quartiles(xs)
	return rel(q3-q1, median(xs))
}

// readRuns reads the runs of a comma-separated list of result files.
func readRuns(list string) ([]*Result, error) {
	var runs []*Result
	for _, path := range strings.Split(list, ",") {
		b, err := os.ReadFile(path)
		if err != nil {
			return nil, err
		}
		var f resultsFile
		if err := json.Unmarshal(b, &f); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		runs = append(runs, f.Runs...)
	}
	return runs, nil
}

// compareMain is `bench compare`: it prints one row per workload and
// end-to-end metric and returns 1 when any metric got worse.
func compareMain(args []string, w io.Writer) int {
	fs := flag.NewFlagSet("compare", flag.ContinueOnError)
	benchJSON := fs.String("bounds", "BENCHMARK.json", "BENCHMARK.json holding the per-metric bounds")
	selftest := fs.Bool("selftest", false, "check that a synthetic regression past every bound is rejected")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	bounds, err := loadBounds(*benchJSON)
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench compare: %v\n", err)
		return 2
	}
	if *selftest {
		if err := compareSelftest(bounds, w); err != nil {
			fmt.Fprintf(os.Stderr, "bench compare selftest: %v\n", err)
			return 1
		}
		fmt.Fprintln(w, "bench compare selftest: ok, the synthetic regression was rejected")
		return 0
	}
	if fs.NArg() != 2 {
		fmt.Fprintln(os.Stderr, "usage: bench compare [-bounds BENCHMARK.json] A.json[,A2.json...] B.json[,B2.json...]")
		return 2
	}
	var sides [2][]*Result
	for i := range sides {
		if sides[i], err = readRuns(fs.Arg(i)); err != nil {
			fmt.Fprintf(os.Stderr, "bench compare: %v\n", err)
			return 2
		}
	}
	return printRows(w, compareRuns(bounds, sides[0], sides[1]))
}

// printRows prints the comparison and returns 1 when a row is worse.
func printRows(w io.Writer, rows []row) int {
	code := 0
	fmt.Fprintf(w, "%-20s %-16s %12s %12s %8s %8s  %s\n", "workload", "metric", "A median", "B median", "change", "spread", "verdict")
	for _, r := range rows {
		fmt.Fprintf(w, "%-20s %-16s %12.6g %12.6g %+7.1f%% %7.1f%%  %s\n",
			r.Workload, r.Metric, r.A, r.B, 100*r.Change, 100*r.Spread, r.Verdict)
		if r.Verdict == worse {
			code = 1
		}
	}
	return code
}

// compareSelftest proves the comparison has teeth: identical runs
// compare unchanged, runs made worse by 12% past every bound compare
// worse on every row, and runs spread wider than the bounds compare
// unresolved.
func compareSelftest(bounds []bound, w io.Writer) error {
	synth := func(scale func(bd bound, run int) float64) []*Result {
		var runs []*Result
		for _, wl := range workloads {
			for run := 0; run < 3; run++ {
				r := &Result{Workload: wl.Name}
				for i, bd := range bounds {
					r.set(bd.Name, float64(10+i)*scale(bd, run), bd.Unit, 1)
				}
				runs = append(runs, r)
			}
		}
		return runs
	}
	// The baseline's runs lie within a tenth of each bound.
	base := synth(func(bd bound, run int) float64 { return 1 + 0.05*bd.Bound*float64(run) })
	regressed := synth(func(bd bound, run int) float64 {
		past := 1.12 * bd.Bound
		if bd.Better == "higher" {
			past = -past
		}
		return (1 + 0.05*bd.Bound*float64(run)) * (1 + past)
	})
	noisy := synth(func(bd bound, run int) float64 { return 1 + 2*bd.Bound*float64(run-1) })
	checks := []struct {
		name string
		b    []*Result
		want string
	}{
		{"identical runs", base, unchanged},
		{"regressed 12% past every bound", regressed, worse},
		{"spread wider than every bound", noisy, unresolved},
	}
	var errs []error
	for _, c := range checks {
		rows := compareRuns(bounds, base, c.b)
		if len(rows) != len(workloads)*len(bounds) {
			errs = append(errs, fmt.Errorf("%s: %d rows, want %d", c.name, len(rows), len(workloads)*len(bounds)))
		}
		bad := 0
		for _, r := range rows {
			if r.Verdict != c.want {
				bad++
				errs = append(errs, fmt.Errorf("%s: %s %s is %s, want %s", c.name, r.Workload, r.Metric, r.Verdict, c.want))
			}
		}
		fmt.Fprintf(w, "selftest: %s: %d of %d rows %s\n", c.name, len(rows)-bad, len(rows), c.want)
	}
	return errors.Join(errs...)
}
