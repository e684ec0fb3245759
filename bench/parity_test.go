package main

import (
	"context"
	"os/exec"
	"path/filepath"
	"testing"
	"time"
)

// Each workload, scaled down, runs once against the real server and
// once traced in-process: every sampled verdict checks out, and the two
// runs agree on configuration and on every deterministic counter.
func TestTracedRunMatchesServer(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and spawns paotrserve")
	}
	bin := filepath.Join(t.TempDir(), "paotrserve")
	if out, err := exec.Command("go", "build", "-o", bin, "paotr/cmd/paotrserve").CombinedOutput(); err != nil {
		t.Fatalf("building paotrserve: %v\n%s", err, out)
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	for _, full := range workloads {
		w := *full
		w.Queries = max(w.Queries/100, 30)
		if full.Shapes == full.Queries {
			w.Shapes = w.Queries // one shape per query
		}
		w.Churn = min(w.Churn, 5)
		p := NewPlan(&w, 11, 0.5)
		e, err := runE2E(ctx, bin, p, 1)
		if err != nil {
			t.Fatalf("%s: %v", w.Name, err)
		}
		tr, err := runTraced(ctx, p)
		if err != nil {
			t.Fatalf("%s: %v", w.Name, err)
		}
		res := &Result{}
		tally(res, e.verify, &e.ops)
		tally(res, tr.verify, nil)
		if res.Failed != 0 || e.verify.checked == 0 || tr.verify.checked == 0 {
			t.Errorf("%s: %d failures in %d operations: %v", w.Name, res.Failed, res.Attempted, res.Notes)
		}
		if d := parity(&w, e, tr); len(d) != 0 {
			t.Errorf("%s: traced run differs from the server: %v", w.Name, d)
		}
	}
}
