package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"math/rand/v2"
	"testing"

	"paotr/internal/engine"
	"paotr/internal/stream"
)

// planHash is the SHA-256 of the plan's JSON, which holds every request
// the plan sends: equal request streams hash equal.
func planHash(t *testing.T, p *Plan) string {
	t.Helper()
	b, err := json.Marshal(p)
	if err != nil {
		t.Fatal(err)
	}
	h := sha256.Sum256(b)
	return hex.EncodeToString(h[:])
}

func TestPlanIsAFunctionOfTheSeed(t *testing.T) {
	for _, w := range workloads {
		a, b := planHash(t, NewPlan(w, 7, 10)), planHash(t, NewPlan(w, 7, 10))
		if a != b {
			t.Errorf("%s: seed 7 gave two request streams (%s, %s)", w.Name, a, b)
		}
		if c := planHash(t, NewPlan(w, 8, 10)); c == a {
			t.Errorf("%s: seeds 7 and 8 gave the same request stream %s", w.Name, a)
		}
	}
}

func TestPlanMeasuresWholeCycles(t *testing.T) {
	for _, w := range workloads {
		for _, s := range []float64{0.01, 1, 10, 33.3} {
			p := NewPlan(w, 1, s)
			if p.Ticks < w.Cycle || p.Ticks%w.Cycle != 0 || float64(p.Ticks) < s*w.TicksPerSecond {
				t.Errorf("%s: %g s measures %d ticks (cycle %d, %g ticks/s)", w.Name, s, p.Ticks, w.Cycle, w.TicksPerSecond)
			}
		}
	}
}

// The workloads' shape counts hold by construction, for every seed.
func TestWorkloadShapes(t *testing.T) {
	eng := engine.New(stream.Wearables(sensorSeed))
	for _, w := range workloads {
		for seed := uint64(1); seed <= 3; seed++ {
			p := NewPlan(w, seed, 1)
			shapes := map[string]bool{}
			for _, r := range p.Base {
				q, err := eng.Compile(r.Query)
				if err != nil {
					t.Fatalf("%s: %q: %v", w.Name, r.Query, err)
				}
				shapes[q.ShapeKey()] = true
			}
			if w.Shapes > 0 && len(shapes) != w.Shapes {
				t.Errorf("%s seed %d: %d distinct shapes, want %d", w.Name, seed, len(shapes), w.Shapes)
			}
		}
	}
}

// An open-loop read only targets queries that stay registered while it
// is in flight, however far the churn has got.
func TestPickRegTargetsLiveQueries(t *testing.T) {
	var w *Workload
	for _, c := range workloads {
		if c.Churn > 0 {
			w = c
		}
	}
	p := NewPlan(w, 3, 10)
	rng := rand.New(rand.NewPCG(1, 2))
	for begun := 0; begun <= p.Ticks; begun++ {
		// Batches up to begun+1 may have unregistered their oldest; only
		// batches before begun-1 have surely registered theirs.
		gone := (begun + 2) * w.Churn
		registered := len(p.Base) + max(begun-1, 0)*w.Churn
		live := map[string]bool{}
		for g := gone; g < registered; g++ {
			live[p.reg(g).ID] = true
		}
		for _, pick := range []float64{0, 0.999999, rng.Float64()} {
			if r := p.pickReg(pick, begun); !live[r.ID] {
				t.Fatalf("begun %d pick %g: %s may not be live", begun, pick, r.ID)
			}
		}
	}
}
