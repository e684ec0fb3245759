package acquisition

import (
	"fmt"
	"sync"
	"testing"

	"paotr/internal/corpus"
	"paotr/internal/stream"
)

// stepCost is a dynamic price that alternates per step, covering the
// DynamicCost path in the concurrent-readers tests below.
type stepCost struct{}

func (stepCost) PerItemAt(step int64) float64 {
	if step%2 == 0 {
		return 1
	}
	return 3
}

// raceRegistry builds one registry holding every source kind the stream
// package ships: random walks (stateful, mutex-guarded memo), sine,
// spikes and uniform (stateless per-step PCG), a constant, and a
// dynamic-cost stream. Each call builds fresh sources, so one instance
// can serve as ground truth for another driven concurrently.
func raceRegistry() *stream.Registry {
	reg := stream.NewRegistry()
	must := func(err error) {
		if err != nil {
			panic(err)
		}
	}
	must(reg.Add(stream.HeartRate(11), stream.BLE))
	must(reg.Add(stream.SpO2(12), stream.BLE))
	must(reg.Add(stream.Accelerometer(13), stream.WiFi))
	must(reg.Add(stream.GPSSpeed(14), stream.BLE))
	must(reg.Add(stream.Temperature(15), stream.BLE))
	must(reg.Add(stream.Uniform("uniform", 16), stream.BLE))
	must(reg.Add(stream.Constant("constant", 3.5), stream.BLE))
	must(reg.AddDynamic(stream.Uniform("dynamic", 17), stream.CostModel{BaseJoules: 2}, stepCost{}))
	return reg
}

// TestSourceAtConcurrentReaders hammers every Source.At and PerItemAt
// implementation from concurrent readers over overlapping, interleaved
// step ranges and checks each value against a serially-computed ground
// truth from an identically-seeded fresh registry. Run with -race this
// pins the audit result that all sources are safe for concurrent use:
// the random walks' memo is mutex-guarded (and races to extend here,
// since the shared registry starts with cold memos), the rest derive
// each value from (seed, step) without shared state.
func TestSourceAtConcurrentReaders(t *testing.T) {
	shared := raceRegistry()
	refReg := raceRegistry()
	const steps = 400
	n := shared.Len()
	refVal := make([][]float64, n)
	refCost := make([][]float64, n)
	for k := 0; k < n; k++ {
		refVal[k] = make([]float64, steps)
		refCost[k] = make([]float64, steps)
		st := refReg.At(k)
		for s := int64(0); s < steps; s++ {
			refVal[k][s] = st.Source.At(s).Value
			refCost[k][s] = st.PerItemAt(s)
		}
	}

	const readers = 8
	errs := make(chan string, readers)
	var wg sync.WaitGroup
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			// Each reader walks all steps but starts at a different
			// offset, so memoized prefixes are extended concurrently
			// from many positions at once.
			for i := 0; i < steps; i++ {
				s := (i + r*53) % steps
				for k := 0; k < n; k++ {
					st := shared.At(k)
					if got := st.Source.At(int64(s)).Value; got != refVal[k][s] {
						errs <- fmt.Sprintf("reader %d: stream %d At(%d) = %v, want %v", r, k, s, got, refVal[k][s])
						return
					}
					if got := st.PerItemAt(int64(s)); got != refCost[k][s] {
						errs <- fmt.Sprintf("reader %d: stream %d PerItemAt(%d) = %v, want %v", r, k, s, got, refCost[k][s])
						return
					}
				}
			}
		}(r)
	}
	wg.Wait()
	close(errs)
	if msg, ok := <-errs; ok {
		t.Fatal(msg)
	}
}

// TestConcurrentCachesSharedRegistry drives one shared registry from K
// concurrent acquisition caches — the shard-worker configuration, where
// each worker owns a private L1 cache but all of them read the same
// sources. Every cache must observe identical values and pay identical
// spend regardless of interleaving. Covered registries: the synthetic
// sensor mix (including mutex-memoized random walks) and the corpus
// regime generator with an active dynamic-cost shift.
func TestConcurrentCachesSharedRegistry(t *testing.T) {
	run := func(t *testing.T, mk func() *stream.Registry) {
		shared := mk()
		n := shared.Len()
		const caches, ticks, depth = 4, 50, 8
		windows := make([]int, n)
		for k := range windows {
			windows[k] = depth
		}

		logs := make([][]float64, caches)
		spend := make([]float64, caches)
		var wg sync.WaitGroup
		for ci := 0; ci < caches; ci++ {
			c := NewShared(shared)
			if err := c.Retain("race", windows); err != nil {
				t.Fatal(err)
			}
			wg.Add(1)
			go func(ci int, c *Cache) {
				defer wg.Done()
				var log []float64
				for tick := 0; tick < ticks; tick++ {
					c.Advance(1)
					for k := 0; k < n; k++ {
						vals, _, err := c.Acquire(k, depth)
						if err != nil {
							t.Errorf("cache %d: acquire stream %d: %v", ci, k, err)
							return
						}
						log = append(log, vals...)
					}
				}
				logs[ci] = log
				spend[ci] = c.Spent()
			}(ci, c)
		}
		wg.Wait()
		if t.Failed() {
			return
		}
		for ci := 1; ci < caches; ci++ {
			if len(logs[ci]) != len(logs[0]) {
				t.Fatalf("cache %d saw %d values, cache 0 saw %d", ci, len(logs[ci]), len(logs[0]))
			}
			for i := range logs[ci] {
				if logs[ci][i] != logs[0][i] {
					t.Fatalf("cache %d value %d = %v, cache 0 = %v", ci, i, logs[ci][i], logs[0][i])
				}
			}
			if spend[ci] != spend[0] {
				t.Fatalf("cache %d spent %v, cache 0 spent %v", ci, spend[ci], spend[0])
			}
		}

		// Ground truth from a fresh, never-raced registry: one serial
		// cache replaying the same schedule must see the same values.
		ref := mk()
		rc := NewShared(ref)
		if err := rc.Retain("race", windows); err != nil {
			t.Fatal(err)
		}
		var want []float64
		for tick := 0; tick < ticks; tick++ {
			rc.Advance(1)
			for k := 0; k < n; k++ {
				vals, _, err := rc.Acquire(k, depth)
				if err != nil {
					t.Fatal(err)
				}
				want = append(want, vals...)
			}
		}
		if len(want) != len(logs[0]) {
			t.Fatalf("serial reference saw %d values, concurrent caches saw %d", len(want), len(logs[0]))
		}
		for i := range want {
			if logs[0][i] != want[i] {
				t.Fatalf("concurrent value %d = %v, serial reference = %v", i, logs[0][i], want[i])
			}
		}
		if spend[0] != rc.Spent() {
			t.Fatalf("concurrent spend %v, serial reference %v", spend[0], rc.Spent())
		}
	}

	t.Run("wearables", func(t *testing.T) { run(t, raceRegistry) })
	t.Run("regime", func(t *testing.T) {
		run(t, func() *stream.Registry {
			return corpus.RegimeRegistry(corpus.RegimeConfig{Streams: 4, ShiftStep: 20, Seed: 9})
		})
	})
}
