package service

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
	"time"

	"paotr/internal/stream"
)

// lowOverlapRegistry builds 2*n uniform streams: query i owns streams
// 2i and 2i+1, so the fleet shares nothing and partitioning costs no
// sharing — the pure-throughput scenario.
func lowOverlapRegistry(tb testing.TB, n int, seed uint64) *stream.Registry {
	tb.Helper()
	reg := stream.NewRegistry()
	for i := 0; i < 2*n; i++ {
		if err := reg.Add(stream.Uniform(fmt.Sprintf("s%d", i), seed+uint64(i)), stream.CostModel{BaseJoules: 1}); err != nil {
			tb.Fatal(err)
		}
	}
	return reg
}

// lowOverlapFleet registers n disjoint 10-branch DNF queries without
// annotated probabilities: estimates keep sliding with the windowed
// estimator, so every tick re-plans — the planning-dominated regime
// where the joint planner's quadratic cost in fleet size makes K shards
// of n/K queries much cheaper than one shard of n, independent of core
// count.
func lowOverlapFleet(tb testing.TB, svc Runtime, n int) {
	tb.Helper()
	for i := 0; i < n; i++ {
		a, b := 2*i, 2*i+1
		branches := make([]string, 10)
		for j := range branches {
			branches[j] = fmt.Sprintf("(AVG(s%d,%d) > 0.%d AND AVG(s%d,%d) > 0.%d)",
				a, 2+(j*3)%7, 3+j%6, b, 2+(j*5)%7, 2+(j*7)%7)
		}
		text := strings.Join(branches, " OR ")
		if err := svc.Register(fmt.Sprintf("q%d", i), text); err != nil {
			tb.Fatal(err)
		}
	}
}

// shardBenchResult is one row of BENCH_shard.json.
type shardBenchResult struct {
	Name     string  `json:"name"`
	Unit     string  `json:"unit"`
	Ops      int     `json:"ops"`
	JPerTick float64 `json:"j_per_tick"`
	PerSec   float64 `json:"per_sec"`
}

// shardBenchFile is the machine-readable sharding benchmark tracked
// PR-over-PR (and gated by cmd/benchgate).
type shardBenchFile struct {
	GoMaxProcs int `json:"gomaxprocs"`
	Queries    int `json:"queries"`
	// Results holds the low-overlap throughput rows (shards/1 and
	// shards/4).
	Results []shardBenchResult `json:"results"`
	// ThroughputSpeedup4x is ticks/sec at 4 shards over 1 on the
	// low-overlap fleet. Part of the win is planning complexity (4 joint
	// plans over 8 queries are cheaper than one joint plan over 32) and
	// part is parallelism: 2 vCPUs reach 1.2-1.5x, not the 2x asserted
	// at GOMAXPROCS >= 4.
	ThroughputSpeedup4x float64 `json:"throughput_speedup_4x"`
	// K1ByteIdentical records that a one-shard runtime produced
	// byte-identical serialized tick results to the unsharded service.
	K1ByteIdentical bool `json:"k1_byte_identical"`
	// Overlap reports the price of partitioning on the
	// overlapping-tenant corpus at 4 shards: the modelled joint cost of
	// the placement vs K=1, and the realized cross-shard duplicate
	// spend per tick.
	Overlap shardOverlapBench `json:"overlap"`
}

type shardOverlapBench struct {
	Tenants              int     `json:"tenants"`
	ShardJointCost       float64 `json:"shard_joint_cost"`
	SingleJointCost      float64 `json:"single_joint_cost"`
	SharingLostPct       float64 `json:"sharing_lost_pct"`
	DupSpendPerTick      float64 `json:"dup_spend_per_tick"`
	JPerTickSharded      float64 `json:"j_per_tick_sharded"`
	JPerTickUnsharded    float64 `json:"j_per_tick_unsharded"`
	RealizedLossPctJTick float64 `json:"realized_loss_pct_j_tick"`
}

// TestWriteShardBenchJSON emits BENCH_shard.json when
// PAOTR_BENCH_SHARD_JSON names an output path (the CI artifact gated by
// cmd/benchgate). Skipped otherwise.
func TestWriteShardBenchJSON(t *testing.T) {
	out := os.Getenv("PAOTR_BENCH_SHARD_JSON")
	if out == "" {
		t.Skip("set PAOTR_BENCH_SHARD_JSON=<path> to write the benchmark artifact")
	}
	const queries = 32
	const ticks = 120
	measure := func(k int) shardBenchResult {
		sh := NewSharded(lowOverlapRegistry(t, queries, 1), k, WithWorkers(4))
		lowOverlapFleet(t, sh, queries)
		sh.Run(3) // steady state
		start := sh.Metrics().PaidCost
		t0 := time.Now()
		sh.Run(ticks)
		dt := time.Since(t0)
		return shardBenchResult{
			Name:     fmt.Sprintf("shards/%d", k),
			Unit:     "tick",
			Ops:      ticks,
			JPerTick: (sh.Metrics().PaidCost - start) / ticks,
			PerSec:   float64(ticks) / dt.Seconds(),
		}
	}
	file := shardBenchFile{GoMaxProcs: runtime.GOMAXPROCS(0), Queries: queries}
	one := measure(1)
	four := measure(4)
	file.Results = []shardBenchResult{one, four}
	if one.PerSec > 0 {
		file.ThroughputSpeedup4x = four.PerSec / one.PerSec
	}
	// The speedup is wall-clock, so it is asserted only where four shards
	// can run in parallel.
	if runtime.GOMAXPROCS(0) < 4 {
		t.Logf("4-shard throughput speedup %.2fx on the %d-query low-overlap fleet (not asserted at GOMAXPROCS %d < 4)",
			file.ThroughputSpeedup4x, queries, runtime.GOMAXPROCS(0))
	} else if file.ThroughputSpeedup4x < 2 {
		t.Errorf("4-shard throughput speedup %.2fx on the %d-query low-overlap fleet, want >= 2x",
			file.ThroughputSpeedup4x, queries)
	}
	// Sharding disjoint queries must not change what the fleet pays.
	if four.JPerTick > one.JPerTick*1.01 {
		t.Errorf("low-overlap fleet pays %.2f J/tick at 4 shards vs %.2f at 1 — disjoint sharding must not cost energy",
			four.JPerTick, one.JPerTick)
	}

	// K=1 must degenerate byte-identically to the unsharded service.
	{
		const seed, n = 41, 20
		plain := New(testRegistry(seed), WithWorkers(4))
		sharded := NewSharded(testRegistry(seed), 1, WithWorkers(4))
		for i, q := range fleetQueries() {
			id := fmt.Sprintf("q%d", i)
			if err := plain.Register(id, q); err != nil {
				t.Fatal(err)
			}
			if err := sharded.Register(id, q); err != nil {
				t.Fatal(err)
			}
		}
		a, _ := json.Marshal(plain.Run(n))
		b, _ := json.Marshal(sharded.Run(n))
		file.K1ByteIdentical = string(a) == string(b)
		if !file.K1ByteIdentical {
			t.Error("K=1 sharded tick results diverge from the unsharded service")
		}
	}

	// The overlapping-tenant corpus prices what partitioning costs.
	{
		const tenants, oticks = 8, 300
		run := func(k int) (Metrics, float64) {
			sh := NewSharded(overlapRegistry(t, tenants, 99), k, WithWorkers(4))
			overlapFleet(t, sh, tenants)
			sh.Run(3)
			start := sh.Metrics().PaidCost
			sh.Run(oticks)
			m := sh.Metrics()
			return m, (m.PaidCost - start) / oticks
		}
		m4, j4 := run(4)
		_, j1 := run(1)
		file.Overlap = shardOverlapBench{
			Tenants:           tenants,
			ShardJointCost:    m4.ShardJointExpectedCost,
			SingleJointCost:   m4.SingleJointExpectedCost,
			SharingLostPct:    m4.SharingLostPct,
			DupSpendPerTick:   m4.CrossShardDuplicateSpend / float64(m4.Ticks),
			JPerTickSharded:   j4,
			JPerTickUnsharded: j1,
		}
		if j1 > 0 {
			file.Overlap.RealizedLossPctJTick = 100 * (j4 - j1) / j1
		}
	}

	data, err := json.MarshalIndent(file, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if dir := filepath.Dir(out); dir != "." {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			t.Fatal(err)
		}
	}
	if err := os.WriteFile(out, append(data, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
	t.Logf("wrote %s: 4-shard speedup %.2fx (%.1f -> %.1f ticks/sec), overlap sharing lost %.1f%% modelled / %.1f%% realized J/tick",
		out, file.ThroughputSpeedup4x, one.PerSec, four.PerSec,
		file.Overlap.SharingLostPct, file.Overlap.RealizedLossPctJTick)
}
