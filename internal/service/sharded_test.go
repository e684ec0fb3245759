package service

import (
	"encoding/json"
	"fmt"
	"testing"

	"paotr/internal/corpus"
	"paotr/internal/engine"
)

// TestShardedOneShardByteIdentical: the K=1 sharded runtime must be the
// unsharded service — same plans, same verdicts, same costs, down to
// byte-identical serialized tick results.
func TestShardedOneShardByteIdentical(t *testing.T) {
	const seed, ticks = 41, 40
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
	a, err := json.Marshal(plain.Run(ticks))
	if err != nil {
		t.Fatal(err)
	}
	b, err := json.Marshal(sharded.Run(ticks))
	if err != nil {
		t.Fatal(err)
	}
	if string(a) != string(b) {
		t.Fatalf("K=1 sharded tick results diverge from the unsharded service:\nplain:   %.200s\nsharded: %.200s", a, b)
	}
	pm, sm := plain.Metrics(), sharded.Metrics()
	if pm.PaidCost != sm.PaidCost || pm.ExpectedCost != sm.ExpectedCost {
		t.Errorf("K=1 costs diverge: plain paid %v / expected %v, sharded %v / %v",
			pm.PaidCost, pm.ExpectedCost, sm.PaidCost, sm.ExpectedCost)
	}
	if sm.Shards != 1 {
		t.Errorf("sharded metrics report %d shards, want 1", sm.Shards)
	}
}

// TestShardedCoLocatesExecutorTwins: a twin registered with an explicit
// linear executor has the same shape as its default-executor twins (the
// default executor is linear), so the coordinator must place it on their
// shard, where the worker interns all four into one class.
func TestShardedCoLocatesExecutorTwins(t *testing.T) {
	const text = "AVG(heart-rate,5) > 100 AND accelerometer < 12"
	sh := NewSharded(testRegistry(3), 4, WithWorkers(1))
	for i := 0; i < 3; i++ {
		if err := sh.Register(fmt.Sprintf("twin%d", i), text); err != nil {
			t.Fatal(err)
		}
	}
	if err := sh.Register("linear", text, WithQueryExecutor(engine.LinearExecutor{})); err != nil {
		t.Fatal(err)
	}
	assign := sh.Assignment()
	for id, s := range assign {
		if s != assign["twin0"] {
			t.Errorf("%s placed on shard %d, its twins on shard %d", id, s, assign["twin0"])
		}
	}
	if m := sh.Metrics(); m.DistinctShapes != 1 {
		t.Errorf("distinct shapes = %d, want 1", m.DistinctShapes)
	}
}

// TestShardStressMatchesSequential is the sharded counterpart of the
// fleet stress test: 4 shard workers over 8 queries sharing overlapping
// streams, ticking concurrently against private caches, must produce
// exactly the per-tick verdicts each query produces alone on a private
// cache. Under -race this stresses the shard fan-out, the shared stream
// sources and the fleet ledger across shard goroutines.
func TestShardStressMatchesSequential(t *testing.T) {
	const seed = 307
	const ticks = 60
	queries := fleetQueries()

	sh := NewSharded(testRegistry(seed), 4, WithWorkers(4))
	for i, q := range queries {
		if err := sh.Register(fmt.Sprintf("q%d", i), q); err != nil {
			t.Fatal(err)
		}
	}
	used := map[int]bool{}
	for _, s := range sh.Assignment() {
		used[s] = true
	}
	if len(used) < 2 {
		t.Fatalf("8 queries all placed on %d shard(s); the stress needs a real split", len(used))
	}
	verdicts := make([][]bool, len(queries))
	for i := range verdicts {
		verdicts[i] = make([]bool, ticks)
	}
	for tick, tr := range sh.Run(ticks) {
		if len(tr.Executions) != len(queries) {
			t.Fatalf("tick %d ran %d executions, want %d", tick, len(tr.Executions), len(queries))
		}
		for _, e := range tr.Executions {
			if e.Err != "" {
				t.Fatalf("tick %d query %s: %s", tick, e.ID, e.Err)
			}
			var qi int
			fmt.Sscanf(e.ID, "q%d", &qi)
			verdicts[qi][tick] = e.Value
		}
	}

	for i, qtext := range queries {
		reg := testRegistry(seed)
		eng := engine.New(reg)
		q, err := eng.Compile(qtext)
		if err != nil {
			t.Fatal(err)
		}
		cache, err := q.NewCache()
		if err != nil {
			t.Fatal(err)
		}
		results, err := q.Run(cache, ticks)
		if err != nil {
			t.Fatal(err)
		}
		for tick, r := range results {
			if r.Value != verdicts[i][tick] {
				t.Errorf("query %d tick %d: sharded=%v sequential=%v", i, tick, verdicts[i][tick], r.Value)
			}
		}
	}

	// Histories must carry the owning shard, not just live tick results.
	for id, owner := range sh.Assignment() {
		res, err := sh.Results(id, 1)
		if err != nil || len(res) != 1 {
			t.Fatalf("Results(%s) = %v, %v", id, res, err)
		}
		if res[0].Shard != owner {
			t.Errorf("query %s history tagged shard %d, owner is %d", id, res[0].Shard, owner)
		}
	}

	m := sh.Metrics()
	if m.Shards != 4 || len(m.PerShard) != 4 {
		t.Fatalf("metrics report %d shards / %d summaries, want 4", m.Shards, len(m.PerShard))
	}
	var execs int64
	var paid float64
	for _, ps := range m.PerShard {
		execs += ps.Executions
		paid += ps.PaidCost
	}
	if execs != m.Executions {
		t.Errorf("per-shard executions sum %d != fleet %d", execs, m.Executions)
	}
	if diff := paid - m.PaidCost; diff > 1e-6 || diff < -1e-6 {
		t.Errorf("per-shard paid sum %v != fleet %v", paid, m.PaidCost)
	}
	// Overlapping streams split across shards must show up as realized
	// sharing loss: some item was transferred by more than one shard.
	if m.CrossShardDuplicateTransfers == 0 {
		t.Error("overlapping fleet split across 4 shards recorded no cross-shard duplicate transfers")
	}
	if m.CrossShardDuplicateSpend <= 0 {
		t.Error("cross-shard duplicate transfers cost nothing")
	}
	if m.ShardJointExpectedCost < m.SingleJointExpectedCost {
		t.Errorf("modelled shard joint cost %v below the K=1 joint cost %v",
			m.ShardJointExpectedCost, m.SingleJointExpectedCost)
	}
	t.Logf("4-shard stress: %d cross-shard duplicate transfers (%.1f J), modelled sharing lost %.1f%%",
		m.CrossShardDuplicateTransfers, m.CrossShardDuplicateSpend, m.SharingLostPct)
}

// TestShardStressDuplicateSpendDeterministic: the ledger's duplicate
// accounting (per item, total transfer cost minus the single most
// expensive transfer) is order-independent, so repeated runs of the
// shard stress scenario must report identical duplicate-spend totals
// even though shard ticks race to record each item. The overlapping
// corpus's integer costs make every total exact in binary floating
// point, so the comparison is exact equality, not a tolerance.
func TestShardStressDuplicateSpendDeterministic(t *testing.T) {
	const tenants, shards, ticks = 8, 4, 50
	run := func() (int64, float64, float64) {
		reg := overlapRegistry(t, tenants, 3)
		sh := NewSharded(reg, shards, WithWorkers(2))
		overlapFleet(t, sh, tenants)
		sh.Run(ticks)
		m := sh.Metrics()
		return m.CrossShardDuplicateTransfers, m.CrossShardDuplicateSpend, m.PaidCost
	}
	dupN0, dupJ0, paid0 := run()
	if dupN0 == 0 || dupJ0 <= 0 {
		t.Fatalf("stress run recorded no duplicate traffic: %d transfers, %v J", dupN0, dupJ0)
	}
	for i := 0; i < 3; i++ {
		dupN, dupJ, paid := run()
		if dupN != dupN0 || dupJ != dupJ0 || paid != paid0 {
			t.Fatalf("run %d ledger diverged: dup %d/%v J (want %d/%v J), paid %v J (want %v J)",
				i, dupN, dupJ, dupN0, dupJ0, paid, paid0)
		}
	}
}

// TestShardedAffinityCoLocatesTenants: on the overlapping-tenant corpus
// the partitioner must keep queries sharing the expensive stream
// together where balance allows, and the modelled sharing loss must
// stay below a round-robin placement's.
func TestShardedAffinityCoLocatesTenants(t *testing.T) {
	const tenants = 6
	sh := NewSharded(overlapRegistry(t, tenants, 99), 2, WithWorkers(2))
	overlapFleet(t, sh, tenants)
	sh.Run(20)
	m := sh.Metrics()
	if m.SharingLostPct < 0 {
		t.Errorf("negative sharing loss %v%%", m.SharingLostPct)
	}
	if m.ShardJointExpectedCost < m.SingleJointExpectedCost-1e-9 {
		t.Errorf("shard joint %v below single joint %v", m.ShardJointExpectedCost, m.SingleJointExpectedCost)
	}
	for _, ps := range m.PerShard {
		if ps.Queries == 0 {
			t.Errorf("shard %d empty under balanced placement: %+v", ps.Shard, m.PerShard)
		}
	}
}

// TestShardedRepartitionOnDrift: with WithRepartitionEvery set, a regime
// shift that trips the detectors must eventually trigger a live
// repartition, and the runtime must keep serving correct results
// (every due query executes, no errors) through the moves.
func TestShardedRepartitionOnDrift(t *testing.T) {
	cfg := corpus.RegimeConfig{Seed: 5, ShiftStep: 60}
	sh := NewSharded(corpus.RegimeRegistry(cfg), 2, WithWorkers(2), WithRepartitionEvery(10))
	for i, q := range corpus.RegimeQueries(cfg) {
		if err := sh.Register(fmt.Sprintf("q%d", i), q); err != nil {
			t.Fatal(err)
		}
	}
	for tick, tr := range sh.Run(200) {
		for _, e := range tr.Executions {
			if e.Err != "" {
				t.Fatalf("tick %d query %s: %s", tick, e.ID, e.Err)
			}
		}
	}
	m := sh.Metrics()
	if m.PredicateDetectorTrips+m.CostDetectorTrips == 0 {
		t.Fatal("regime shift tripped no detectors; the drift trigger was never exercised")
	}
	if m.Repartitions == 0 {
		t.Error("detector trips never triggered a repartition despite WithRepartitionEvery")
	}
	t.Logf("drift run: %d/%d detector trips, %d repartitions, %d queries moved",
		m.PredicateDetectorTrips, m.CostDetectorTrips, m.Repartitions, m.QueriesMoved)
}

// TestShardedRegisterUnregister: lifecycle bookkeeping across shards —
// ids are fleet-unique, unregistering frees them, results and per-query
// metrics route to the owning shard.
func TestShardedRegisterUnregister(t *testing.T) {
	sh := NewSharded(testRegistry(3), 3, WithWorkers(2))
	if err := sh.Register("a", "AVG(heart-rate,5) > 100"); err != nil {
		t.Fatal(err)
	}
	if err := sh.Register("a", "heart-rate > 0"); err == nil {
		t.Fatal("duplicate id accepted across shards")
	}
	if err := sh.Register("b", "spo2 < 92 OR accelerometer > 15"); err != nil {
		t.Fatal(err)
	}
	sh.Run(5)
	if res, err := sh.Results("b", 3); err != nil || len(res) == 0 {
		t.Fatalf("Results(b) = %v, %v", res, err)
	}
	if qm, err := sh.QueryMetrics("a"); err != nil || qm.Executions != 5 {
		t.Fatalf("QueryMetrics(a) = %+v, %v; want 5 executions", qm, err)
	}
	if err := sh.Unregister("a"); err != nil {
		t.Fatal(err)
	}
	if err := sh.Unregister("a"); err == nil {
		t.Fatal("double unregister accepted")
	}
	if _, err := sh.Results("a", 1); err == nil {
		t.Fatal("results served for an unregistered id")
	}
	if got := sh.QueryIDs(); len(got) != 1 || got[0] != "b" {
		t.Fatalf("QueryIDs = %v, want [b]", got)
	}
	if err := sh.Register("a", "temperature > 20"); err != nil {
		t.Fatalf("re-registering a freed id: %v", err)
	}
}

// TestShardedManualRepartitionMigratesEvidence: moving a query must
// carry its windowed predicate evidence to the new shard's estimator
// instead of resetting it to the prior.
func TestShardedManualRepartitionMigratesEvidence(t *testing.T) {
	const tenants = 4
	sh := NewSharded(overlapRegistry(t, tenants, 7), 2, WithWorkers(1))
	overlapFleet(t, sh, tenants)
	sh.Run(30)

	// Find a query with windowed evidence, then force a full repartition
	// after deliberately scrambling the assignment so something moves.
	assign := sh.Assignment()
	var someID string
	for id := range assign {
		someID = id
		break
	}
	pred := ""
	{
		ownerBefore := assign[someID]
		_, keys, ok := sh.Shard(ownerBefore).ProfileTree(someID)
		if !ok || len(keys) == 0 {
			t.Fatal("query has no predicate keys")
		}
		pred = keys[0]
		if _, n := sh.Shard(ownerBefore).Adaptive().Estimate(pred); n == 0 {
			t.Fatalf("no evidence for %q on shard %d after 30 ticks", pred, ownerBefore)
		}
	}
	sh.mu.Lock()
	from := sh.assign[someID]
	to := (from + 1) % sh.k
	sh.moveLocked(someID, from, to, true)
	sh.assign[someID] = to
	sh.mu.Unlock()
	if _, n := sh.Shard(to).Adaptive().Estimate(pred); n == 0 {
		t.Errorf("moved query's predicate %q has no evidence on destination shard", pred)
	}
	// The runtime keeps serving the moved query.
	sh.Run(3)
	if qm, err := sh.QueryMetrics(someID); err != nil || qm.Executions < 3 {
		t.Fatalf("moved query stopped executing: %+v, %v", qm, err)
	}
}
