// Package shard places a fleet of continuous queries onto N shard
// workers by stream affinity — the fleet-level analogue of the paper's
// AND-ordered C/p heuristic applied to query placement instead of leaf
// ordering.
//
// The paper's whole premium comes from sharing: an item acquired for one
// leaf is free for every other leaf of any query (Proposition 2), and
// the joint planner of internal/fleet exploits that inside one tick
// loop. Scaling the service horizontally splits the fleet across shard
// workers that each own a private acquisition cache, so an item two
// shards both need is paid twice — naive sharding destroys exactly the
// sharing the paper monetizes. Placement therefore becomes a
// shared-aware optimization problem: co-locate the queries whose
// schedules probably pull the same items, while keeping the per-shard
// expected load balanced so the slowest shard does not dominate tick
// latency.
//
// The partitioner is a greedy LPT (longest processing time first) over
// the query–stream bipartite graph. Each query is profiled into a
// per-stream weight vector — the summed Proposition 2 acquisition
// probabilities of its independent schedule, priced per item — and an
// expected-cost load. Queries are placed heaviest-first onto the shard
// maximizing stream-weight overlap minus the overload the query would
// cause beyond the mean shard load (both in expected-cost units); ties
// fall to the least-loaded shard, so a no-overlap fleet degenerates to
// plain LPT load balancing.
//
// SharingLoss quantifies what a placement gives up: the sum of the
// per-shard joint plan costs (each shard plans only over its own
// queries) against the K=1 joint cost of planning the whole fleet as
// one workload. At K=1 the two coincide exactly.
package shard

import (
	"math"
	"sort"

	"paotr/internal/andtree"
	"paotr/internal/dnf"
	"paotr/internal/fleet"
	"paotr/internal/query"
	"paotr/internal/sched"
)

// Query is one fleet member as the partitioner sees it: its identity,
// its probability-annotated tree (probabilities and per-item costs from
// the owning shard's learned estimators), and the profile derived from
// them.
type Query struct {
	// ID is the service-level query id.
	ID string
	// Tree is the probability-annotated DNF tree. All trees handed to
	// one Partition call must index the same registry stream space.
	Tree *query.Tree
	// Load is the expected acquisition cost of the query's independent
	// plan against a cold cache — the balance currency of LPT.
	Load float64
	// Weights[k] is the expected acquisition spend of the query on
	// stream k: the Proposition 2 probability that its schedule
	// acquires each item, times the per-item cost, summed over the
	// stream's items. Two queries with overlapping weight mass share
	// items when co-located.
	Weights []float64
}

// independentOrder plans one query in isolation, exactly as the engine's
// default warm planner does (here against a cold cache: placement is a
// structural decision, not a per-tick one).
func independentOrder(t *query.Tree) sched.Schedule {
	if t.IsAndTree() {
		return andtree.Greedy(t)
	}
	return dnf.AndOrderedIncCOverPDynamic(t, nil)
}

// Profile computes a query's placement profile: its independent-plan
// expected cost and its per-stream Proposition 2 acquisition weights.
func Profile(id string, t *query.Tree) Query {
	q := Query{ID: id, Tree: t, Weights: make([]float64, t.NumStreams())}
	px := sched.NewPrefix(t)
	for _, j := range independentOrder(t) {
		px.AppendVisit(j, func(k query.StreamID, d int, pr float64) {
			q.Weights[k] += pr * t.Streams[k].Cost
		})
	}
	q.Load = px.Cost()
	return q
}

// Config tunes the partitioner.
type Config struct {
	// Shards is the number of shard workers (minimum 1).
	Shards int
	// RelayFrac is the fleet relay's per-item transfer cost as a fraction
	// of acquisition cost (0 = no relay, clamped to [0, 1]). With a relay,
	// an item a query needs from a *different* shard is no longer
	// re-acquired at full price but transferred at RelayFrac of it, so the
	// marginal value of co-locating overlapping queries shrinks to
	// (1 - RelayFrac) of their shared spend — the transfer-cost term of
	// the placement objective. At RelayFrac = 1 transfers cost as much as
	// acquisitions and placement degenerates to pure load balancing.
	RelayFrac float64
}

func (c Config) norm() Config {
	if c.Shards < 1 {
		c.Shards = 1
	}
	if c.RelayFrac < 0 {
		c.RelayFrac = 0
	}
	if c.RelayFrac > 1 {
		c.RelayFrac = 1
	}
	return c
}

// Assignment is a placement of queries onto shards.
type Assignment struct {
	// Shard maps query id -> shard index in [0, Shards).
	Shard map[string]int
	// Loads is the summed expected load per shard.
	Loads []float64
}

// affinity is the stream-weight overlap between a query and a shard's
// accumulated weight mass: sum over streams of min(query weight, shard
// weight). It grows with the expected spend the two would share.
func affinity(q Query, shardW []float64) float64 {
	a := 0.0
	for k, w := range q.Weights {
		if w <= 0 {
			continue
		}
		if sw := shardW[k]; sw < w {
			a += sw
		} else {
			a += w
		}
	}
	return a
}

// place picks the shard for one query given the current per-shard
// state, maximizing affinity minus the overload the placement would
// cause beyond the mean shard load. Affinity and overload are both
// expected-cost quantities, so a query co-locates with its overlapping
// siblings exactly when the spend it would share outweighs the imbalance
// it creates. With a fleet relay, items held by another
// shard cost only relayFrac of acquisition, so the shareable spend — and
// with it the pull toward co-location — shrinks to (1-relayFrac) of the
// affinity. Ties fall to the least-loaded, then lowest-index, shard — on
// a no-overlap fleet this is plain LPT load balancing. Deterministic for
// a fixed input order.
func place(q Query, shardW [][]float64, loads []float64, target, relayFrac float64) int {
	best, bestScore := 0, math.Inf(-1)
	for s := range loads {
		overload := loads[s] + q.Load - target
		if overload < 0 {
			overload = 0
		}
		score := (1-relayFrac)*affinity(q, shardW[s]) - overload
		if score > bestScore || (score == bestScore && loads[s] < loads[best]) {
			best, bestScore = s, score
		}
	}
	return best
}

// Partition places the queries onto cfg.Shards shards: LPT order
// (heaviest load first, ties by id for determinism), each query to the
// shard chosen by place. Shards == 1 trivially assigns everything to
// shard 0, so the sharded runtime degenerates to the unsharded service.
func Partition(qs []Query, cfg Config) Assignment {
	cfg = cfg.norm()
	out := Assignment{Shard: make(map[string]int, len(qs)), Loads: make([]float64, cfg.Shards)}
	if len(qs) == 0 {
		return out
	}
	order := make([]int, len(qs))
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool {
		qa, qb := qs[order[a]], qs[order[b]]
		if qa.Load != qb.Load {
			return qa.Load > qb.Load
		}
		return qa.ID < qb.ID
	})
	total := 0.0
	for _, q := range qs {
		total += q.Load
	}
	target := total / float64(cfg.Shards)
	streams := len(qs[0].Weights)
	shardW := make([][]float64, cfg.Shards)
	for s := range shardW {
		shardW[s] = make([]float64, streams)
	}
	for _, i := range order {
		q := qs[i]
		s := place(q, shardW, out.Loads, target, cfg.RelayFrac)
		out.Shard[q.ID] = s
		out.Loads[s] += q.Load
		for k, w := range q.Weights {
			shardW[s][k] += w
		}
	}
	return out
}

// PlaceOne places a single new query into an existing assignment without
// disturbing it — the incremental path a service takes on Register,
// deferring full repartitions to explicit or drift-driven moments.
func PlaceOne(q Query, existing []Query, assign map[string]int, cfg Config) int {
	cfg = cfg.norm()
	loads := make([]float64, cfg.Shards)
	streams := len(q.Weights)
	shardW := make([][]float64, cfg.Shards)
	for s := range shardW {
		shardW[s] = make([]float64, streams)
	}
	total := q.Load
	for _, e := range existing {
		s, ok := assign[e.ID]
		if !ok || s < 0 || s >= cfg.Shards {
			continue
		}
		loads[s] += e.Load
		total += e.Load
		for k, w := range e.Weights {
			if k < streams {
				shardW[s][k] += w
			}
		}
	}
	return place(q, shardW, loads, total/float64(cfg.Shards), cfg.RelayFrac)
}

// Loss is the modelled cost of a placement versus planning the fleet as
// one workload.
type Loss struct {
	// JointK is the sum over shards of the per-shard joint plan costs:
	// what the partitioned fleet's planners model, with sharing only
	// inside each shard.
	JointK float64
	// JointOne is the K=1 baseline: the cheaper of the full-fleet joint
	// plan and the per-shard schedules re-priced under the full joint
	// objective (so JointOne <= JointK always — splitting a fleet can
	// only lose discounts, never gain them).
	JointOne float64
	// LostPct is the relative sharing lost to partitioning:
	// (JointK - JointOne) / JointOne, in percent. 0 at K=1.
	LostPct float64
	// RelayK prices the same placement with a fleet relay at transfer
	// fraction f: the duplicated spend JointK - JointOne is the expected
	// cost of items re-acquired across shards, and a relay turns each such
	// re-acquisition into a transfer at f of its price, so
	// RelayK = JointOne + f*(JointK - JointOne). Zero when no relay
	// pricing was applied (see WithRelay).
	RelayK float64 `json:"relay_k,omitempty"`
	// RelayLostPct is LostPct under relay pricing:
	// (RelayK - JointOne) / JointOne = f * LostPct.
	RelayLostPct float64 `json:"relay_lost_pct,omitempty"`
	// RelayFrac echoes the transfer fraction RelayK was priced at.
	RelayFrac float64 `json:"relay_frac,omitempty"`
}

// WithRelay prices the placement's sharing loss under a fleet relay with
// per-item transfer cost frac (clamped to [0, 1]): cross-shard duplicate
// spend is paid at frac of acquisition cost instead of in full. The
// relay-priced loss interpolates linearly between the K=1 joint cost
// (frac = 0, transfers free) and the partitioned cost (frac = 1, a
// transfer as dear as an acquisition).
func (l Loss) WithRelay(frac float64) Loss {
	if frac < 0 {
		frac = 0
	}
	if frac > 1 {
		frac = 1
	}
	l.RelayFrac = frac
	l.RelayK = l.JointOne + frac*(l.JointK-l.JointOne)
	l.RelayLostPct = frac * l.LostPct
	return l
}

// SharingLoss prices an assignment: per-shard joint plans summed,
// against the K=1 joint cost of the same fleet. Trees are priced against
// a cold cache, so the number is a structural property of the placement
// rather than of one tick's warm state.
func SharingLoss(qs []Query, assign map[string]int, shards int) Loss {
	if shards < 1 {
		shards = 1
	}
	var loss Loss
	if len(qs) == 0 {
		return loss
	}
	trees := make([]*query.Tree, len(qs))
	for i, q := range qs {
		trees[i] = q.Tree
	}
	if shards == 1 {
		// One shard IS the K=1 baseline: a single joint plan, zero loss,
		// exactly (no re-derivation that could differ in the last ulp).
		full := fleet.PlanJoint(trees, nil)
		loss.JointK, loss.JointOne = full.Expected, full.Expected
		return loss
	}
	// Per-shard joint plans; remember each query's chosen schedule so
	// the K=1 baseline can price the very same orders fleet-wide.
	schedules := make([]sched.Schedule, len(qs))
	for s := 0; s < shards; s++ {
		var idx []int
		for i, q := range qs {
			if assign[q.ID] == s {
				idx = append(idx, i)
			}
		}
		if len(idx) == 0 {
			continue
		}
		group := make([]*query.Tree, len(idx))
		for gi, i := range idx {
			group[gi] = trees[i]
		}
		plan := fleet.PlanJoint(group, nil)
		loss.JointK += plan.Expected
		for gi, i := range idx {
			schedules[i] = plan.Queries[gi].Schedule
		}
	}
	full := fleet.PlanJoint(trees, nil)
	loss.JointOne = full.Expected
	// The full planner's greedy is not optimal; the per-shard orders
	// priced under the full joint objective are another K=1 candidate,
	// and taking the min makes JointOne <= JointK hold unconditionally
	// (same schedules, strictly more cross-discounts).
	if repriced := fleet.PriceJoint(trees, schedules, nil); repriced < loss.JointOne {
		loss.JointOne = repriced
	}
	if loss.JointOne > 0 {
		loss.LostPct = 100 * (loss.JointK - loss.JointOne) / loss.JointOne
	}
	return loss
}
