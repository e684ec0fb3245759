// Package paotr solves the Probabilistic AND-OR Tree Resolution (PAOTR)
// problem with shared streams: given a boolean query tree whose leaves are
// probabilistic predicates over windowed sensor data streams, find a leaf
// evaluation order (schedule) minimizing the expected data acquisition
// cost, where a data item pulled for one leaf is reused for free by every
// later leaf that needs it.
//
// It is a from-scratch reproduction of
//
//	H. Casanova, L. Lim, Y. Robert, F. Vivien, D. Zaidouni.
//	"Cost-Optimal Execution of Boolean Query Trees with Shared Streams."
//	IPDPS 2014.
//
// The package exposes the library's stable public surface; the
// implementation lives in internal packages:
//
//   - Exact expected-cost evaluation of any schedule (Proposition 2),
//     with truth-table and Monte-Carlo reference evaluators.
//   - The optimal greedy algorithm for shared AND-trees (Algorithm 1,
//     Theorem 1) and the classical read-once greedy baseline.
//   - Ten DNF scheduling heuristics (leaf-, AND- and stream-ordered) and
//     exhaustive branch-and-bound searches exploiting depth-first
//     dominance (Theorem 2).
//   - Random instance generators and experiment drivers reproducing every
//     figure of the paper's evaluation.
//   - A full pull-model query engine over simulated sensor streams, with
//     a query language, windowed predicates, an acquisition cache and
//     trace-driven probability estimation.
//   - A concurrent multi-query scheduling service (internal/service,
//     cmd/paotrserve): many continuous queries share one acquisition
//     cache, queries equal up to commutativity are planned and evaluated
//     once per shape class, and cached plans skip re-planning.
//
// # Quick start
//
//	tree := &paotr.Tree{
//	    Streams: []paotr.Stream{{Name: "A", Cost: 1}, {Name: "B", Cost: 1}},
//	    Leaves: []paotr.Leaf{
//	        {And: 0, Stream: 0, Items: 1, Prob: 0.75},
//	        {And: 0, Stream: 0, Items: 2, Prob: 0.10},
//	        {And: 0, Stream: 1, Items: 1, Prob: 0.50},
//	    },
//	}
//	schedule := paotr.OptimalAndTree(tree)       // Algorithm 1
//	cost := paotr.ExpectedCost(tree, schedule)   // 1.825
package paotr

import (
	"math/rand/v2"

	"paotr/internal/andtree"
	"paotr/internal/dnf"
	"paotr/internal/query"
	"paotr/internal/sched"
	"paotr/internal/strategy"
)

// Core model types, re-exported from internal/query.
type (
	// Tree is a DNF query tree (an OR of AND nodes); an AND-tree is a
	// Tree with a single AND node.
	Tree = query.Tree
	// Stream is a data stream with a per-item acquisition cost.
	Stream = query.Stream
	// StreamID indexes a Tree's streams.
	StreamID = query.StreamID
	// Leaf is a probabilistic predicate leaf.
	Leaf = query.Leaf
	// Node is a general AND-OR tree as produced by the parser; use
	// Node.ToDNF to obtain a schedulable Tree.
	Node = query.Node
	// Schedule is a leaf evaluation order.
	Schedule = sched.Schedule
	// Heuristic is a named DNF schedule-construction strategy.
	Heuristic = dnf.Heuristic
	// SearchOptions bounds exhaustive schedule searches.
	SearchOptions = dnf.SearchOptions
	// SearchResult is the outcome of an exhaustive schedule search.
	SearchResult = dnf.SearchResult
)

// ExpectedCost returns the exact expected acquisition cost of evaluating
// tree t in schedule order s (Proposition 2 of the paper). s may also be a
// prefix of a schedule.
func ExpectedCost(t *Tree, s Schedule) float64 { return sched.Cost(t, s) }

// AndTreeCost is a specialized O(m) expected-cost evaluation for AND-trees.
func AndTreeCost(t *Tree, s Schedule) float64 { return sched.AndTreeCost(t, s) }

// MonteCarloCost estimates the expected cost of a schedule by simulating n
// random executions — an independent check of ExpectedCost.
func MonteCarloCost(t *Tree, s Schedule, n int, rng *rand.Rand) float64 {
	return sched.MonteCarloCost(t, s, n, rng)
}

// OptimalAndTree returns a cost-optimal schedule for a shared AND-tree
// (Algorithm 1 / Theorem 1 of the paper). It panics if t has more than one
// AND node.
func OptimalAndTree(t *Tree) Schedule { return andtree.Greedy(t) }

// ReadOnceAndTree returns the classical read-once greedy schedule (sort by
// d*c/q), which is optimal only when no stream is shared — the baseline of
// the paper's Figure 4.
func ReadOnceAndTree(t *Tree) Schedule { return andtree.ReadOnceGreedy(t) }

// ScheduleDNF builds a schedule for a DNF tree with the paper's best
// heuristic: AND-ordered by increasing C/p with dynamic cost computation.
func ScheduleDNF(t *Tree) Schedule { return dnf.AndOrderedIncCOverPDynamic(t, nil) }

// Heuristics returns the ten schedule heuristics evaluated in the paper's
// Figures 5 and 6, in figure-legend order.
func Heuristics() []Heuristic { return dnf.Heuristics() }

// BestHeuristic runs every deterministic heuristic and returns the
// cheapest schedule found with its cost (a portfolio scheduler).
func BestHeuristic(t *Tree) (Schedule, float64) { return dnf.BestHeuristicSchedule(t) }

// OptimalDNF finds a provably optimal schedule for a DNF tree by
// branch-and-bound over depth-first schedules (sound by Theorem 2).
// The search is exponential; bound it with opts.MaxNodes for large trees,
// in which case the result may be inexact (Exact=false).
func OptimalDNF(t *Tree, opts SearchOptions) SearchResult {
	return dnf.OptimalDepthFirst(t, opts)
}

// OptimalNonLinear computes the expected cost of an optimal non-linear
// (decision-tree) strategy by dynamic programming — the Section V
// extension. Limited to 12 leaves.
func OptimalNonLinear(t *Tree) float64 { return strategy.OptimalNonLinear(t) }

// NonLinearCounterExample returns a shared DNF tree on which the optimal
// non-linear strategy is strictly cheaper than every schedule, witnessing
// that linear strategies are not dominant in the shared model.
func NonLinearCounterExample() *Tree { return strategy.CounterExample() }

// NewAndTree builds a single-AND tree from streams and leaves.
func NewAndTree(streams []Stream, leaves []Leaf) *Tree {
	return query.NewAndTree(streams, leaves)
}

// Warm describes data items already held in the device cache when a
// schedule starts; Warm[k][t-1] is true when the t-th most recent item of
// stream k is in memory. It generalizes Algorithm 1's NItems mechanism to
// the arbitrary cache states of continuous query processing.
type Warm = sched.Warm

// WarmFromCounts builds a prefix-form warm state: counts[k] most recent
// items of stream k are cached.
func WarmFromCounts(counts []int) Warm { return sched.WarmFromCounts(counts) }

// ExpectedCostWarm is ExpectedCost starting from a warm cache: items
// already held contribute zero acquisition cost.
func ExpectedCostWarm(t *Tree, s Schedule, w Warm) float64 { return sched.CostWarm(t, s, w) }

// OptimalAndTreeWarm is Algorithm 1 generalized to a warm cache; it
// matches the exhaustive warm-start optimum on randomized tests.
func OptimalAndTreeWarm(t *Tree, w Warm) Schedule { return andtree.GreedyWarm(t, w) }

// ScheduleDNFWarm is the paper's best heuristic computed against a warm
// cache — the planner used by the continuous query engine.
func ScheduleDNFWarm(t *Tree, w Warm) Schedule {
	return dnf.AndOrderedIncCOverPDynamicWarm(t, w)
}

// OptimalDNFParallel is OptimalDNF with the first branching level fanned
// out over worker goroutines sharing the incumbent; results are identical
// to the sequential search.
func OptimalDNFParallel(t *Tree, opts SearchOptions, workers int) SearchResult {
	return dnf.OptimalDepthFirstParallel(t, opts, workers)
}
