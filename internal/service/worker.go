// The Worker interface is the coordinator/worker seam of the sharded
// runtime: everything the Sharded coordinator needs from one shard
// worker, implemented directly by *Service for in-process workers and by
// an HTTP client (see remote.go) for `paotrserve -worker` processes. The
// coordinator owns the shard partitioner, the fleet-global L2 item relay
// and the aggregated metrics; workers own their queries, striped L1
// caches, planners and estimators.
package service

import (
	"paotr/internal/adapt"
	"paotr/internal/query"
)

// Worker is one shard worker as the coordinator sees it. All methods
// must be safe for concurrent use.
type Worker interface {
	// Register / Unregister manage query ownership; Tick advances the
	// worker's time by one step and executes its due queries; Results,
	// QueryMetrics and Metrics read back state — the Runtime surface,
	// scoped to the worker's slice of the fleet.
	Register(id, text string, opts ...QueryOption) error
	Unregister(id string) error
	// QuoteRegister prices a registration against the worker's own
	// resident fleet without performing it (see Service.QuoteRegister).
	QuoteRegister(id, text string, opts ...QueryOption) (Quote, error)
	Tick() TickResult
	Results(id string, n int) ([]Execution, error)
	QueryMetrics(id string) (QueryMetrics, error)
	Metrics() Metrics

	// ProfileTree returns the query's probability-annotated tree and its
	// predicate trace keys — what the coordinator profiles placements
	// with (see shard.Profile) and migrates estimator state by.
	ProfileTree(id string) (*query.Tree, []string, bool)
	// Trips totals the worker's detector trips; the coordinator polls it
	// to decide when drift warrants a repartition.
	Trips() int64
	// ExportEvidence / ImportEvidence migrate windowed-estimator evidence
	// when a query moves between workers.
	ExportEvidence(keys []string) []adapt.PredicateSnapshot
	ImportEvidence(snaps []adapt.PredicateSnapshot)
	// SetStreamCostScale installs the coordinator's relay-discounted
	// per-stream cost multipliers on the worker's joint planner.
	SetStreamCostScale(scale []float64)
}

var _ Worker = (*Service)(nil)
