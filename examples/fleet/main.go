// Fleet: cross-query joint planning over a sharded acquisition cache —
// the multi-query generalization of the paper's shared-aware scheduling.
//
// Six tenants run continuous queries that are each torn between a branch
// on one shared, expensive stream and a branch on a cheap private
// stream. Planned independently (the paper's per-query C/p heuristic),
// every tenant opens on its private stream: in isolation that branch is
// marginally cheaper. Planned jointly (internal/fleet), the planner sees
// that once one tenant pulls the shared window it is probably free for
// everyone else, discounts accordingly, and steers the fleet onto the
// shared stream — the same C/p greedy, applied across query boundaries.
//
// The example runs the fleet through engine.Workload — each query
// planned on its own, executed in order over one shared cache — and
// through the service's joint planner over identically seeded streams,
// and prints the realized acquisition costs, then the per-stream traffic
// breakdown showing where the sharing happened.
package main

import (
	"fmt"

	"paotr/internal/engine"
	"paotr/internal/service"
	"paotr/internal/stream"
)

const tenants = 6

// newRegistry builds one shared expensive stream plus a cheap private
// stream per tenant.
func newRegistry(seed uint64) *stream.Registry {
	reg := stream.NewRegistry()
	if err := reg.Add(stream.Uniform("shared", seed), stream.CostModel{BaseJoules: 8}); err != nil {
		panic(err)
	}
	for i := 0; i < tenants; i++ {
		name := fmt.Sprintf("private%d", i)
		if err := reg.Add(stream.Uniform(name, seed+uint64(i)+1), stream.CostModel{BaseJoules: 7}); err != nil {
			panic(err)
		}
	}
	return reg
}

// queries are the tenants' two-branch queries.
func queries() []string {
	out := make([]string, tenants)
	for i := range out {
		out[i] = fmt.Sprintf("(AVG(shared,4) > 0.2 [p=0.5]) OR (AVG(private%d,4) > 0.2 [p=0.5])", i)
	}
	return out
}

func main() {
	const seed = 99
	const ticks = 500

	fmt.Printf("fleet planning demo: %d tenants, 1 shared + %d private streams, %d ticks\n\n",
		tenants, tenants, ticks)

	indep, err := engine.NewWorkload(engine.New(newRegistry(seed)), queries()...)
	if err != nil {
		panic(err)
	}
	if _, err := indep.Run(ticks); err != nil {
		panic(err)
	}

	joint := service.New(newRegistry(seed), service.WithWorkers(4))
	for i, text := range queries() {
		if err := joint.Register(fmt.Sprintf("tenant%d", i), text); err != nil {
			panic(err)
		}
	}
	joint.Run(ticks)
	mj := joint.Metrics()

	fmt.Printf("%-24s %14s %14s\n", "", "per-query", "fleet-planned")
	fmt.Printf("%-24s %12.1f J %12.1f J\n", "realized acquisition", indep.Spent(), mj.PaidCost)
	fmt.Printf("\nrealized saving: %.1f%%  (modelled joint-vs-independent saving: %.1f%%)\n",
		100*(1-mj.PaidCost/indep.Spent()), 100*mj.FleetModelledSaving)
	fmt.Printf("fleet plans: %d (%d served from the joint plan cache)\n\n",
		mj.FleetPlans, mj.FleetPlanReuses)

	fmt.Printf("per-stream traffic under fleet planning:\n")
	fmt.Printf("%-12s %10s %8s %9s %10s\n", "stream", "requested", "pulled", "hit-rate", "spent J")
	for _, ps := range mj.PerStream {
		fmt.Printf("%-12s %10d %8d %8.1f%% %9.1f\n",
			ps.Name, ps.Requested, ps.Transferred, 100*ps.HitRate, ps.Spent)
	}
	fmt.Printf("\nthe shared stream absorbs the fleet's demand (high hit rate: %d tenants\n", tenants)
	fmt.Printf("reuse each pulled window) while private streams see only short-circuit residue.\n")
}
