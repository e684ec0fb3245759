// CSE: cross-tenant shape factoring — plan and evaluate each distinct
// query shape once per tick, however many tenants subscribe to it.
//
// A multi-tenant deployment rarely carries N distinct query shapes:
// tenants install the same alert templates over the same shared feeds.
// The service canonicalizes every registered query's shape (leaves
// sorted within AND terms, terms sorted within the OR) and interns
// identities into shape equivalence classes. Each tick, one leader per
// class evaluates the shared plan and its verdict fans out to every
// subscriber at zero cost; the joint planner and the drift detectors see
// one class, not N twins.
//
// The example registers 1,000 tenants drawing on 20 distinct shapes and
// runs the same fleet over identically seeded streams through
// engine.Workload — every tenant's query planned and evaluated on its
// own, the unfactored baseline — and through the factoring service. It
// prints the per-tick cost of each plus the factored fleet's class
// census, and checks that factoring changes what is paid and planned,
// never the verdict any tenant observes.
package main

import (
	"fmt"
	"time"

	"paotr/internal/corpus"
	"paotr/internal/engine"
	"paotr/internal/service"
	"paotr/internal/stream"
)

func newRegistry(cfg corpus.CSEConfig) *stream.Registry {
	reg := stream.NewRegistry()
	for i, name := range cfg.StreamNames() {
		if err := reg.Add(stream.Uniform(name, uint64(i+1)), stream.CostModel{BaseJoules: 1}); err != nil {
			panic(err)
		}
	}
	return reg
}

// run ticks the factoring service over cfg's fleet and returns its
// metrics, the mean tick time, and every tick's per-tenant verdicts.
func run(cfg corpus.CSEConfig, ticks int) (service.Metrics, time.Duration, [][]bool) {
	svc := service.New(newRegistry(cfg), service.WithWorkers(4))
	for _, q := range corpus.CSEFleet(cfg) {
		if err := svc.Register(q.ID, q.Text); err != nil {
			panic(err)
		}
	}
	verdicts := make([][]bool, ticks)
	var elapsed time.Duration
	for i := range verdicts {
		t0 := time.Now()
		tr := svc.Tick()
		elapsed += time.Since(t0)
		for _, e := range tr.Executions {
			verdicts[i] = append(verdicts[i], e.Value)
		}
	}
	return svc.Metrics(), elapsed / time.Duration(ticks), verdicts
}

func main() {
	cfg := corpus.CSEConfig{Tenants: 1000, Shapes: 20, Streams: 16, Seed: 42}
	const ticks = 20

	fmt.Printf("shape factoring demo: %d tenants over %d distinct shapes, %d streams\n\n",
		cfg.Tenants, cfg.Shapes, cfg.Streams)

	var texts []string
	for _, q := range corpus.CSEFleet(cfg) {
		texts = append(texts, q.Text)
	}
	w, err := engine.NewWorkload(engine.New(newRegistry(cfg)), texts...)
	if err != nil {
		panic(err)
	}
	t0 := time.Now()
	steps, err := w.Run(ticks)
	if err != nil {
		panic(err)
	}
	offTick := time.Since(t0) / ticks
	on, onTick, verdicts := run(cfg, ticks)
	mismatches := 0
	for i, st := range steps {
		for j, r := range st.Results {
			if r.Value != verdicts[i][j] {
				mismatches++
			}
		}
	}

	fmt.Printf("per-query workload: %7.2fms/tick  %7.1f J/tick  %d evaluations/tick\n",
		offTick.Seconds()*1e3, w.Spent()/ticks, cfg.Tenants)
	fmt.Printf("factoring service:  %7.2fms/tick  %7.1f J/tick  %d executions/tick (%d shared)\n",
		onTick.Seconds()*1e3, on.PaidCost/ticks, on.Executions/ticks, on.SharedExecutions/ticks)
	fmt.Printf("verdict mismatches: %d of %d\n\n", mismatches, ticks*cfg.Tenants)

	fmt.Printf("class census: %d distinct shapes carry %d subscribers (%.0f per class)\n",
		on.DistinctShapes, on.ShapeSubscribers,
		float64(on.ShapeSubscribers)/float64(on.DistinctShapes))
	fmt.Printf("tick speedup: %.1fx\n", offTick.Seconds()/onTick.Seconds())

	// The negative control: jittered probabilities make every tenant's
	// shape unique, so nothing may be factored and the census degenerates
	// to one class per tenant.
	jcfg := cfg
	jcfg.Tenants, jcfg.Jitter = 200, 0.02
	jm, _, _ := run(jcfg, 10)
	fmt.Printf("\njittered control: %d tenants -> %d classes, %d shared executions\n",
		jcfg.Tenants, jm.DistinctShapes, jm.SharedExecutions)
}
