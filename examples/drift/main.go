// Drift: online adaptive estimation versus the cumulative baseline on a
// regime-shifting workload.
//
// The paper infers leaf probabilities "based on historical traces
// obtained for previous query executions" (Section I). A cumulative
// counter implements that literally — and never forgets: after hundreds
// of ticks of history, a real regime shift moves its estimate only
// glacially, so the planner keeps executing a schedule built for a world
// that no longer exists. The service replaces it with the internal/adapt
// sliding-window estimators, learned per-item costs and Page-Hinkley
// change detectors that evict exactly the affected plans on a shift.
//
// This example runs the same regime-shift corpus (probabilities AND
// per-item prices of streams r0..r3 flip at tick 300) through the
// service and through engine.Workload — the paper's per-query baseline
// over the cumulative trace store — and prints, around the shift, the
// two estimates of the flipping predicate "r3 < 0.5" (true probability
// 0.1 → 0.8) next to each other — the windowed track re-converges within
// a window while the cumulative one crawls — followed by the realized
// post-shift J/tick of both and the detector activity that closed the
// loop.
package main

import (
	"fmt"

	"paotr/internal/corpus"
	"paotr/internal/engine"
	"paotr/internal/service"
)

const (
	shiftTick = 300
	postTicks = 300
)

var cfg = corpus.RegimeConfig{Seed: 17, ShiftStep: shiftTick}

func main() {
	aReg := corpus.RegimeRegistry(cfg)
	adaptive := service.New(aReg, service.WithWorkers(4))
	for i, q := range corpus.RegimeQueries(cfg) {
		if err := adaptive.Register(fmt.Sprintf("q%d", i), q); err != nil {
			panic(err)
		}
	}
	staleEng := engine.New(corpus.RegimeRegistry(cfg))
	stale, err := engine.NewWorkload(staleEng, corpus.RegimeQueries(cfg)...)
	if err != nil {
		panic(err)
	}

	fmt.Printf("regime-shift corpus: streams r0..r3 flip probabilities and per-item costs at tick %d\n", shiftTick)
	fmt.Printf("predicate under watch: %q — true probability 0.10 before the shift, 0.80 after\n\n", "r3 < 0.5")
	fmt.Printf("%6s %14s %14s\n", "tick", "windowed est", "cumulative est")

	probe := func(eng *engine.Engine) float64 {
		p, _ := eng.Estimator().Estimate("r3 < 0.5")
		return p
	}
	checkpoints := map[int]bool{
		100: true, 200: true, 290: true, 320: true, 340: true,
		360: true, 380: true, 420: true, 500: true, 600: true,
	}
	var shiftAdaptive service.Metrics
	var shiftStale float64
	for tick := 1; tick <= shiftTick+postTicks; tick++ {
		adaptive.Tick()
		if _, err := stale.Step(); err != nil {
			panic(err)
		}
		if tick == shiftTick {
			shiftAdaptive, shiftStale = adaptive.Metrics(), stale.Spent()
		}
		if checkpoints[tick] {
			marker := ""
			if tick > shiftTick {
				marker = "   <- post-shift"
			}
			fmt.Printf("%6d %14.3f %14.3f%s\n", tick, probe(adaptive.Engine()), probe(staleEng), marker)
		}
	}

	am := adaptive.Metrics()
	aPost := (am.PaidCost - shiftAdaptive.PaidCost) / postTicks
	sPost := (stale.Spent() - shiftStale) / postTicks
	fmt.Printf("\n--- realized acquisition cost, %d post-shift ticks ---\n", postTicks)
	fmt.Printf("windowed service:      %.2f J/tick\n", aPost)
	fmt.Printf("cumulative workload:   %.2f J/tick\n", sPost)
	fmt.Printf("adaptation dividend:   %.1f%%\n", 100*(1-aPost/sPost))

	fmt.Printf("\n--- detector activity (windowed fleet) ---\n")
	fmt.Printf("predicate trips: %d, cost trips: %d, forced replans: %d, avg CI width: %.2f\n",
		am.PredicateDetectorTrips, am.CostDetectorTrips, am.ReplansForced, am.AvgCIWidth)
	fmt.Printf("\n%-6s %12s %12s %10s\n", "stream", "static J", "learned J", "cost-trips")
	for _, ps := range am.PerStream {
		static := aReg.At(ps.Stream).Cost.PerItem()
		fmt.Printf("%-6s %12.2f %12.2f %10d\n", ps.Name, static, ps.LearnedCostPerItem, ps.CostDetectorTrips)
	}
}
