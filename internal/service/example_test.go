package service_test

import (
	"errors"
	"fmt"

	"paotr/internal/admit"
	"paotr/internal/service"
	"paotr/internal/stream"
)

// Example runs a tiny fleet end to end: register monitoring queries
// over the simulated wearables streams, advance a few ticks, and read
// the fleet metrics. Same-shape registrations are interned into one
// equivalence class and evaluated once per tick.
func Example() {
	svc := service.New(stream.Wearables(1))
	_ = svc.Register("icu/hr", "AVG(heart-rate,5) > 100")
	_ = svc.Register("ward/hr", "AVG(heart-rate,5) > 100") // twin shape: shares the evaluation
	_ = svc.Register("icu/spo2", "spo2 < 92")
	svc.Run(10)

	m := svc.Metrics()
	fmt.Printf("queries: %d over %d distinct shapes\n", m.Queries, m.DistinctShapes)
	fmt.Printf("ticks: %d, paid within expectation: %v\n", m.Ticks, m.PaidCost <= m.ExpectedCost)
	// Output:
	// queries: 3 over 2 distinct shapes
	// ticks: 10, paid within expectation: true
}

// ExampleAdmissionGate prices a registration by its marginal joint cost
// and enforces the tenant's energy budget: the gate quotes it against
// the joint planner's resident state, charges the token bucket on
// admit, and parks over-budget registrations until refills cover them.
func ExampleAdmissionGate() {
	cfg := admit.DefaultConfig()
	cfg.RefillJPerTick = 1
	cfg.BurstJ = 2
	gate := service.NewAdmissionGate(service.New(stream.Wearables(1)), admit.NewController(cfg))

	err := gate.RegisterTier("t/first", "AVG(heart-rate,5) > 100 AND spo2 < 95", admit.TierGold)
	fmt.Println("first:", err)

	err = gate.RegisterTier("t/second", "accelerometer > 15", admit.TierBronze)
	var adm *service.AdmissionError
	if errors.As(err, &adm) {
		fmt.Printf("second: %s %s, queued=%v\n", adm.Decision.Action, adm.Decision.Reason, adm.Queued)
	}

	gate.Run(30) // refills accrue; the parked registration admits at a tick boundary
	fmt.Println("resident queries:", len(gate.QueryIDs()))
	// Output:
	// first: <nil>
	// second: defer budget-exhausted, queued=true
	// resident queries: 2
}
