package main

import (
	"testing"

	"paotr/internal/service"
	"paotr/internal/stream"
)

// The reference checker agrees with the service on every verdict of 50
// ticks over all 20 templates and a sample of distinct shapes, and it
// catches a flipped verdict.
func TestReferenceCheckerAgreesWithService(t *testing.T) {
	svc := service.New(stream.Wearables(sensorSeed))
	live := &liveSet{}
	g := &generator{phase: 0.3}
	var regs []Reg
	for i, text := range templates {
		regs = append(regs, Reg{ID: "tpl/" + text, Query: text, Every: twinEvery[i%len(twinEvery)]})
	}
	for i := 0; i < 20; i++ {
		regs = append(regs, Reg{ID: "distinct/" + string(rune('a'+i)), Query: g.distinctQuery(i), Every: 1})
	}
	for _, r := range regs {
		if err := svc.Register(r.ID, r.Query, service.Every(r.Every)); err != nil {
			t.Fatal(err)
		}
		live.add(r)
	}
	v := newVerifier()
	var last service.TickResult
	for tick := int64(1); tick <= 50; tick++ {
		last = svc.Tick()
		v.tick(last, tick, live)
	}
	if v.mismatches != 0 || v.checked < 50*20 {
		t.Fatalf("%d mismatches in %d checked verdicts: %v", v.mismatches, v.checked, v.notes)
	}

	flipped := service.TickResult{Tick: last.Tick, Executions: append([]service.Execution(nil), last.Executions...)}
	flipped.Executions[3].Value = !flipped.Executions[3].Value
	v = newVerifier()
	v.tick(flipped, 50, live)
	if v.mismatches != 1 {
		t.Fatalf("a flipped verdict gave %d mismatches, want 1", v.mismatches)
	}
	v = newVerifier()
	v.tick(service.TickResult{Tick: 50, Executions: last.Executions[1:]}, 50, live)
	if v.mismatches != 1 {
		t.Fatalf("a missing execution gave %d mismatches, want 1", v.mismatches)
	}
}
