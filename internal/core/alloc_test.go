package core

import (
	"testing"
	"time"
)

// maxAllocsPerEvent bounds the paper testbed's steady-state heap
// allocations per processed event. The count does not depend on the
// machine, so the gate is exact where a timing gate could only be loose.
// What remains under the bound is mostly the gPTP payloads (Sync,
// FollowUp, Pdelay*), which are shared across fan-out clones and are not
// pooled.
const maxAllocsPerEvent = 0.35

// TestDataPathAllocsPerEvent converges the paper testbed and then measures
// allocations per processed event over a fixed simulated span.
func TestDataPathAllocsPerEvent(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	sys := buildAndStart(t, 1, nil)
	runFor(t, sys, time.Minute) // converge, so start-up transients are excluded

	const span = 30 * time.Second
	const runs = 4
	// AllocsPerRun makes one untimed warm-up call before the runs it
	// averages; events are counted only for the measured calls.
	var calls int
	var events uint64
	var runErr error
	allocs := testing.AllocsPerRun(runs, func() {
		before := sys.Scheduler().Processed()
		if err := sys.RunFor(span); err != nil && runErr == nil {
			runErr = err
		}
		if calls > 0 {
			events += sys.Scheduler().Processed() - before
		}
		calls++
	})
	if runErr != nil {
		t.Fatalf("run: %v", runErr)
	}
	if events == 0 {
		t.Fatal("no events processed in the measured span")
	}
	perEvent := allocs / (float64(events) / runs)
	t.Logf("%.0f allocs per %v span, %.3f allocs/event", allocs, span, perEvent)
	if perEvent > maxAllocsPerEvent {
		t.Fatalf("testbed data path allocates %.3f per event, want <= %.2f", perEvent, maxAllocsPerEvent)
	}
}
