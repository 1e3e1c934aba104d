package main

import (
	"math"
	"reflect"
	"strings"
	"testing"
)

func runWorkload(t *testing.T, name string, seed int64, seconds float64, traced bool) *outcome {
	t.Helper()
	o := options{workload: name, seed: seed, seconds: seconds}
	if traced {
		o.rec = NewRecorder()
	}
	out := newOutcome()
	if err := workloads[name](o, out); err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	if len(out.failures) > 0 {
		t.Fatalf("%s: failed checks: %v", name, out.failures)
	}
	return out
}

// TestEventsPerSimSIndependentOfRunLength pins the timed-window
// accounting: the convergence prefix never leaks into the counts, so the
// event rate and the digest read the same at two run lengths.
func TestEventsPerSimSIndependentOfRunLength(t *testing.T) {
	short := runWorkload(t, "testbed", 3, 0.01, false)
	long := runWorkload(t, "testbed", 3, 16, false)
	if long.attempted <= short.attempted {
		t.Fatalf("run lengths did not differ: %d vs %d chunks", short.attempted, long.attempted)
	}
	for _, k := range []string{"events_per_sim_s", "sim_digest", "prefix_digest"} {
		if short.detail[k] != long.detail[k] {
			t.Errorf("%s: %v at %d chunks, %v at %d chunks", k,
				short.detail[k], short.attempted, long.detail[k], long.attempted)
		}
	}
}

func TestScheduleComesFromTheSeed(t *testing.T) {
	a, b := schedule(7, 200), schedule(7, 200)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("one seed gave two schedules")
	}
	if reflect.DeepEqual(a, schedule(8, 200)) {
		t.Fatal("two seeds gave one schedule")
	}
	cold, seeds := 0, map[int64]int{}
	for i, x := range a {
		if !x.Warm {
			cold++
		}
		seeds[x.Seed]++
		due := (float64(i) + 0.5) / arrivalRate
		if d := x.At.Seconds() - due; math.Abs(d) > 0.4/arrivalRate+1e-9 {
			t.Fatalf("arrival %d is %.3fs off its pace", i, d)
		}
	}
	if cold != 50 {
		t.Errorf("%d cold jobs of 200; want 50", cold)
	}
	if len(seeds) != poolSize {
		t.Errorf("%d distinct prefix seeds; want %d", len(seeds), poolSize)
	}
	if a[len(a)-1].At.Seconds() > 200/arrivalRate {
		t.Errorf("schedule overruns its window: last arrival at %v", a[len(a)-1].At)
	}
}

// TestEveryPerLayerMetricIsMeasured runs each workload traced and checks
// that together they measure every per-layer row and that each run's CPU
// shares sum to 1.
func TestEveryPerLayerMetricIsMeasured(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	measured := map[string]bool{}
	for name := range workloads {
		out := runWorkload(t, name, 1, 0.5, true)
		if _, _, err := report(out, false); err != nil {
			t.Errorf("%s: %v", name, err)
		}
		if _, _, err := report(out, true); err != nil {
			t.Errorf("%s: %v", name, err)
		}
		var cpu float64
		for k, v := range out.metrics {
			measured[k] = true
			if strings.HasSuffix(k, ".cpu_frac") {
				cpu += v
			}
		}
		if math.Abs(cpu-1) > 1e-9 {
			t.Errorf("%s: cpu_frac shares sum to %v", name, cpu)
		}
	}
	for _, s := range perLayer {
		if !measured[s.Name] {
			t.Errorf("no workload measures %s", s.Name)
		}
	}
}
