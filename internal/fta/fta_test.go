package fta

import (
	"errors"
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
	"time"
)

func TestAverageBasic(t *testing.T) {
	tests := []struct {
		name     string
		readings []float64
		f        int
		want     float64
	}{
		{"paper config N=4 f=1", []float64{-100, 0, 50, 2000}, 1, 25},
		{"all equal", []float64{7, 7, 7}, 1, 7},
		{"f=0 plain mean", []float64{1, 2, 3, 4}, 0, 2.5},
		{"N=3 f=1 median", []float64{-1e9, 10, 1e9}, 1, 10},
		{"N=5 f=2 median", []float64{-1e9, -5, 10, 99, 1e9}, 2, 10},
		{"unsorted input", []float64{2000, -100, 50, 0}, 1, 25},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			got, err := Average(tc.readings, tc.f)
			if err != nil {
				t.Fatalf("Average: %v", err)
			}
			if math.Abs(got-tc.want) > 1e-12 {
				t.Fatalf("Average = %v, want %v", got, tc.want)
			}
		})
	}
}

func TestAverageErrors(t *testing.T) {
	if _, err := Average([]float64{1, 2}, 1); !errors.Is(err, ErrInsufficientClocks) {
		t.Fatalf("err = %v, want ErrInsufficientClocks", err)
	}
	if _, err := Average(nil, 0); !errors.Is(err, ErrInsufficientClocks) {
		t.Fatalf("err = %v, want ErrInsufficientClocks for empty input", err)
	}
	if _, err := Average([]float64{1, 2, 3}, -1); err == nil {
		t.Fatal("negative f accepted")
	}
}

func TestAverageDoesNotMutateInput(t *testing.T) {
	in := []float64{5, 1, 4, 2}
	if _, err := Average(in, 1); err != nil {
		t.Fatalf("Average: %v", err)
	}
	want := []float64{5, 1, 4, 2}
	for i := range in {
		if in[i] != want[i] {
			t.Fatalf("input mutated: %v", in)
		}
	}
}

// TestAverageMaskingProperty is the paper's central claim: with n >= 2f+1
// readings of which at most f are arbitrary and the rest lie inside a
// window, the FTA result lies inside that window.
func TestAverageMaskingProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 3 + r.Intn(6)        // 3..8
		faults := r.Intn(n/2 + 1) // f <= floor(n/2)
		if n < 2*faults+1 {
			faults = (n - 1) / 2
		}
		lo := -1000 + r.Float64()*500
		hi := lo + 100 + r.Float64()*500
		readings := make([]float64, 0, n)
		for i := 0; i < n-faults; i++ {
			readings = append(readings, lo+r.Float64()*(hi-lo))
		}
		for i := 0; i < faults; i++ {
			readings = append(readings, (r.Float64()-0.5)*1e12) // Byzantine
		}
		r.Shuffle(len(readings), func(i, j int) {
			readings[i], readings[j] = readings[j], readings[i]
		})
		got, err := Average(readings, faults)
		if err != nil {
			return false
		}
		return got >= lo-1e-9 && got <= hi+1e-9
	}
	for i := 0; i < 500; i++ {
		if !f(rng.Int63()) {
			t.Fatalf("masking property violated (iteration %d)", i)
		}
	}
}

// TestAverageWithinInputRange property: the FTA always lies within
// [min, max] of the kept readings, hence of all readings.
func TestAverageWithinInputRange(t *testing.T) {
	prop := func(raw []int16, fRaw uint8) bool {
		if len(raw) == 0 {
			return true
		}
		f := int(fRaw) % (len(raw)/2 + 1)
		if len(raw) < 2*f+1 {
			return true
		}
		readings := make([]float64, len(raw))
		for i, v := range raw {
			readings[i] = float64(v)
		}
		got, err := Average(readings, f)
		if err != nil {
			return false
		}
		s := append([]float64(nil), readings...)
		sort.Float64s(s)
		return got >= s[0]-1e-9 && got <= s[len(s)-1]+1e-9
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// TestAveragePermutationInvariant property: input order never matters.
func TestAveragePermutationInvariant(t *testing.T) {
	prop := func(raw []int16, seed int64) bool {
		if len(raw) < 3 {
			return true
		}
		f := 1
		readings := make([]float64, len(raw))
		for i, v := range raw {
			readings[i] = float64(v)
		}
		a, err := Average(readings, f)
		if err != nil {
			return false
		}
		r := rand.New(rand.NewSource(seed))
		r.Shuffle(len(readings), func(i, j int) {
			readings[i], readings[j] = readings[j], readings[i]
		})
		b, err := Average(readings, f)
		if err != nil {
			return false
		}
		return math.Abs(a-b) < 1e-9
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestU(t *testing.T) {
	tests := []struct {
		n, f int
		want float64
	}{
		{4, 1, 2}, // the paper's configuration
		{4, 0, 1},
		{7, 2, 3},
		{5, 1, 1.5},
		{10, 3, 4},
	}
	for _, tc := range tests {
		if got := U(tc.n, tc.f); math.Abs(got-tc.want) > 1e-12 {
			t.Errorf("U(%d,%d) = %v, want %v", tc.n, tc.f, got, tc.want)
		}
	}
	if !math.IsInf(U(3, 1), 1) {
		t.Error("U(3,1) should be +Inf (N <= 3f)")
	}
	if !math.IsInf(U(6, 2), 1) {
		t.Error("U(6,2) should be +Inf (N <= 3f)")
	}
}

func TestBoundPaperValues(t *testing.T) {
	// §III-B: E = 5068 ns, Γ = 1.25 µs → Π = 2(E+Γ) = 12.636 µs.
	got := Bound(4, 1, 5068*time.Nanosecond, 1250*time.Nanosecond)
	if got != 12636*time.Nanosecond {
		t.Fatalf("Bound = %v, want 12.636µs", got)
	}
	// §III-C: Π = 11.42 µs with E = 4460 ns.
	got = Bound(4, 1, 4460*time.Nanosecond, 1250*time.Nanosecond)
	if got != 11420*time.Nanosecond {
		t.Fatalf("Bound = %v, want 11.42µs", got)
	}
}

func TestBoundNonConverging(t *testing.T) {
	if got := Bound(3, 1, time.Microsecond, time.Microsecond); got != time.Duration(math.MaxInt64) {
		t.Fatalf("Bound for N<=3f = %v, want MaxInt64 sentinel", got)
	}
}

func fresh(domain int, off float64) Reading {
	return Reading{Domain: domain, OffsetNS: off, Fresh: true}
}

func TestValidityFlags(t *testing.T) {
	readings := []Reading{
		fresh(0, 10), fresh(1, -20), fresh(2, 5), fresh(3, -24000),
	}
	flags := ValidityFlags(readings, 1000)
	want := []bool{true, true, true, false}
	for i := range want {
		if flags[i] != want[i] {
			t.Fatalf("flags = %v, want %v", flags, want)
		}
	}
}

func TestValidityFlagsStale(t *testing.T) {
	readings := []Reading{
		fresh(0, 10), {Domain: 1, OffsetNS: 0, Fresh: false}, fresh(2, 12),
	}
	flags := ValidityFlags(readings, 100)
	if flags[1] {
		t.Fatal("stale reading flagged valid")
	}
	if !flags[0] || !flags[2] {
		t.Fatalf("fresh close readings flagged invalid: %v", flags)
	}
}

func TestValidityFlagsSingleFresh(t *testing.T) {
	readings := []Reading{fresh(0, 99)}
	flags := ValidityFlags(readings, 1)
	if !flags[0] {
		t.Fatal("lone fresh reading must be considered valid")
	}
}

func TestAggregateMonitorPolicyMasksOneByzantine(t *testing.T) {
	readings := []Reading{
		fresh(0, -24000), fresh(1, 15), fresh(2, -10), fresh(3, 20),
	}
	got, flags, err := Aggregate(readings, 1, 1000, FlagMonitor)
	if err != nil {
		t.Fatalf("aggregate: %v", err)
	}
	if flags[0] {
		t.Fatal("Byzantine offset not flagged")
	}
	if got < -10 || got > 20 {
		t.Fatalf("aggregate = %v, escaped the honest window [-10, 20]", got)
	}
}

func TestAggregateTwoByzantinePullResult(t *testing.T) {
	// Two colluding faulty GMs exceed f=1: the FTA result is pulled —
	// exactly the Fig. 3a failure mode.
	readings := []Reading{
		fresh(0, -24000), fresh(1, 10), fresh(2, -5), fresh(3, -24000),
	}
	got, _, err := Aggregate(readings, 1, 1000, FlagMonitor)
	if err != nil {
		t.Fatalf("aggregate: %v", err)
	}
	if got > -1000 {
		t.Fatalf("aggregate = %v, expected the colluding fault to pull the result", got)
	}
}

func TestAggregateStaleDegradesF(t *testing.T) {
	// A fail-silent GM leaves 3 fresh readings; FTA degrades to the median.
	readings := []Reading{
		{Domain: 0, Fresh: false}, fresh(1, 100), fresh(2, 10), fresh(3, -80),
	}
	got, _, err := Aggregate(readings, 1, 1e6, FlagMonitor)
	if err != nil {
		t.Fatalf("aggregate: %v", err)
	}
	if got != 10 {
		t.Fatalf("aggregate = %v, want median 10", got)
	}
}

func TestAggregateExcludePolicy(t *testing.T) {
	readings := []Reading{
		fresh(0, -24000), fresh(1, 15), fresh(2, -10), fresh(3, 20),
	}
	got, _, err := Aggregate(readings, 1, 1000, FlagExclude)
	if err != nil {
		t.Fatalf("aggregate: %v", err)
	}
	// With the outlier excluded the remaining three are all honest; result
	// is their median (f degraded to 1 over 3).
	if got != 15 {
		t.Fatalf("aggregate = %v, want 15", got)
	}
}

func TestAggregateExcludeFallsBackWhenStarved(t *testing.T) {
	// Everything disagrees with everything: exclusion would leave nothing,
	// so aggregation falls back to all fresh readings.
	readings := []Reading{
		fresh(0, -50000), fresh(1, 50000), fresh(2, 150000),
	}
	got, _, err := Aggregate(readings, 1, 10, FlagExclude)
	if err != nil {
		t.Fatalf("aggregate: %v", err)
	}
	if got != 50000 {
		t.Fatalf("aggregate = %v, want median 50000", got)
	}
}

func TestAggregateAllStale(t *testing.T) {
	readings := []Reading{{Domain: 0}, {Domain: 1}}
	if _, _, err := Aggregate(readings, 1, 100, FlagMonitor); !errors.Is(err, ErrInsufficientClocks) {
		t.Fatalf("err = %v, want ErrInsufficientClocks", err)
	}
}

func TestMedian(t *testing.T) {
	if m := medianWithout([]float64{1, 2, 2, 3}, 1); m != 2 {
		t.Fatalf("median odd = %v, want 2", m)
	}
	if m := medianWithout([]float64{1, 2, 2.5, 3, 4}, 2); m != 2.5 {
		t.Fatalf("median even = %v, want 2.5", m)
	}
}
