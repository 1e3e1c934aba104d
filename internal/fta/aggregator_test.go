package fta

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"
)

// The sort-based aggregation below is the implementation Aggregator
// replaced, kept verbatim as the differential reference: it allocates
// freely and sorts with sort.Float64s and sort.SliceStable, so any
// divergence in the insertion-sort fast paths shows up as a mismatch.

func refValidityFlags(readings []Reading, threshold float64) []bool {
	flags := make([]bool, len(readings))
	for i, r := range readings {
		if !r.Fresh {
			continue
		}
		others := make([]float64, 0, len(readings)-1)
		for j, o := range readings {
			if j == i || !o.Fresh {
				continue
			}
			others = append(others, o.OffsetNS)
		}
		if len(others) == 0 {
			flags[i] = true
			continue
		}
		flags[i] = math.Abs(r.OffsetNS-refMedian(others)) <= threshold
	}
	return flags
}

func refMedian(v []float64) float64 {
	s := make([]float64, len(v))
	copy(s, v)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func refAverage(readings []float64, f int) (float64, error) {
	if f < 0 {
		return 0, fmt.Errorf("fta: negative fault count %d", f)
	}
	n := len(readings)
	if n < 2*f+1 {
		return 0, fmt.Errorf("%w: n=%d f=%d", ErrInsufficientClocks, n, f)
	}
	sorted := make([]float64, n)
	copy(sorted, readings)
	sort.Float64s(sorted)
	kept := sorted[f : n-f]
	var sum float64
	for _, v := range kept {
		sum += v
	}
	return sum / float64(len(kept)), nil
}

func refAggregate(readings []Reading, f int, threshold float64, policy FlagPolicy) (float64, []bool, AggregateInfo, error) {
	flags := refValidityFlags(readings, threshold)
	usable := make([]float64, 0, len(readings))
	invalid := make([]bool, 0, len(readings))
	for i, r := range readings {
		if !r.Fresh {
			continue
		}
		if policy == FlagExclude && !flags[i] {
			continue
		}
		usable = append(usable, r.OffsetNS)
		invalid = append(invalid, !flags[i])
	}
	var starved bool
	if policy == FlagExclude && len(usable) < 2*f+1 {
		starved = true
		usable = usable[:0]
		invalid = invalid[:0]
		for i, r := range readings {
			if r.Fresh {
				usable = append(usable, r.OffsetNS)
				invalid = append(invalid, !flags[i])
			}
		}
	}
	eff := f
	if maxF := (len(usable) - 1) / 2; eff > maxF {
		eff = maxF
	}
	if eff < 0 {
		eff = 0
	}
	info := AggregateInfo{Used: len(usable) - 2*eff, Discarded: 2 * eff, Starved: starved,
		MaliciousDiscarded: refMaliciousDiscarded(usable, invalid, eff)}
	avg, err := refAverage(usable, eff)
	if err != nil {
		return 0, flags, AggregateInfo{Starved: starved}, err
	}
	return avg, flags, info, nil
}

func refMaliciousDiscarded(usable []float64, invalid []bool, eff int) int {
	if eff <= 0 || len(usable) < 2*eff {
		return 0
	}
	idx := make([]int, len(usable))
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool { return usable[idx[a]] < usable[idx[b]] })
	n := 0
	for k := 0; k < eff; k++ {
		if invalid[idx[k]] {
			n++
		}
		if invalid[idx[len(idx)-1-k]] {
			n++
		}
	}
	return n
}

// randomReadings draws m readings from a small value pool so that ties are
// common, with stale readings, NaNs, signed zeros and far outliers mixed in.
func randomReadings(r *rand.Rand, m int) []Reading {
	pool := []float64{-300, -120, -50, 0, 0, 40, 40, 120, 900, -24000, 24000, math.Copysign(0, -1)}
	rs := make([]Reading, m)
	for i := range rs {
		var v float64
		switch r.Intn(10) {
		case 0:
			v = math.NaN()
		case 1, 2:
			v = r.NormFloat64() * 200
		default:
			v = pool[r.Intn(len(pool))]
		}
		rs[i] = Reading{Domain: i, OffsetNS: v, At: float64(i), Fresh: r.Intn(5) != 0}
	}
	return rs
}

func sameBits(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

func TestAggregatorMatchesSortReference(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	var agg Aggregator // reused across every case, as a ptp4l stack does
	sizes := []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 13, 21, 24, 30, 84}
	thresholds := []float64{0, 60, 150, 10000}
	// Coverage of the paths the comparison is meant to exercise.
	var starved, malicious, withNaN, failed int
	for iter := 0; iter < 4000; iter++ {
		m := sizes[r.Intn(len(sizes))]
		if iter < 3000 {
			m = 1 + r.Intn(9)
		}
		readings := randomReadings(r, m)
		f := r.Intn(4) - 1 // -1..2
		threshold := thresholds[r.Intn(len(thresholds))]
		policy := FlagMonitor
		if r.Intn(2) == 0 {
			policy = FlagExclude
		}
		in := append([]Reading(nil), readings...)

		wantAvg, wantFlags, wantInfo, wantErr := refAggregate(readings, f, threshold, policy)
		gotAvg, gotFlags, gotInfo, gotErr := agg.Aggregate(readings, f, threshold, policy)
		if wantInfo.Starved {
			starved++
		}
		if wantInfo.MaliciousDiscarded > 0 {
			malicious++
		}
		if wantErr != nil {
			failed++
		}
		for _, rd := range readings {
			if math.IsNaN(rd.OffsetNS) {
				withNaN++
				break
			}
		}

		where := fmt.Sprintf("case %d (m=%d f=%d thr=%v policy=%d readings=%v)", iter, m, f, threshold, policy, readings)
		if (wantErr == nil) != (gotErr == nil) || (wantErr != nil && wantErr.Error() != gotErr.Error()) {
			t.Fatalf("%s: err = %v, reference %v", where, gotErr, wantErr)
		}
		if !sameBits(gotAvg, wantAvg) {
			t.Fatalf("%s: avg = %v (%#x), reference %v (%#x)", where, gotAvg, math.Float64bits(gotAvg), wantAvg, math.Float64bits(wantAvg))
		}
		if gotInfo != wantInfo {
			t.Fatalf("%s: info = %+v, reference %+v", where, gotInfo, wantInfo)
		}
		if len(gotFlags) != len(wantFlags) {
			t.Fatalf("%s: %d flags, reference %d", where, len(gotFlags), len(wantFlags))
		}
		for i := range gotFlags {
			if gotFlags[i] != wantFlags[i] {
				t.Fatalf("%s: flags = %v, reference %v", where, gotFlags, wantFlags)
			}
		}
		if vf := ValidityFlags(readings, threshold); fmt.Sprint(vf) != fmt.Sprint(wantFlags) {
			t.Fatalf("%s: ValidityFlags = %v, reference %v", where, vf, wantFlags)
		}
		for i := range readings {
			if readings[i] != in[i] && !math.IsNaN(in[i].OffsetNS) {
				t.Fatalf("%s: input mutated", where)
			}
		}
	}
	if starved == 0 || malicious == 0 || withNaN == 0 || failed == 0 {
		t.Fatalf("coverage: starved %d, malicious discards %d, NaN %d, errors %d; want all > 0",
			starved, malicious, withNaN, failed)
	}
}

// TestAggregatorZeroAllocs is the FTA half of the data-path allocation
// gate: a warm Aggregator must not allocate, at the paper's M = 4 and at
// the fabric site tier's M = 84, f = 1, past the insertion-sort sizes of
// both the float sort (12) and the stable trim sort (20).
func TestAggregatorZeroAllocs(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	wide := make([]Reading, 84)
	for i := range wide {
		wide[i] = fresh(i, r.NormFloat64()*2000)
	}
	wide[7].OffsetNS = -24000
	for _, readings := range [][]Reading{
		{fresh(0, 120), fresh(1, -80), fresh(2, 40), fresh(3, -24000)},
		wide,
	} {
		var agg Aggregator
		for _, policy := range []FlagPolicy{FlagMonitor, FlagExclude} {
			agg.Aggregate(readings, 1, 10000, policy) // warm the scratch
			if allocs := testing.AllocsPerRun(100, func() {
				if _, _, _, err := agg.Aggregate(readings, 1, 10000, policy); err != nil {
					t.Fatal(err)
				}
			}); allocs != 0 {
				t.Fatalf("M=%d policy %d: Aggregate allocates %.1f per call, want 0",
					len(readings), policy, allocs)
			}
		}
	}
}
