// Package fta implements the fault-tolerant average (FTA) convergence
// function of Kopetz and Ochsenreiter ("Clock Synchronization in Distributed
// Real-Time Systems", IEEE ToC 1987) that the paper's extended ptp4l uses to
// aggregate the master offsets of M gPTP domains, together with the
// convergence-function precision bound Π(N, f, E, Γ) = u(N, f)·(E + Γ) used
// in §III-A3 of the paper.
package fta

import (
	"errors"
	"fmt"
	"math"
	"slices"
	"sort"
	"time"
)

// ErrInsufficientClocks is returned when fewer than 2f+1 readings are
// available: the FTA cannot mask f Byzantine faults below that count.
var ErrInsufficientClocks = errors.New("fta: fewer than 2f+1 clock readings")

// Average sorts the readings, discards the f smallest and f largest, and
// returns the arithmetic mean of the remainder. It does not modify the
// input slice. With at least 2f+1 readings of which at most f are arbitrary
// (Byzantine) and the rest lie within a window Π, the result is guaranteed
// to lie within that window — the masking property the paper relies on for
// Byzantine grandmaster tolerance.
func Average(readings []float64, f int) (float64, error) {
	if f < 0 {
		return 0, fmt.Errorf("fta: negative fault count %d", f)
	}
	if err := quorum(len(readings), f); err != nil {
		return 0, err
	}
	sorted := make([]float64, len(readings))
	copy(sorted, readings)
	sortFloats(sorted)
	return trimmedMean(sorted, f), nil
}

// quorum reports ErrInsufficientClocks unless n >= 2f+1.
func quorum(n, f int) error {
	if n < 2*f+1 {
		return fmt.Errorf("%w: n=%d f=%d", ErrInsufficientClocks, n, f)
	}
	return nil
}

// trimmedMean averages sorted[f : n-f]; the caller has checked the quorum.
func trimmedMean(sorted []float64, f int) float64 {
	kept := sorted[f : len(sorted)-f]
	var sum float64
	for _, v := range kept {
		sum += v
	}
	return sum / float64(len(kept))
}

// sortFloats sorts v ascending with NaNs first, the order of sort.Float64s.
// Up to 12 elements it runs the same insertion sort sort.Float64s runs at
// that size, so the result is identical element for element (signed zeros
// and NaN payloads included); larger inputs go to sort.Float64s.
func sortFloats(v []float64) {
	if len(v) > 12 {
		sort.Float64s(v)
		return
	}
	for i := 1; i < len(v); i++ {
		for j := i; j > 0 && floatLess(v[j], v[j-1]); j-- {
			v[j], v[j-1] = v[j-1], v[j]
		}
	}
}

// floatLess is sort.Float64s's order: NaN sorts before every other value.
func floatLess(x, y float64) bool { return x < y || (x != x && y == y) }

// U computes the amortisation factor u(N, f) = (N − 2f) / (N − 3f) of the
// FTA convergence function. For the paper's configuration N = 4, f = 1 it
// evaluates to 2, yielding the bound Π = 2(E + Γ). It returns +Inf when
// N ≤ 3f (the algorithm does not converge).
func U(n, f int) float64 {
	if n <= 3*f {
		return math.Inf(1)
	}
	return float64(n-2*f) / float64(n-3*f)
}

// Bound instantiates the convergence-function precision bound
// Π(N, f, E, Γ) = u(N, f)·(E + Γ), where E is the reading error (max minus
// min network latency between any two nodes) and Γ = 2·r_max·S is the drift
// offset for maximum drift rate r_max over resynchronisation interval S.
func Bound(n, f int, readingError, driftOffset time.Duration) time.Duration {
	u := U(n, f)
	if math.IsInf(u, 1) {
		return time.Duration(math.MaxInt64)
	}
	return time.Duration(u * float64(readingError+driftOffset))
}

// Reading is one domain's grandmaster offset sample as stored in FTSHMEM.
type Reading struct {
	// Domain is the gPTP domain number the offset was derived from.
	Domain int
	// OffsetNS is the grandmaster offset in nanoseconds (local minus GM).
	OffsetNS float64
	// At is the local PHC time the offset was computed at; stale readings
	// (no Sync received, fail-silent GM) are excluded from aggregation.
	At float64
	// Fresh reports whether the reading is recent enough to use.
	Fresh bool
}

// ValidityFlags computes, for each fresh reading, whether its offset lies
// within threshold of the median of the other fresh readings — the array of
// M booleans the paper keeps in FTSHMEM to expose which grandmaster clocks
// disagree with the rest. Stale readings are flagged false.
func ValidityFlags(readings []Reading, threshold float64) []bool {
	var a Aggregator
	return a.validityFlags(readings, threshold)
}

// medianWithout returns the median of sorted (ascending, NaNs first) with
// the element at index k left out. For an even remainder it sums the two
// middle values lower first, as a median over the sorted remainder would.
func medianWithout(sorted []float64, k int) float64 {
	n := len(sorted) - 1
	if n%2 == 1 {
		return skipAt(sorted, k, n/2)
	}
	return (skipAt(sorted, k, n/2-1) + skipAt(sorted, k, n/2)) / 2
}

// lowerBound returns the first index of sorted (ascending under floatLess)
// whose element is not less than x. It is slices.BinarySearch's result,
// without the generic call that costs ~30 ns per aggregation at M = 4.
func lowerBound(sorted []float64, x float64) int {
	lo, hi := 0, len(sorted)
	for lo < hi {
		m := int(uint(lo+hi) >> 1)
		if floatLess(sorted[m], x) {
			lo = m + 1
		} else {
			hi = m
		}
	}
	return lo
}

// skipAt is element j of sorted with index k removed.
func skipAt(sorted []float64, k, j int) float64 {
	if j >= k {
		j++
	}
	return sorted[j]
}

// FlagPolicy selects how validity flags influence aggregation.
type FlagPolicy int

const (
	// FlagMonitor computes the flags for monitoring only; the FTA runs
	// over all fresh readings (the masking property handles up to f
	// faults). This is the paper's configuration.
	FlagMonitor FlagPolicy = iota + 1
	// FlagExclude removes flagged-invalid readings before the FTA when
	// enough readings remain; an ablation studied in the benchmarks.
	FlagExclude
)

// AggregateInfo reports what one aggregation step actually did, for
// observability: how many readings the FTA averaged, how many extreme
// readings it discarded (2·f_effective), and whether FlagExclude starved
// the quorum and fell back to all fresh readings.
type AggregateInfo struct {
	Used      int  // readings averaged after filtering and discards
	Discarded int  // extreme readings trimmed by the FTA (2·f_eff)
	Starved   bool // FlagExclude left < 2f+1 readings and fell back
	// MaliciousDiscarded counts trimmed extremes that the validity flags
	// had also marked invalid — readings the FTA discarded *as malicious*
	// (a falsified or delay-attacked domain), as opposed to the benign
	// extremes trimming always removes. Under FlagExclude only the
	// starvation fallback can produce them (flagged readings are removed
	// before the FTA otherwise).
	MaliciousDiscarded int
}

// Aggregate runs the full FTSHMEM aggregation step: freshness filtering,
// validity flags, optional exclusion, and the FTA. It returns the
// aggregated master offset, the flags (indexed like readings), and an error
// if fewer than 2f+1 usable readings remain.
func Aggregate(readings []Reading, f int, threshold float64, policy FlagPolicy) (float64, []bool, error) {
	var a Aggregator
	avg, flags, _, err := a.Aggregate(readings, f, threshold, policy)
	return avg, flags, err
}

// Aggregator runs the aggregation step without allocating once warm: it
// owns the scratch the step needs (the flags, the sorted fresh offsets the
// flags' leave-one-out medians read, the usable readings with their
// invalid marks, and the trim order) and reuses it across calls.
// ValidityFlags and Aggregate run this same code over a fresh Aggregator.
// The zero value is ready to use; an Aggregator is not safe for concurrent
// use.
type Aggregator struct {
	flags   []bool
	others  []float64 // the fresh offsets, sorted, for every flag's median
	usable  []float64
	invalid []bool // parallel to usable
	idx     []int
}

// Aggregate is the package-level Aggregate plus an AggregateInfo describing
// the step, run over the aggregator's scratch. The returned flags alias that
// scratch: they are valid until the next call.
func (a *Aggregator) Aggregate(readings []Reading, f int, threshold float64, policy FlagPolicy) (float64, []bool, AggregateInfo, error) {
	flags := a.validityFlags(readings, threshold)
	usable, invalid := a.usable[:0], a.invalid[:0]
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
		// Exclusion starved the quorum; fall back to all fresh readings
		// so that a burst of disagreement cannot halt synchronisation.
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
	a.usable, a.invalid = usable, invalid
	// Degrade f when too few domains remain (e.g. a fail-silent GM during
	// reboot): with n fresh readings the largest maskable fault count is
	// floor((n-1)/2).
	eff := f
	if maxF := (len(usable) - 1) / 2; eff > maxF {
		eff = maxF
	}
	if eff < 0 {
		eff = 0
	}
	if err := quorum(len(usable), eff); err != nil {
		return 0, flags, AggregateInfo{Starved: starved}, err
	}
	info := AggregateInfo{Used: len(usable) - 2*eff, Discarded: 2 * eff, Starved: starved,
		MaliciousDiscarded: a.maliciousDiscarded(eff)}
	sortFloats(usable) // after maliciousDiscarded, which needs input order
	return trimmedMean(usable, eff), flags, info, nil
}

// validityFlags is ValidityFlags into the aggregator's scratch.
func (a *Aggregator) validityFlags(readings []Reading, threshold float64) []bool {
	n := len(readings)
	if cap(a.flags) < n {
		a.flags = make([]bool, n)
	}
	flags := a.flags[:n]
	clear(flags)
	sorted := a.others[:0]
	for _, r := range readings {
		if r.Fresh {
			sorted = append(sorted, r.OffsetNS)
		}
	}
	a.others = sorted
	sortFloats(sorted)
	for i, r := range readings {
		if !r.Fresh {
			continue
		}
		if len(sorted) == 1 {
			flags[i] = true // nothing to compare against
			continue
		}
		// The other fresh offsets are sorted minus one element equal to
		// r.OffsetNS under floatLess. Which equal element goes does not
		// change the flag: equal elements differ only in the sign of zero
		// or the NaN payload, |x − med| is the same for a +0 or −0 median,
		// and a NaN reading's flag is false whatever the median.
		med := medianWithout(sorted, lowerBound(sorted, r.OffsetNS))
		flags[i] = math.Abs(r.OffsetNS-med) <= threshold
	}
	return flags
}

// maliciousDiscarded counts the eff smallest and eff largest of the usable
// readings that were also flagged invalid. Which of several equal readings
// is trimmed decides the count, so the trim order is a stable sort by `<`
// over input order. slices.SortStableFunc runs the algorithm
// sort.SliceStable runs (insertion-sorted blocks of 20, then symMerge) and
// only asks whether the comparison is negative, so the comparator is
// negative exactly when `<` holds; cmp.Compare would order NaN differently.
func (a *Aggregator) maliciousDiscarded(eff int) int {
	usable, invalid := a.usable, a.invalid
	if eff <= 0 || len(usable) < 2*eff {
		return 0
	}
	idx := a.idx[:0]
	for i := range usable {
		idx = append(idx, i)
	}
	a.idx = idx
	slices.SortStableFunc(idx, func(x, y int) int {
		switch {
		case usable[x] < usable[y]:
			return -1
		case usable[x] > usable[y]:
			return 1
		}
		return 0
	})
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
