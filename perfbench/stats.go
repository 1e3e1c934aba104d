package main

import (
	"fmt"
	"math"
	"sort"
)

// minBeyond is the number of samples that must lie above a reported
// percentile. A tail with fewer samples says more about one sample than
// about the distribution, so asking for it is an error.
const minBeyond = 10

// Percentile returns the nearest-rank p-quantile (0 < p < 1) of xs. It
// fails when fewer than minBeyond samples lie above the rank.
func Percentile(xs []float64, p float64) (float64, error) {
	n := len(xs)
	rank := int(math.Ceil(p * float64(n)))
	if rank < 1 {
		rank = 1
	}
	if n-rank < minBeyond {
		return 0, fmt.Errorf("p%g needs %d samples beyond it; %d samples leave %d",
			100*p, minBeyond, n, n-rank)
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s[rank-1], nil
}

// Timing is a sample summary: the median plus the highest percentile of a
// fixed ladder that keeps minBeyond samples above it.
type Timing struct {
	N      int     `json:"n"`
	Median float64 `json:"median"`
	TailP  float64 `json:"tail_p,omitempty"`
	Tail   float64 `json:"tail,omitempty"`
}

var tailLadder = []float64{0.999, 0.99, 0.95, 0.9, 0.75}

// Summarize describes xs; a sample too small for a median is an error.
func Summarize(xs []float64) (Timing, error) {
	med, err := Percentile(xs, 0.5)
	if err != nil {
		return Timing{}, err
	}
	t := Timing{N: len(xs), Median: med}
	for _, p := range tailLadder {
		if v, err := Percentile(xs, p); err == nil {
			t.TailP, t.Tail = 100*p, v
			break
		}
	}
	return t, nil
}

// median of a small sample (set-up repetitions): no tail rule applies.
func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}
