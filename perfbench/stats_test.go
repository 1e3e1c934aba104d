package main

import "testing"

func seq(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(n - i) // unsorted on purpose
	}
	return xs
}

func TestPercentileNeedsTenBeyond(t *testing.T) {
	if _, err := Percentile(seq(99), 0.9); err == nil {
		t.Fatal("p90 of 99 samples leaves 9 beyond it; want an error")
	}
	v, err := Percentile(seq(100), 0.9)
	if err != nil || v != 90 {
		t.Fatalf("p90 of 1..100 = %v, %v; want 90", v, err)
	}
	if _, err := Percentile(seq(19), 0.5); err == nil {
		t.Fatal("median of 19 samples leaves 9 beyond it; want an error")
	}
	if v, err := Percentile(seq(20), 0.5); err != nil || v != 10 {
		t.Fatalf("median of 1..20 = %v, %v; want 10", v, err)
	}
}

func TestSummarizePicksHighestAllowedTail(t *testing.T) {
	tm, err := Summarize(seq(1000))
	if err != nil {
		t.Fatal(err)
	}
	if tm.N != 1000 || tm.Median != 500 || tm.TailP != 99 || tm.Tail != 990 {
		t.Fatalf("got %+v; want n=1000 median=500 p99=990", tm)
	}
	tm, err = Summarize(seq(25))
	if err != nil {
		t.Fatal(err)
	}
	if tm.TailP != 0 {
		t.Fatalf("25 samples allow no tail above the median; got p%v", tm.TailP)
	}
}
