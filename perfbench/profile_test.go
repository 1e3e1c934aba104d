package main

import (
	"bytes"
	"compress/gzip"
	"math"
	"testing"
	"time"
)

// pbuf hand-encodes protobuf messages for the synthetic profile.
type pbuf struct{ b []byte }

func (p *pbuf) varint(v uint64) {
	for v >= 0x80 {
		p.b = append(p.b, byte(v)|0x80)
		v >>= 7
	}
	p.b = append(p.b, byte(v))
}

func (p *pbuf) num(field int, v uint64) { p.varint(uint64(field) << 3); p.varint(v) }

func (p *pbuf) bytes(field int, b []byte) {
	p.varint(uint64(field)<<3 | 2)
	p.varint(uint64(len(b)))
	p.b = append(p.b, b...)
}

func (p *pbuf) packed(field int, vs ...uint64) {
	var q pbuf
	for _, v := range vs {
		q.varint(v)
	}
	p.bytes(field, q.b)
}

// syntheticProfile builds a gzipped profile.proto with the given stacks.
// Each location is one frame except where a stack entry lists several
// functions, which become one location with inlined lines (innermost
// first, as runtime/pprof writes them).
func syntheticProfile(stacks [][][]string, weights []int64) []byte {
	var prof pbuf
	strs := map[string]uint64{"": 0}
	order := []string{""}
	str := func(s string) uint64 {
		if i, ok := strs[s]; ok {
			return i
		}
		strs[s] = uint64(len(order))
		order = append(order, s)
		return strs[s]
	}
	fnID := map[string]uint64{}
	var locID uint64
	for si, stack := range stacks {
		var locs []uint64
		for _, frame := range stack {
			locID++
			var loc pbuf
			loc.num(1, locID)
			for _, fn := range frame {
				if fnID[fn] == 0 {
					fnID[fn] = uint64(len(fnID) + 1)
					var f pbuf
					f.num(1, fnID[fn])
					f.num(2, str(fn))
					prof.bytes(5, f.b)
				}
				var line pbuf
				line.num(1, fnID[fn])
				loc.bytes(4, line.b)
			}
			prof.bytes(4, loc.b)
			locs = append(locs, locID)
		}
		var s pbuf
		if si%2 == 0 {
			s.packed(1, locs...)
		} else {
			for _, l := range locs {
				s.num(1, l) // unpacked repeated field
			}
		}
		s.packed(2, 1, uint64(weights[si]))
		prof.bytes(2, s.b)
	}
	for _, s := range order {
		prof.bytes(6, []byte(s))
	}
	var buf bytes.Buffer
	zw := gzip.NewWriter(&buf)
	zw.Write(prof.b)
	zw.Close()
	return buf.Bytes()
}

func TestSyntheticProfileAttribution(t *testing.T) {
	stacks := [][][]string{
		{{"runtime.mallocgc"}, {"gptpfta/internal/gptp.(*Relay).handleSync"},
			{"gptpfta/internal/sim.(*Scheduler).RunUntil"}, {"main.main"}},
		{{"fmt.Sprintf", "gptpfta/internal/core.(*System).WanLinkName"},
			{"gptpfta/internal/wan.(*Coordinator).tick"}},
		{{"runtime.gcBgMarkWorker"}},
		{{"encoding/json.Marshal"}, {"main.main"}},
		{{"gptpfta/internal/newmodule.F"}},
	}
	samples, err := ParseProfile(syntheticProfile(stacks, []int64{30, 20, 40, 5, 5}))
	if err != nil {
		t.Fatal(err)
	}
	if len(samples) != 5 || len(samples[1].Stack) != 3 || samples[1].Stack[0] != "fmt.Sprintf" {
		t.Fatalf("decoded %+v", samples)
	}
	shares, err := LayerShares(samples)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]float64{"gptp": 0.3, "core": 0.2, "runtime": 0.4, "bench": 0.05, "other": 0.05}
	var total float64
	for l, v := range shares {
		total += v
		if math.Abs(v-want[l]) > 1e-12 {
			t.Errorf("%s share = %v; want %v", l, v, want[l])
		}
	}
	if math.Abs(total-1) > 1e-12 {
		t.Fatalf("shares sum to %v", total)
	}
}

func TestStackWithoutRepoFrameIsRuntime(t *testing.T) {
	if got := LayerOf([]string{"runtime.futex", "runtime.mcall"}); got != "runtime" {
		t.Fatalf("got %s", got)
	}
	if got := LayerOf(nil); got != "runtime" {
		t.Fatalf("empty stack: got %s", got)
	}
}

func TestEmptyProfileIsAnError(t *testing.T) {
	if _, err := LayerShares(nil); err == nil {
		t.Fatal("want an error for a profile without samples")
	}
}

// TestParseRealProfile decodes what runtime/pprof writes.
func TestParseRealProfile(t *testing.T) {
	prof, err := profile(func() error {
		x := 1.0
		for end := time.Now().Add(300 * time.Millisecond); time.Now().Before(end); {
			x = math.Sqrt(x + 1)
		}
		_ = x
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	samples, err := ParseProfile(prof)
	if err != nil {
		t.Fatal(err)
	}
	if len(samples) == 0 {
		t.Skip("the profiler took no samples")
	}
	if shares, err := LayerShares(samples); err != nil || shares["bench"] == 0 {
		t.Errorf("the spinning test function should count as bench: %v, %v", shares, err)
	}
	found := false
	for _, s := range samples {
		for _, fn := range s.Stack {
			if fn == benchPrefix+"TestParseRealProfile.func1" {
				found = true
			}
		}
	}
	if !found {
		t.Fatalf("no sample names the spinning function; first stack %v", samples[0].Stack)
	}
}
