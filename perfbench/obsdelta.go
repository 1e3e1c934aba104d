package main

import (
	"runtime"
	"runtime/metrics"

	"gptpfta/internal/netsim"
	"gptpfta/internal/obs"
)

// counts sums every snapshot series by metric name (label sets folded).
type counts map[string]float64

func countsOf(snap []obs.Metric) counts {
	c := make(counts)
	for _, m := range snap {
		if m.Histogram == nil {
			c[m.Name] += m.Value
		}
	}
	return c
}

// sub returns c − base per name.
func (c counts) sub(base counts) counts {
	d := make(counts, len(c))
	for k, v := range c {
		d[k] = v - base[k]
	}
	return d
}

// seriesOf keys one metric's series by their label sets.
func seriesOf(snap []obs.Metric, name string) map[string]float64 {
	out := make(map[string]float64)
	for _, m := range snap {
		if m.Name == name {
			out[m.Key()] = m.Value
		}
	}
	return out
}

// host samples the Go runtime's own counters and the process-global
// frame pool's.
type host struct {
	mallocs, allocBytes, gcCycles uint64
	gcCPU, usedCPU                float64
	poolGets, poolNews            uint64
}

var hostSamples = []string{
	"/gc/heap/allocs:objects",
	"/gc/heap/allocs:bytes",
	"/gc/cycles/total:gc-cycles",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
	"/cpu/classes/idle:cpu-seconds",
}

func readHost() host {
	s := make([]metrics.Sample, len(hostSamples))
	for i, n := range hostSamples {
		s[i].Name = n
	}
	metrics.Read(s)
	gets, news, _ := netsim.PoolStats()
	return host{
		poolGets:   gets,
		poolNews:   news,
		mallocs:    s[0].Value.Uint64(),
		allocBytes: s[1].Value.Uint64(),
		gcCycles:   s[2].Value.Uint64(),
		gcCPU:      s[3].Value.Float64(),
		usedCPU:    s[4].Value.Float64() - s[5].Value.Float64(),
	}
}

// liveHeapMiB forces collections and reports the heap still in use. The
// second collection frees what sync.Pool victim caches kept through the
// first.
func liveHeapMiB() float64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}

// runtimeLayer reports the runtime rows over a window that processed
// events simulation events.
func runtimeLayer(m map[string]float64, before, after host, events float64) {
	m["runtime.allocs_per_event"] = ratio(float64(after.mallocs-before.mallocs), events)
	m["runtime.bytes_per_event"] = ratio(float64(after.allocBytes-before.allocBytes), events)
	m["runtime.gc_cycles"] = float64(after.gcCycles - before.gcCycles)
	m["runtime.gc_cpu_frac"] = ratio(after.gcCPU-before.gcCPU, after.usedCPU-before.usedCPU)
}

// poolHitRate is the share of frame-pool acquisitions between two samples
// that reused a pooled frame.
func poolHitRate(before, after host) float64 {
	gets := float64(after.poolGets - before.poolGets)
	return ratio(gets-float64(after.poolNews-before.poolNews), gets)
}

// ratio is a/b, 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
