package main

import (
	"fmt"
	"hash/fnv"
	"math"
	"runtime"
	"time"

	"gptpfta/internal/core"
	"gptpfta/internal/sim"
)

// minChunks keeps every chunk-latency p90 above the minBeyond rule with a
// margin.
const minChunks = 110

// simWorkload drives one long-lived core.System: set up (build, start,
// convergence prefix), then fixed-length RunFor chunks.
type simWorkload struct {
	config func(seed int64) core.Config
	// prefix is the convergence run that ends set-up.
	prefix time.Duration
	// chunk is the simulated length of every timed RunFor call.
	chunk time.Duration
	// digestChunks is the fixed span, in chunks after set-up, over which
	// sim_digest and sim.events_per_sim_s are counted, so both are
	// independent of the run length.
	digestChunks int
	// rateChunks consecutive chunks (a whole number of the workload's
	// periodic cycles) form one sample of the simulation rate.
	rateChunks int
	// setups is how many times set-up is repeated for the setup_s median.
	setups int
}

// Chunk lengths are chosen so that the chunk latency percentiles sit inside
// a cluster of like chunks: every testbed chunk spans whole protocol cycles,
// and a third of a second splits the fabric's 1 s cycle (pdelay and WAN
// drift every second, WAN ticks every half second) into three kinds of
// chunk, so neither p50 nor p90 falls on a boundary between kinds.
var testbed = simWorkload{
	config:       core.NewConfig,
	prefix:       time.Minute,
	chunk:        100 * time.Second,
	digestChunks: 6,
	rateChunks:   1,
	setups:       21,
}

var fabric = simWorkload{
	config:       fabricConfig,
	prefix:       20 * time.Second,
	chunk:        time.Second / 3,
	digestChunks: 6,
	rateChunks:   3,
	setups:       3,
}

// fabricConfig is the 1008-element multi-site fabric (84 sites × 4
// switches × 2 VMs) on two shards with the WAN tier and its drift on.
func fabricConfig(seed int64) core.Config {
	cfg := core.ScaleConfig(seed, 84, 4, 2, 2)
	cfg.WanSync.Enabled = true
	cfg.WanSync.F = 1
	cfg.WanSync.Drift.Enabled = true
	return cfg
}

// setupTimes are one set-up's phases in seconds.
type setupTimes struct{ build, start, converge float64 }

func (t setupTimes) total() float64 { return t.build + t.start + t.converge }

// setUp builds, starts and converges one system, recording a span per call.
func (w simWorkload) setUp(seed int64, rec *Recorder) (*core.System, setupTimes, error) {
	var t setupTimes
	t0 := time.Now()
	sys, err := core.NewSystem(w.config(seed))
	if err != nil {
		return nil, t, fmt.Errorf("build: %w", err)
	}
	t1 := time.Now()
	if err := sys.Start(); err != nil {
		sys.Close()
		return nil, t, fmt.Errorf("start: %w", err)
	}
	t2 := time.Now()
	if err := sys.RunFor(w.prefix); err != nil {
		sys.Close()
		return nil, t, fmt.Errorf("converge: %w", err)
	}
	t3 := time.Now()
	root := rec.Add(Span{Name: "setup", Start: t0, End: t3, Parent: -1})
	rec.Add(Span{Name: "core.NewSystem", Start: t0, End: t1, Parent: root})
	rec.Add(Span{Name: "core.Start", Start: t1, End: t2, Parent: root})
	rec.Add(Span{Name: "core.RunFor(prefix)", Start: t2, End: t3, Parent: root})
	t.build, t.start, t.converge = t1.Sub(t0).Seconds(), t2.Sub(t1).Seconds(), t3.Sub(t2).Seconds()
	return sys, t, nil
}

// state is everything a window's per-layer figures are deltas of.
type state struct {
	events uint64
	counts counts
	shards map[string]float64
	fabric sim.FabricStats
	host   host
}

func capture(sys *core.System) state {
	snap := sys.Metrics().Snapshot()
	st := state{
		events: sys.ProcessedEvents(),
		counts: countsOf(snap),
		shards: seriesOf(snap, "pdes_shard_events"),
		host:   readHost(),
	}
	if f := sys.Fabric(); f != nil {
		st.fabric = f.Stats()
	}
	return st
}

// digest fingerprints the simulated work between two states from the
// event count, frames sent and FTA aggregations.
func digest(a, b state) string {
	h := fnv.New64a()
	fmt.Fprintf(h, "%d/%.0f/%.0f", b.events-a.events,
		b.counts["netsim_frames_sent"]-a.counts["netsim_frames_sent"],
		b.counts["ptp4l_fta_aggregations"]-a.counts["ptp4l_fta_aggregations"])
	return fmt.Sprintf("%016x", h.Sum64())
}

// digestSpan runs the digest span on a freshly set-up system and returns
// its sim_digest.
func (w simWorkload) digestSpan(sys *core.System) (string, error) {
	a := capture(sys)
	for i := 0; i < w.digestChunks; i++ {
		if err := sys.RunFor(w.chunk); err != nil {
			return "", fmt.Errorf("digest span: %w", err)
		}
	}
	return digest(a, capture(sys)), nil
}

// chunks runs fixed-length RunFor calls until at least n have run and
// budget wall time has passed. It returns each call's wall time in
// seconds; at, when set, runs after chunk atChunk outside the timing.
func (w simWorkload) chunks(sys *core.System, n int, budget time.Duration, rec *Recorder,
	atChunk int, at func()) ([]float64, error) {
	var durs []float64
	var spent time.Duration
	parent := -1
	if rec != nil {
		parent = rec.Add(Span{Name: "window", Start: time.Now(), Parent: -1})
	}
	for len(durs) < n || spent < budget {
		t0 := time.Now()
		if err := sys.RunFor(w.chunk); err != nil {
			return nil, fmt.Errorf("chunk %d: %w", len(durs), err)
		}
		t1 := time.Now()
		rec.Add(Span{Name: "core.RunFor", Start: t0, End: t1, Parent: parent})
		spent += t1.Sub(t0)
		durs = append(durs, t1.Sub(t0).Seconds())
		if at != nil && len(durs) == atChunk {
			at()
		}
	}
	if rec != nil {
		rec.spans[parent].End = time.Now()
	}
	return durs, nil
}

// rate is the median over groups of rateChunks consecutive chunks of
// simulated seconds per host second.
func (w simWorkload) rate(durs []float64) (float64, error) {
	var rates []float64
	for i := 0; i+w.rateChunks <= len(durs); i += w.rateChunks {
		rates = append(rates, float64(w.rateChunks)*w.chunk.Seconds()/sum(durs[i:i+w.rateChunks]))
	}
	return Percentile(rates, 0.5)
}

func sum(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s
}

// run executes the workload: repeated set-up, then the timed window (and,
// traced, an untraced reference window followed by the traced one).
func (w simWorkload) run(o options, out *outcome) error {
	var sys *core.System
	defer func() {
		if sys != nil {
			sys.Close()
		}
	}()
	var times []setupTimes
	var prefixDigests []string
	// The first set-up repetition also runs the digest span, so sim_digest
	// is computed twice in every run and compared below.
	var firstDigest string
	for i := 0; i < w.setups; i++ {
		if sys != nil {
			sys.Close()
			sys = nil
		}
		runtime.GC()
		s, t, err := w.setUp(o.seed, o.rec)
		if err != nil {
			return err
		}
		sys = s
		times = append(times, t)
		prefixDigests = append(prefixDigests, digest(state{}, capture(sys)))
		if i == 0 && w.setups > 1 {
			if firstDigest, err = w.digestSpan(sys); err != nil {
				return err
			}
		}
	}
	for _, d := range prefixDigests[1:] {
		out.check(d == prefixDigests[0], "set-up repetitions diverged: prefix digests %v", prefixDigests)
	}
	pick := func(f func(setupTimes) float64) float64 {
		xs := make([]float64, len(times))
		for i, t := range times {
			xs[i] = f(t)
		}
		return median(xs)
	}
	out.metrics["setup_s"] = pick(setupTimes.total)
	out.detail["setup_s_runs"] = len(times)
	out.detail["prefix_digest"] = prefixDigests[0]

	base := capture(sys)
	// The digest span also fixes where the heap is measured: the system's
	// own records grow with simulated time, which a timed window does not
	// fix.
	var digestState state
	var heap float64
	takeDigest := func() {
		digestState = capture(sys)
		heap = liveHeapMiB()
	}

	budget := time.Duration(o.seconds * float64(time.Second))
	var window []float64
	var traced struct {
		before, after state
		ref           []float64
	}
	var err error
	if o.rec == nil {
		window, err = w.chunks(sys, max(minChunks, w.digestChunks), budget, nil, w.digestChunks, takeDigest)
	} else {
		// Untraced reference first, for bench.trace_overhead_frac.
		traced.ref, err = w.chunks(sys, w.digestChunks, budget/3, nil, w.digestChunks, takeDigest)
		if err == nil {
			traced.before = capture(sys)
			var prof []byte
			prof, err = profile(func() error {
				var e error
				window, e = w.chunks(sys, minChunks, budget, o.rec, 0, nil)
				return e
			})
			traced.after = capture(sys)
			if err == nil {
				err = out.cpuShares(prof)
			}
		}
	}
	if err != nil {
		return err
	}

	// End-of-run output checks.
	out.check(sys.AllInFTOperation(), "not every stack is in fault-tolerant operation")
	prec, okP := sys.TruePrecision()
	bound, okB := sys.PrecisionBound()
	out.check(okP && okB && prec <= float64(bound), "precision %.0f ns exceeds bound %v", prec, bound)
	out.detail["true_precision_ns"] = prec
	out.detail["precision_bound_ns"] = float64(bound)

	simDigest := digest(base, digestState)
	out.detail["sim_digest"] = simDigest
	out.check(firstDigest == "" || firstDigest == simDigest,
		"sim_digest differs between set-up repetitions: %s, then %s", firstDigest, simDigest)
	digestSimS := float64(w.digestChunks) * w.chunk.Seconds()
	eventsPerSimS := float64(digestState.events-base.events) / digestSimS
	out.detail["events_per_sim_s"] = eventsPerSimS

	wall := sum(window)
	simS := float64(len(window)) * w.chunk.Seconds()
	out.attempted = len(window)
	tm, err := Summarize(window)
	if err != nil {
		return err
	}
	p50 := tm.Median
	p90, err := Percentile(window, 0.9)
	if err != nil {
		return err
	}
	out.detail["chunk_s"] = tm
	out.detail["chunk_sim_s"] = w.chunk.Seconds()
	rate, err := w.rate(window)
	if err != nil {
		return err
	}
	out.metrics["sim_s_per_wall_s"] = rate
	out.metrics["job_latency_p50_s"] = p50
	out.metrics["job_latency_p90_s"] = p90
	out.metrics["heap_live_mb"] = heap

	if o.rec == nil {
		return nil
	}
	m := out.metrics
	m["core.build_s"] = pick(func(t setupTimes) float64 { return t.build })
	m["core.start_s"] = pick(func(t setupTimes) float64 { return t.start })
	m["core.converge_s"] = pick(func(t setupTimes) float64 { return t.converge })
	m["core.runfor_ms_p50"] = 1e3 * p50
	m["core.runfor_ms_p90"] = 1e3 * p90
	m["sim.events_per_sim_s"] = eventsPerSimS
	refCost := sum(traced.ref) / (float64(len(traced.ref)) * w.chunk.Seconds())
	m["bench.trace_overhead_frac"] = (wall/simS)/refCost - 1
	simLayers(m, traced.before, traced.after, simS, wall)
	return nil
}

// simLayers fills the per-layer rows of a window of simS simulated and
// wall host seconds between states a and b.
func simLayers(m map[string]float64, a, b state, simS, wall float64) {
	d := b.counts.sub(a.counts)
	events := float64(b.events - a.events)
	m["sim.ns_per_event"] = ratio(wall*1e9, events)

	fa, fb := a.fabric, b.fabric
	windows := float64(fb.Windows - fa.Windows)
	m["sim.windows_per_sim_s"] = windows / simS
	m["sim.events_per_window"] = ratio(events, windows)
	m["sim.serial_window_frac"] = ratio(float64(fb.SerialWindows-fa.SerialWindows), windows)
	m["sim.flush_skipped_frac"] = ratio(float64(fb.FlushesSkipped-fa.FlushesSkipped), windows)
	m["sim.barrier_wait_frac"] = float64(fb.BarrierWaitNS-fa.BarrierWaitNS) / (wall * 1e9)
	m["sim.mailbox_frames_per_sim_s"] = float64(fb.Committed-fa.Committed) / simS
	m["sim.control_rounds"] = float64(fb.ControlRounds - fa.ControlRounds)
	m["sim.lookahead_rescans"] = float64(fb.LookaheadRescans - fa.LookaheadRescans)
	var maxShard, total float64
	for k, v := range b.shards {
		dv := v - a.shards[k]
		total += dv
		maxShard = math.Max(maxShard, dv)
	}
	if len(b.shards) > 0 {
		m["sim.shard_event_imbalance"] = ratio(maxShard, total/float64(len(b.shards)))
	}

	m["netsim.frames_sent_per_sim_s"] = d["netsim_frames_sent"] / simS
	m["netsim.frames_forwarded_per_sim_s"] = d["netsim_frames_forwarded"] / simS
	m["netsim.frames_lost"] = d["netsim_frames_lost"]
	m["netsim.pool_hit_rate"] = poolHitRate(a.host, b.host)
	m["ptp4l.fta_aggregations_per_sim_s"] = d["ptp4l_fta_aggregations"] / simS
	m["ptp4l.servo_steps"] = d["ptp4l_servo_steps"]
	m["ptp4l.holdover_entered"] = d["ptp4l_holdover_entered"]
	m["fta.discarded_per_aggregation"] = ratio(d["ptp4l_fta_discarded"], d["ptp4l_fta_aggregations"])
	m["fta.starved"] = d["ptp4l_fta_starved"]
	m["hypervisor.monitor_detections"] = d["hypervisor_monitor_detections"]
	m["hypervisor.takeovers"] = d["hypervisor_takeovers"]
	m["chaos.actions"] = d["chaos_actions"]
	m["wan.ticks_per_sim_s"] = d["wan_ticks"] / simS
	m["wan.servo_steps"] = d["wan_servo_steps"]
	m["wan.quorum_lost_ticks"] = d["wan_quorum_lost_ticks"]
	runtimeLayer(m, a.host, b.host, events)
}
