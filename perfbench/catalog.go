package main

// Spec names one reported metric and its unit.
type Spec struct {
	Name string
	Unit string
}

// endToEnd are the figures a user of the simulator sees; every untraced
// run of every workload reports all of them. For testbed and fabric a job
// is one fixed-length RunFor chunk; for served it is one campaign job.
var endToEnd = []Spec{
	{"setup_s", "s"},
	{"sim_s_per_wall_s", "sim-s/s"},
	{"heap_live_mb", "MiB"},
	{"job_latency_p50_s", "s"},
	{"job_latency_p90_s", "s"},
}

// layers are the repository's internal modules a CPU sample can be
// attributed to, plus bench (this benchmark's own code), runtime (no
// repository frame) and other (a module missing from this list).
var layers = []string{
	"attack", "chaos", "clock", "core", "experiments", "faultinject", "fta",
	"gptp", "hypervisor", "measure", "netsim", "obs", "phc2sys", "prof",
	"ptp4l", "runner", "serve", "servo", "shmem", "sim", "tas", "trace",
	"ttapp", "wan", "bench", "runtime", "other",
}

// perLayer are the traced run's figures. A workload that does not use a
// layer reports its counts as 0.
var perLayer = func() []Spec {
	s := []Spec{
		{"core.build_s", "s"},
		{"core.start_s", "s"},
		{"core.converge_s", "s"},
		{"core.runfor_ms_p50", "ms"},
		{"core.runfor_ms_p90", "ms"},

		{"sim.events_per_sim_s", "1/sim-s"},
		{"sim.ns_per_event", "ns"},
		{"sim.windows_per_sim_s", "1/sim-s"},
		{"sim.events_per_window", "count"},
		{"sim.serial_window_frac", "ratio"},
		{"sim.flush_skipped_frac", "ratio"},
		{"sim.barrier_wait_frac", "ratio"},
		{"sim.mailbox_frames_per_sim_s", "1/sim-s"},
		{"sim.control_rounds", "count"},
		{"sim.lookahead_rescans", "count"},
		{"sim.shard_event_imbalance", "ratio"},

		{"netsim.frames_sent_per_sim_s", "1/sim-s"},
		{"netsim.frames_forwarded_per_sim_s", "1/sim-s"},
		{"netsim.frames_lost", "count"},
		{"netsim.pool_hit_rate", "ratio"},

		{"ptp4l.fta_aggregations_per_sim_s", "1/sim-s"},
		{"ptp4l.servo_steps", "count"},
		{"ptp4l.holdover_entered", "count"},

		{"fta.discarded_per_aggregation", "ratio"},
		{"fta.starved", "count"},

		{"hypervisor.monitor_detections", "count"},
		{"hypervisor.takeovers", "count"},
		{"chaos.actions", "count"},

		{"wan.ticks_per_sim_s", "1/sim-s"},
		{"wan.servo_steps", "count"},
		{"wan.quorum_lost_ticks", "count"},

		{"runtime.allocs_per_event", "count"},
		{"runtime.bytes_per_event", "B"},
		{"runtime.gc_cycles", "count"},
		{"runtime.gc_cpu_frac", "ratio"},

		{"serve.submit_ms_p50", "ms"},
		{"serve.submit_ms_p90", "ms"},
		{"serve.queue_wait_s_p50", "s"},
		{"serve.queue_wait_s_p90", "s"},
		{"serve.run_s_p50_hit", "s"},
		{"serve.run_s_p50_miss", "s"},
		{"serve.run_s_p50_cold", "s"},
		{"serve.run_s_p90", "s"},
		{"serve.result_ms_p50", "ms"},
		{"serve.worker_busy_frac", "ratio"},
		{"serve.rejected", "count"},
		{"serve.jobs_failed_frac", "ratio"},
		{"serve.cache_hit_ratio", "ratio"},
		{"serve.cache_evictions", "count"},
		{"serve.cache_bytes_peak", "B"},

		{"runner.prefix_runs", "count"},
		{"runner.forks_served", "count"},
		{"runner.cold_fallbacks", "count"},

		{"bench.gen_lag_ms_p90", "ms"},
		{"bench.trace_overhead_frac", "ratio"},
	}
	for _, l := range layers {
		s = append(s, Spec{l + ".cpu_frac", "ratio"})
	}
	return s
}()
