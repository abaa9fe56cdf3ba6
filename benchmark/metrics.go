package main

// metricDef is one row of the benchmark's metric tables. The tables are
// the single source: BENCHMARK.json is printed from them (`manifest`),
// the harness emits exactly these names, and `compare` reads its bounds
// from them.
type metricDef struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
	// Better is "lower" or "higher".
	Better string `json:"better"`
	// Bound is the share of the parent's median by which an end-to-end
	// metric may worsen before the driver rejects a change. The driver
	// takes its medians over runs on ten different seeds and requires
	// the spread of those runs to stay inside the bound, so each bound is
	// at least three times the widest spread across seeds measured on
	// any workload (README, "Baseline"). Per-layer metrics have none, and
	// BENCHMARK.json then omits the key.
	Bound float64 `json:"bound,omitempty"`
	// sameSeed is the bound `compare` applies, where both sides ran the
	// same seed and only the machine's noise is left. Zero marks a
	// simulated-time metric: exact per seed, so any difference is a
	// change of the model, not of its speed.
	sameSeed float64
	// floor is an absolute slack under which `compare` ignores a
	// worsening, for metrics small enough that a share of them is noise.
	floor float64
}

// endToEnd lists what a user of the emulator sees: host cost of a run
// at a stated population, and the simulated QoE the paper is about.
// Every metric is defined and non-zero on every workload; the rates
// whose natural form is zero on most workloads (stall rate, timeouts
// per request, failed share) are reported as their complements.
var endToEnd = []metricDef{
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25, sameSeed: 0.10, floor: 0.050},
	{Name: "sessions_per_s", Unit: "1/s", Better: "higher", Bound: 0.25, sameSeed: 0.15},
	{Name: "allocs_per_session", Unit: "count", Better: "lower", Bound: 0.15, sameSeed: 0.02},
	{Name: "alloc_kb_per_session", Unit: "KB", Better: "lower", Bound: 0.18, sameSeed: 0.05},
	{Name: "peak_rss_mb", Unit: "MB", Better: "lower", Bound: 0.25, sameSeed: 0.10},
	{Name: "prebuffer_p50_s", Unit: "s", Better: "lower", Bound: 0.15},
	{Name: "prebuffer_p99_s", Unit: "s", Better: "lower", Bound: 0.18},
	{Name: "stall_free_share", Unit: "share", Better: "higher", Bound: 0.015},
	{Name: "goodput_mbps_mean", Unit: "Mb/s", Better: "higher", Bound: 0.12},
	{Name: "fairness_jain", Unit: "index", Better: "higher", Bound: 0.04},
	{Name: "timely_request_share", Unit: "share", Better: "higher", Bound: 0.02},
	{Name: "completed_share", Unit: "share", Better: "higher", Bound: 0.001},
	{Name: "origin_amplification", Unit: "ratio", Better: "lower", Bound: 0.18},
}

// multipathGain is the fourteenth end-to-end metric, the paper's
// headline. It exists on solo_paths only, so the driver's every-metric-
// on-every-workload table cannot carry it: it is emitted with the
// per-layer metrics, and `compare` holds it to exact equality on
// solo_paths like every simulated metric.
var multipathGain = metricDef{Name: "core.multipath_gain_pct", Unit: "%", Better: "higher"}

// perLayer lists the single-layer metrics a traced run reports, layers
// named after the modules. Three kinds: <layer>.cpu_share from the CPU
// profile, probe unit costs (ns/op, allocs/op) from isolated timed
// loops, and counts read off the fleet report.
var perLayer = []metricDef{
	{Name: "netem.cpu_share", Unit: "share", Better: "lower"},
	{Name: "netem.timer_fire_ns", Unit: "ns/op", Better: "lower"},
	{Name: "netem.timer_fire_allocs", Unit: "allocs/op", Better: "lower"},
	{Name: "netem.timer_resched_ns", Unit: "ns/op", Better: "lower"},
	{Name: "netem.sleep_wake_ns", Unit: "ns/op", Better: "lower"},
	{Name: "netem.pipe_copy_ns_per_kib", Unit: "ns/KiB", Better: "lower"},
	{Name: "netem.pipe_stable_ns_per_kib", Unit: "ns/KiB", Better: "lower"},
	{Name: "netem.pipe_lossy_ns_per_kib", Unit: "ns/KiB", Better: "lower"},
	{Name: "netem.pipe_allocs_per_mib", Unit: "allocs/MiB", Better: "lower"},
	{Name: "netem.dial_ns", Unit: "ns/op", Better: "lower"},
	{Name: "netem.loop_do_ns", Unit: "ns/op", Better: "lower"},

	{Name: "trace.cpu_share", Unit: "share", Better: "lower"},
	{Name: "trace.lognormal_fresh_ns", Unit: "ns/op", Better: "lower"},
	{Name: "trace.lognormal_hit_ns", Unit: "ns/op", Better: "lower"},

	{Name: "httpx.cpu_share", Unit: "share", Better: "lower"},
	{Name: "httpx.req_1k_ns", Unit: "ns/op", Better: "lower"},
	{Name: "httpx.req_1k_allocs", Unit: "allocs/op", Better: "lower"},
	{Name: "httpx.req_1m_ns_per_mib", Unit: "ns/MiB", Better: "lower"},
	{Name: "httpx.req_1m_allocs", Unit: "allocs/op", Better: "lower"},
	{Name: "httpx.req_fresh_ns", Unit: "ns/op", Better: "lower"},
	{Name: "httpx.req_deadline_ns", Unit: "ns/op", Better: "lower"},
	{Name: "httpx.req_abort_ns", Unit: "ns/op", Better: "lower"},

	{Name: "origin.cpu_share", Unit: "share", Better: "lower"},
	{Name: "origin.token_sign_ns", Unit: "ns/op", Better: "lower"},
	{Name: "origin.token_verify_ns", Unit: "ns/op", Better: "lower"},
	{Name: "origin.watch_ns", Unit: "ns/op", Better: "lower"},
	{Name: "origin.range_256k_ns", Unit: "ns/op", Better: "lower"},
	{Name: "origin.requests", Unit: "count", Better: "lower"},
	{Name: "origin.body_mb", Unit: "MB", Better: "lower"},
	{Name: "origin.aborted", Unit: "count", Better: "lower"},

	{Name: "videostore.cpu_share", Unit: "share", Better: "lower"},
	{Name: "videostore.readat_cold_mib_per_s", Unit: "MiB/s", Better: "higher"},
	{Name: "videostore.cached_slice_ns", Unit: "ns/op", Better: "lower"},

	{Name: "edge.cpu_share", Unit: "share", Better: "lower"},
	{Name: "edge.hit_ns", Unit: "ns/op", Better: "lower"},
	{Name: "edge.fill_ns", Unit: "ns/op", Better: "lower"},
	{Name: "edge.evict_fill_ns", Unit: "ns/op", Better: "lower"},
	{Name: "edge.hit_ratio", Unit: "share", Better: "higher"},
	{Name: "edge.fills", Unit: "count", Better: "lower"},
	{Name: "edge.evictions", Unit: "count", Better: "lower"},
	{Name: "edge.backhaul_mb", Unit: "MB", Better: "lower"},
	{Name: "edge.fit.hit_ratio", Unit: "share", Better: "higher"},
	{Name: "edge.fit.fills", Unit: "count", Better: "lower"},
	{Name: "edge.fit.evictions", Unit: "count", Better: "lower"},
	{Name: "edge.stampede.hit_ratio", Unit: "share", Better: "higher"},
	{Name: "edge.stampede.fills", Unit: "count", Better: "lower"},
	{Name: "edge.stampede.evictions", Unit: "count", Better: "lower"},
	{Name: "edge.tight_lru.hit_ratio", Unit: "share", Better: "higher"},
	{Name: "edge.tight_lru.fills", Unit: "count", Better: "lower"},
	{Name: "edge.tight_lru.evictions", Unit: "count", Better: "lower"},
	{Name: "edge.tight_lfu.hit_ratio", Unit: "share", Better: "higher"},
	{Name: "edge.tight_lfu.fills", Unit: "count", Better: "lower"},
	{Name: "edge.tight_lfu.evictions", Unit: "count", Better: "lower"},

	{Name: "core.cpu_share", Unit: "share", Better: "lower"},
	{Name: "core.sched_observe_size_ns", Unit: "ns/op", Better: "lower"},
	{Name: "core.buffer_deliver_tick_ns", Unit: "ns/op", Better: "lower"},
	{Name: "core.estimator_observe_ns", Unit: "ns/op", Better: "lower"},
	{Name: "core.solo_session_ms", Unit: "ms", Better: "lower"},
	{Name: "core.solo_session_allocs", Unit: "allocs/op", Better: "lower"},
	{Name: "core.requests_per_session", Unit: "count", Better: "lower"},
	{Name: "core.wifi_share", Unit: "share", Better: "higher"},
	{Name: "core.refills_per_session", Unit: "count", Better: "lower"},
	{Name: "core.stalled_sessions", Unit: "count", Better: "lower"},
	{Name: "core.failed_sessions", Unit: "count", Better: "lower"},
	{Name: "core.timeouts", Unit: "count", Better: "lower"},
	{Name: "core.failovers", Unit: "count", Better: "lower"},
	{Name: "core.rebootstraps", Unit: "count", Better: "lower"},
	{Name: "core.breaker_opens", Unit: "count", Better: "lower"},
	{Name: "core.half_open_probes", Unit: "count", Better: "lower"},
	{Name: "core.hedges", Unit: "count", Better: "lower"},
	{Name: "core.hedges_won", Unit: "count", Better: "higher"},
	{Name: "core.hedge_wasted_mb", Unit: "MB", Better: "lower"},
	{Name: multipathGain.Name, Unit: multipathGain.Unit, Better: multipathGain.Better},

	{Name: "stats.cpu_share", Unit: "share", Better: "lower"},
	{Name: "stats.digest_add_ns", Unit: "ns/op", Better: "lower"},
	{Name: "stats.digest_quantile_ns", Unit: "ns/op", Better: "lower"},
	{Name: "stats.digest_merge_ns", Unit: "ns/op", Better: "lower"},

	{Name: "testbed.cpu_share", Unit: "share", Better: "lower"},
	{Name: "testbed.new_close_ms", Unit: "ms", Better: "lower"},
	{Name: "testbed.new_client_us", Unit: "us", Better: "lower"},

	{Name: "fleet.cpu_share", Unit: "share", Better: "lower"},
	{Name: "fleet.report_render_us", Unit: "us", Better: "lower"},
	{Name: "fleet.invariants_us", Unit: "us", Better: "lower"},
	{Name: "fleet.virtual_s", Unit: "s", Better: "lower"},
	{Name: "fleet.virtual_s_per_wall_s", Unit: "ratio", Better: "higher"},
	{Name: "fleet.session_cost_ratio", Unit: "ratio", Better: "lower"},
	{Name: "fleet.cores_speedup", Unit: "ratio", Better: "higher"},

	{Name: "runtime.gc_share", Unit: "share", Better: "lower"},
	{Name: "runtime.sched_share", Unit: "share", Better: "lower"},
	{Name: "runtime.gc_cycles", Unit: "count", Better: "lower"},
	{Name: "runtime.gc_pause_ms", Unit: "ms", Better: "lower"},
	{Name: "runtime.peak_heap_mb", Unit: "MB", Better: "lower"},
	{Name: "runtime.peak_goroutines", Unit: "count", Better: "lower"},

	{Name: "harness.cpu_share", Unit: "share", Better: "lower"},
	{Name: "harness.build_s", Unit: "s", Better: "lower"},
	{Name: "harness.trace_overhead_pct", Unit: "%", Better: "lower"},
	{Name: "harness.model_coverage", Unit: "share", Better: "higher"},
}

// runSeconds is how long one driver run measures: reps are started
// until this much time has been spent inside fleet.Run, two at least.
const runSeconds = 12

// manifest is BENCHMARK.json.
type manifest struct {
	Command    []string       `json:"command"`
	Paths      []string       `json:"paths"`
	RunSeconds int            `json:"run_seconds"`
	Workloads  []manifestLoad `json:"workloads"`
	EndToEnd   []metricDef    `json:"end_to_end"`
	PerLayer   []metricDef    `json:"per_layer"`
}

type manifestLoad struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

func buildManifest() manifest {
	m := manifest{
		Command:    []string{"bash", "benchmark/run.sh"},
		Paths:      []string{"benchmark"},
		RunSeconds: runSeconds,
		EndToEnd:   endToEnd,
		PerLayer:   perLayer,
	}
	for _, w := range workloads {
		m.Workloads = append(m.Workloads, manifestLoad{Name: w.name, Why: w.why})
	}
	return m
}
