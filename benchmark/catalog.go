package main

// The catalog is the benchmark's contract in code: the workloads, the
// end-to-end metrics every untraced run reports and the per-layer
// metrics every traced run reports. BENCHMARK.json at the repository
// root states the same lists for the driver; TestCatalogMatchesManifest
// keeps the two from drifting.

type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"` // end-to-end only
}

type workloadDef struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

// defaultSeconds mirrors run_seconds in BENCHMARK.json.
const defaultSeconds = 15

var workloadDefs = []workloadDef{
	{"single_stream", "lbm-94 with IPCP at L1+L2, IPC~0.8: every cycle has work, so cache service/fill, IPCP Operate, Guard and core dispatch set the speed and the scheduler has nothing to skip"},
	{"single_pointer", "mcf-994 with IPCP, IPC~0.05, many seeds: the machine idles on DRAM, so fast-forward, NextEvent and idle Cycle calls set the speed - single_stream's layers used the opposite way"},
	{"mix8", "8-core heterogeneous mix on the default engine: 25 caches and 8 cores clocked together, the multi-core scheduler cost a user gets without choosing an engine"},
	{"paper_figs", "experiments CLI regenerating seven paper tables: hundreds of short runs through Session memo and admission, every baseline prefetcher, one sim.Build per run (ignores the seed)"},
	{"sweep_grid", "coordinator plus two workers serving a 48-point POST /v1/sweeps: fan-out, queue, snapshot fork, blob store and 12-way shared warmups; shares most of the work between points"},
	{"serve_cold", "ipcpd under one closed-loop HTTP client, every run a distinct seed: shares nothing, so per-run sim.Build, journal fsync and the queue dominate a 10k-instruction job"},
	{"serve_repeat", "the same daemon asked again for runs it has finished: shares everything - the POST coalesces onto the finished job, so this is pure HTTP and JSON cost; a simulator change must not move it"},
}

var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"wall_s", "s", "lower", 0.25},
	{"sim_instr_per_s", "instr/s", "higher", 0.25},
	{"cpu_s", "s", "lower", 0.25},
}

var baselinePrefetchers = []string{"nl", "ipstride", "stream", "bop", "spp", "mlop", "bingo", "vldp", "sms", "tskid"}

var perLayer = buildPerLayer()

func buildPerLayer() []metricDef {
	lo := func(name, unit string) metricDef { return metricDef{Name: name, Unit: unit, Better: "lower"} }
	hi := func(name, unit string) metricDef { return metricDef{Name: name, Unit: unit, Better: "higher"} }
	m := []metricDef{
		hi("trace.v1_parse_instr_per_s", "instr/s"),
		hi("trace.v2_replay_instr_per_s", "instr/s"),
		lo("trace.v2_open_ms", "ms"),
		lo("trace.v1_to_v2_convert_ms", "ms"),
		hi("workload.gen_stream_instr_per_s", "instr/s"),
		hi("workload.gen_pointer_instr_per_s", "instr/s"),
		lo("cpu.cycle_busy_ns", "ns"),
		lo("cpu.cycle_stalled_ns", "ns"),
		hi("cpu.perfect_mem_instr_per_s", "instr/s"),
		lo("cache.cycle_idle_ns", "ns"),
		lo("cache.cycle_hit_ns", "ns"),
		lo("cache.cycle_miss_ns", "ns"),
		lo("cache.next_event_ns", "ns"),
		hi("cache.reads_per_s", "1/s"),
		lo("core.l1_operate_cs_ns", "ns"),
		lo("core.l1_operate_gs_ns", "ns"),
		lo("core.l1_operate_irregular_ns", "ns"),
		lo("core.l2_operate_ns", "ns"),
		lo("core.l1_candidates_per_access", "count"),
	}
	for _, p := range baselinePrefetchers {
		m = append(m, lo("prefetch.operate_ns."+p, "ns"))
	}
	m = append(m,
		lo("prefetch.guard_overhead_ns", "ns"),
		lo("prefetch.guard_cycle_ns", "ns"),
		lo("dram.cycle_idle_ns", "ns"),
		lo("dram.cycle_busy_ns", "ns"),
		hi("dram.reads_per_s", "1/s"),
		hi("dram.row_hit_frac", "ratio"),
		lo("vmem.translate_ns", "ns"),
		lo("vmem.tlb_lookup_ns", "ns"),
		lo("sim.build_1core_ms", "ms"),
		lo("sim.build_8core_ms", "ms"),
		lo("sim.snapshot_ms", "ms"),
		lo("sim.restore_ms", "ms"),
		lo("sim.snapshot_encode_ms", "ms"),
		lo("sim.snapshot_decode_ms", "ms"),
		lo("sim.snapshot_bytes", "B"),
		lo("sim.cycles", "count"),
		lo("sim.ns_per_sim_cycle", "ns"),
		lo("experiments.memo_hit_us", "us"),
		lo("experiments.disk_hit_ms", "ms"),
		lo("experiments.ckpt_save_ms", "ms"),
		lo("experiments.fork_measure_ms", "ms"),
		lo("experiments.executed", "count"),
		hi("experiments.memo_hits", "count"),
		hi("experiments.disk_hits", "count"),
		hi("experiments.forked_runs", "count"),
		hi("experiments.warmups_coalesced", "count"),
		lo("experiments.snapshot_store_bytes", "B"),
		lo("serve.submit_ms_p50", "ms"),
		lo("serve.submit_nojournal_ms_p50", "ms"),
		lo("serve.get_job_ms_p50", "ms"),
		lo("serve.run_latency_p90_ms", "ms"),
		lo("serve.run_latency_p99_ms", "ms"),
		lo("serve.queue_wait_s_sum", "s"),
		lo("serve.execution_s_sum", "s"),
		lo("serve.journal_appended", "count"),
		lo("serve.rejected_429", "count"),
		hi("serve.coalesced", "count"),
		lo("coord.boot_ms", "ms"),
		lo("coord.fanout_submitted", "count"),
		lo("coord.fanout_retries", "count"),
		lo("coord.points_reassigned", "count"),
		lo("coord.blob_puts", "count"),
		lo("coord.blob_gets", "count"),
		hi("coord.blob_hits", "count"),
		lo("coord.blob_put_ms_p50", "ms"),
		lo("coord.blob_get_ms_p50", "ms"),
		lo("coord.overhead_frac", "ratio"),
		lo("coord.replay_point_ms", "ms"),
		hi("model.ipc", "instr/cycle"),
		hi("model.ipcp_speedup", "x"),
		lo("model.l1d_mpki", "1/kinstr"),
		lo("model.l2_mpki", "1/kinstr"),
		lo("model.llc_mpki", "1/kinstr"),
		lo("model.l1d_pf_issued", "count"),
		hi("model.l1d_pf_useful", "count"),
		hi("model.l1d_pf_accuracy", "ratio"),
		lo("model.l2_pf_issued", "count"),
		hi("model.l2_pf_useful", "count"),
		lo("model.dram_reads", "count"),
		lo("model.dram_writes", "count"),
		lo("model.dram_bus_util", "ratio"),
		hi("model.class_share_cs", "ratio"),
		hi("model.class_share_cplx", "ratio"),
		hi("model.class_share_gs", "ratio"),
		lo("model.class_share_nl", "ratio"),
		lo("model.digest", "hash48"),
		lo("host.peak_rss_mb", "MB"),
		hi("host.cpu_util", "ratio"),
		lo("host.trace_overhead_frac", "ratio"),
		lo("host.rep_spread", "ratio"),
		hi("host.speed_factor", "ratio"),
	)
	return m
}

func workloadNames() []string {
	names := make([]string, len(workloadDefs))
	for i, w := range workloadDefs {
		names[i] = w.Name
	}
	return names
}
