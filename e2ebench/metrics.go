package main

// metricDef names one reported metric and its unit. BENCHMARK.json at the
// repository root lists the same names and units; a test keeps them equal.
type metricDef struct {
	Name string
	Unit string
}

// endToEnd are the metrics of an untraced run: what a user of the simulator
// waits for and pays.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"wall_s", "s"},
	{"sim_gbit_per_wall_s", "Gbit/s"},
	{"point_wall_ms_p50", "ms"},
	{"point_wall_ms_p96", "ms"},
	{"peak_rss_mb", "MB"},
}

// perLayer are the metrics of a traced run, one group per internal/
// package, plus the Go runtime, the CPU profile's shares and the model's
// accuracy.
var perLayer = []metricDef{
	{"sim.events", "count"},
	{"sim.events_per_seg", "count"},
	{"sim.queue_hw", "count"},
	{"sim.ns_per_event", "ns"},
	{"tcp.data_segs", "count"},
	{"tcp.acks_per_seg", "count"},
	{"tcp.retransmits", "count"},
	{"tcp.timeouts", "count"},
	{"host.cpu_util_max", "%"},
	{"host.qdisc_drops", "count"},
	{"nic.irqs_per_pkt", "count"},
	{"nic.rx_overruns", "count"},
	{"pci.util_max", "%"},
	{"mem.bus_util_max", "%"},
	{"wan.bottleneck_drops", "count"},
	{"fabric.forwarded", "count"},
	{"fabric.drops", "count"},
	{"fabric.max_queue_kb", "KB"},
	{"netem.seen", "count"},
	{"netem.dropped", "count"},
	{"topo.parse_ms", "ms"},
	{"topo.compile_ms", "ms"},
	{"pdes.new_ms", "ms"},
	{"pdes.windows", "count"},
	{"pdes.events_per_window", "count"},
	{"pdes.sync_share", "%"},
	{"pdes.tail_events", "count"},
	{"core.point_build_us", "us"},
	{"telemetry.collect_ms", "ms"},
	{"telemetry.export_ms", "ms"},
	{"telemetry.export_mb", "MB"},
	{"go.alloc_bytes_per_event", "B"},
	{"go.gc_cycles", "count"},
	{"cpu.sim", "%"},
	{"cpu.tcp", "%"},
	{"cpu.host", "%"},
	{"cpu.nic", "%"},
	{"cpu.pci", "%"},
	{"cpu.mem", "%"},
	{"cpu.phys", "%"},
	{"cpu.wan", "%"},
	{"cpu.fabric", "%"},
	{"cpu.netem", "%"},
	{"cpu.telemetry", "%"},
	{"cpu.pdes", "%"},
	{"cpu.runtime", "%"},
	{"cpu.other", "%"},
	{"tracing_overhead_pct", "%"},
	{"model.anchors", "count"},
	{"model.paper_err_pct", "%"},
}
