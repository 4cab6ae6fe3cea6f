package main

// decl declares one metric as BENCHMARK.json does. main_test.go asserts
// that these tables, BENCHMARK.json and the names a run emits are the same,
// so the declaration and the code cannot drift.
type decl struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"` // end-to-end only
}

// endToEnd are the metrics a user of the system sees, emitted by every
// workload. "op" is one event on the three data workloads and one acked
// control operation on ctl-churn; a "step" is the unit the closed loop
// waits for (a 1024-event chunk, one event, a 16-event batch, one
// unsubscribe+subscribe pair). README.md defines each.
var endToEnd = []decl{
	{"setup_s", "s", "lower", 0.25},
	{"ops_per_s", "1/s", "higher", 0.25},
	{"step_p50_us", "us", "lower", 0.25},
	{"allocs_per_op", "count", "lower", 0.02},
	{"heap_live_mb", "MiB", "lower", 0.20},
}

// perLayer are the single-layer metrics of the traced run (trace.*,
// span.*: bench-side spans), the obs counters read after it, and the
// isolated probes. They carry no bound.
var perLayer = []decl{
	{Name: "loop.step_p99_us", Unit: "us", Better: "lower"},
	{Name: "loop.cpu_us_per_op", Unit: "us", Better: "lower"},
	{Name: "trace.step_ns_per_op", Unit: "ns", Better: "lower"},
	{Name: "trace.overhead_share", Unit: "ratio", Better: "lower"},
	{Name: "span.publish_share", Unit: "ratio", Better: "lower"},
	{Name: "span.flush_share", Unit: "ratio", Better: "lower"},
	{Name: "span.run_share", Unit: "ratio", Better: "lower"},
	{Name: "span.sync_share", Unit: "ratio", Better: "lower"},
	{Name: "span.subscribe_share", Unit: "ratio", Better: "lower"},
	{Name: "span.unsubscribe_share", Unit: "ratio", Better: "lower"},
	{Name: "span.handler_share", Unit: "ratio", Better: "lower"},
	{Name: "span.other_share", Unit: "ratio", Better: "lower"},

	{Name: "facade.deliveries_per_event", Unit: "count", Better: "lower"},
	{Name: "facade.demux_candidates_per_event", Unit: "count", Better: "lower"},
	{Name: "facade.demux_hit_ratio", Unit: "ratio", Better: "higher"},
	{Name: "facade.false_positive_share", Unit: "ratio", Better: "lower"},
	{Name: "transport.frames_per_kop", Unit: "count", Better: "lower"},
	{Name: "transport.bytes_per_op", Unit: "B", Better: "lower"},
	{Name: "transport.flushes_per_kop", Unit: "count", Better: "lower"},
	{Name: "transport.events_per_publish_frame", Unit: "count", Better: "higher"},
	{Name: "transport.deliveries_per_batch_frame", Unit: "count", Better: "higher"},
	{Name: "transport.window_occupancy_mean", Unit: "count", Better: "lower"},
	{Name: "netem.link_packets_per_event", Unit: "count", Better: "lower"},
	{Name: "netem.hops_mean", Unit: "count", Better: "lower"},
	{Name: "netem.link_drops", Unit: "count", Better: "lower"},
	{Name: "openflow.table_occupancy_max", Unit: "count", Better: "lower"},
	{Name: "openflow.table_occupancy_total", Unit: "count", Better: "lower"},
	{Name: "core.reconfig_mean_us", Unit: "us", Better: "lower"},
	{Name: "runtime.gc_cycles", Unit: "count", Better: "lower"},
	{Name: "runtime.gc_pause_ms", Unit: "ms", Better: "lower"},
	{Name: "runtime.alloc_bytes_per_op", Unit: "B", Better: "lower"},
	{Name: "runtime.goroutines", Unit: "count", Better: "lower"},

	{Name: "wire.publish_encode_ns_per_event", Unit: "ns", Better: "lower"},
	{Name: "wire.publish_decode_ns_per_event", Unit: "ns", Better: "lower"},
	{Name: "wire.publish_decode_allocs_per_event", Unit: "count", Better: "lower"},
	{Name: "wire.deliver_encode_ns_per_delivery", Unit: "ns", Better: "lower"},
	{Name: "wire.deliver_decode_ns_per_delivery", Unit: "ns", Better: "lower"},
	{Name: "wire.bytes_per_event", Unit: "B", Better: "lower"},
	{Name: "wire.publish_encode_ns_per_event_8attr", Unit: "ns", Better: "lower"},
	{Name: "wire.publish_decode_ns_per_event_8attr", Unit: "ns", Better: "lower"},
	{Name: "transport.null_publish_ns_per_event", Unit: "ns", Better: "lower"},
	{Name: "transport.null_deliver_ns_per_delivery", Unit: "ns", Better: "lower"},
	{Name: "transport.null_rtt_us", Unit: "us", Better: "lower"},
	{Name: "transport.null_allocs_per_event", Unit: "count", Better: "lower"},
	{Name: "space.new_event_ns", Unit: "ns", Better: "lower"},
	{Name: "space.encode_ns", Unit: "ns", Better: "lower"},
	{Name: "ipmc.event_addr_ns", Unit: "ns", Better: "lower"},
	{Name: "dz.set_overlaps_ns", Unit: "ns", Better: "lower"},
	{Name: "dz.decompose_us", Unit: "us", Better: "lower"},
	{Name: "openflow.lookup_ns", Unit: "ns", Better: "lower"},
	{Name: "sim.schedule_run_ns_per_event", Unit: "ns", Better: "lower"},
	{Name: "netem.forward_ns_per_hop", Unit: "ns", Better: "lower"},
	{Name: "netem.forward_allocs_per_packet", Unit: "count", Better: "lower"},
	{Name: "facade.unicast_publish_ns_per_event", Unit: "ns", Better: "lower"},
	{Name: "facade.unicast_run_ns_per_event", Unit: "ns", Better: "lower"},
	{Name: "facade.subscribe_inproc_us", Unit: "us", Better: "lower"},
	{Name: "facade.unsubscribe_inproc_us", Unit: "us", Better: "lower"},
	{Name: "facade.snapshot_ms", Unit: "ms", Better: "lower"},
	{Name: "facade.restore_ms", Unit: "ms", Better: "lower"},
	{Name: "core.subscribe_us", Unit: "us", Better: "lower"},
	{Name: "core.unsubscribe_us", Unit: "us", Better: "lower"},
	{Name: "core.flowmods_per_op", Unit: "count", Better: "lower"},
	{Name: "core.southbound_calls_per_op", Unit: "count", Better: "lower"},
	{Name: "core.snapshot_encode_ms", Unit: "ms", Better: "lower"},
	{Name: "core.snapshot_bytes", Unit: "B", Better: "lower"},
	{Name: "core.restore_ms", Unit: "ms", Better: "lower"},
	{Name: "core.mem_journal_append_ns", Unit: "ns", Better: "lower"},
	{Name: "core.file_journal_append_us", Unit: "us", Better: "lower"},
}
