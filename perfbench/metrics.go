package main

// metricSpec names one reported metric; BENCHMARK.json lists the same set.
type metricSpec struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
}

// endToEndMetrics are what every untraced run reports, on every workload.
// light_ms and heavy_ms are each workload's two operation classes (README.md
// defines them per workload).
func endToEndMetrics() []metricSpec {
	return []metricSpec{
		{"setup_s", "s", "lower"},
		{"max_rss_mb", "MB", "lower"},
		{"light_ms", "ms", "lower"},
		{"heavy_ms", "ms", "lower"},
	}
}

var (
	simCounters = []metricSpec{
		{"cpu.committed", "count", "higher"},
		{"cpu.squashes", "count", "lower"},
		{"workload.instrs", "count", "lower"},
		{"event.fired", "count", "lower"},
		{"core.wall_cycles", "cycles", "lower"},
		{"core.skipped_cycles", "cycles", "higher"},
		{"core.ns_per_ticked_cycle", "ns", "lower"},
		{"cache.l1d_misses", "count", "lower"},
		{"cache.l2_misses", "count", "lower"},
		{"cache.l3_misses", "count", "lower"},
		{"memctrl.reads", "count", "lower"},
		{"memctrl.writes", "count", "lower"},
		{"memctrl.read_latency_cycles", "cycles", "lower"},
		{"dram.row_hits", "count", "higher"},
		{"dram.row_conflicts", "count", "lower"},
	}
	sweepLayerMetrics = []metricSpec{
		{"checkpoint.get_s", "s", "lower"},
		{"store.get_s", "s", "lower"},
		{"snap.restore_s", "s", "lower"},
		{"core.measure_s", "s", "lower"},
		{"checkpoint.hits", "count", "higher"},
		{"checkpoint.misses", "count", "lower"},
		{"checkpoint.hit_ratio", "ratio", "higher"},
		{"store.bytes_read", "bytes", "lower"},
	}
	serveCounters = []metricSpec{
		{"client.submit_ms", "ms", "lower"},
		{"client.poll_ms", "ms", "lower"},
		{"client.polls_per_job", "count", "lower"},
		{"gen.late_ms_max", "ms", "lower"},
		{"server.admission_ms", "ms", "lower"},
		{"server.queue_ms", "ms", "lower"},
		{"server.run_ms", "ms", "lower"},
		{"server.respond_ms", "ms", "lower"},
		{"server.hit_ratio", "ratio", "higher"},
		{"server.sims_run", "count", "lower"},
		{"server.rejected", "count", "lower"},
		{"store.hits", "count", "higher"},
		{"store.misses", "count", "lower"},
		{"store.journal_records", "count", "lower"},
		{"fleet.peer_hits", "count", "higher"},
	}
)

// perLayerMetrics are what every traced run reports. A workload that does
// not touch a layer reports it as 0.
//
//   - <layer>.self_s.{light,heavy}: profiled CPU seconds charged to each
//     layer (chargeLayer) per light/heavy operation; profile.cpu_s is their
//     sum, profile.process_cpu_s the process CPU time of the same spans, and
//     profile.coverage the first over the second (checkProfile).
//   - sim-mix counters, one pass per class, suffixed .ilp and .mem.
//   - sweep-warm layer timings over one sweep's checkpoint prefixes.
//   - serve-fleet client, generator and worker figures per rate, .lo and .hi.
func perLayerMetrics() []metricSpec {
	var out []metricSpec
	for _, cls := range []string{"light", "heavy"} {
		for _, l := range layers {
			out = append(out, metricSpec{l + ".self_s." + cls, "s", "lower"})
		}
		out = append(out,
			metricSpec{"profile.cpu_s." + cls, "s", "lower"},
			metricSpec{"profile.process_cpu_s." + cls, "s", "lower"},
			metricSpec{"profile.coverage." + cls, "ratio", "higher"},
		)
	}
	for _, cls := range []string{"ilp", "mem"} {
		for _, m := range simCounters {
			out = append(out, metricSpec{m.Name + "." + cls, m.Unit, m.Better})
		}
	}
	out = append(out, sweepLayerMetrics...)
	for _, rate := range []string{"lo", "hi"} {
		for _, m := range serveCounters {
			out = append(out, metricSpec{m.Name + "." + rate, m.Unit, m.Better})
		}
	}
	return append(out,
		metricSpec{"fleet.proxy_hop_ms", "ms", "lower"},
		metricSpec{"trace.overhead", "ratio", "lower"},
	)
}
