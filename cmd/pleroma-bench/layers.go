package main

import (
	"runtime"

	"pleroma"
	"pleroma/internal/obs"
)

// perLayerRun produces the per-layer metrics of one workload: a traced
// window on a fresh deployment with observability and bench-side spans on
// (span shares, obs counters, runtime figures), then the isolated probes.
// untraced is the untraced window of the same invocation; when the
// end-to-end part did not run, a reference window is measured first.
func perLayerRun(name string, o options, untraced *window, res *result) error {
	if untraced == nil {
		w, _, err := fresh(name, o, nil)
		if err != nil {
			return err
		}
		win, _, err := warmAndMeasure(w, o, o.tracedWindow(), res)
		w.close()
		if err != nil {
			return err
		}
		untraced = &win
	}
	rec := newRecorder()
	w, _, err := fresh(name, o, rec)
	if err != nil {
		return err
	}
	defer w.close()
	if _, err := runWindow(w, o.warmup()); err != nil {
		return err
	}
	rec.spans = rec.spans[:0] // the warm-up's spans are not reported
	var m0, m1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&m0)
	sys0, cli0 := w.metrics()
	win, err := runWindow(w, o.tracedWindow())
	if err != nil {
		return err
	}
	goroutines := runtime.NumGoroutine()
	sys1, cli1 := w.metrics()
	heapLive() // the closing collections count towards gc_cycles and gc_pause_ms
	runtime.ReadMemStats(&m1)
	if err := w.verify(); err != nil {
		return err
	}
	res.Attempted += win.ranOps
	res.Failed += w.failures()
	res.spans = rec.spans

	out := make(map[string]metric)
	put := func(name string, v float64, unit string) { out[name] = metric{Value: v, Unit: unit} }
	ops := float64(win.ops)

	// T: bench-side spans. A phase's share is its self time over the
	// summed step time; multiply by trace.step_ns_per_op for ns per op.
	self := selfTimes(rec.spans)
	var stepTotal float64
	for _, s := range rec.spans {
		if s.Name == "step" {
			stepTotal += float64(s.End - s.Start)
		}
	}
	// The untraced loop's tail latency and CPU cost: end-to-end numbers,
	// but too noisy on a shared host to carry a bound, so reported here.
	put("loop.step_p99_us", quantile(untraced.lat(), 0.99), "us")
	put("loop.cpu_us_per_op", untraced.cpuPerOp(), "us")
	put("trace.step_ns_per_op", stepTotal/ops, "ns")
	put("trace.overhead_share", 1-win.rate()/untraced.rate(), "ratio")
	for _, phase := range []string{"publish", "flush", "run", "sync", "subscribe", "unsubscribe", "handler"} {
		put("span."+phase+"_share", float64(self[phase])/stepTotal, "ratio")
	}
	put("span.other_share", float64(self["step"])/stepTotal, "ratio")

	// C: obs counters, as deltas over the traced window.
	sys := func(name string) float64 { return total(sys1, name) - total(sys0, name) }
	cli := func(name string) float64 { return total(cli1, name) - total(cli0, name) }
	events := 0.0
	if w.demuxWidth() > 0 {
		events = ops
	}
	deliveries := sys(obs.MDeliveries)
	candidates := sys(obs.MHostDeliveries) * float64(w.demuxWidth())
	put("facade.deliveries_per_event", ratio(deliveries, events), "count")
	put("facade.demux_candidates_per_event", ratio(candidates, events), "count")
	put("facade.demux_hit_ratio", ratio(deliveries, candidates), "ratio")
	put("facade.false_positive_share", ratio(sys(obs.MFalsePositives), deliveries), "ratio")
	frames := sys(obs.MTransportFramesSent) + sys(obs.MTransportFramesRecv)
	put("transport.frames_per_kop", 1e3*frames/ops, "count")
	put("transport.bytes_per_op", (sys(obs.MTransportBytesSent)+sys(obs.MTransportBytesRecv))/ops, "B")
	put("transport.flushes_per_kop", 1e3*(sys(obs.MTransportFlushes)+cli(obs.MTransportFlushes))/ops, "count")
	put("transport.events_per_publish_frame", histMean(cli0, cli1, obs.MTransportPublishCoalesced), "count")
	put("transport.deliveries_per_batch_frame", histMean(sys0, sys1, obs.MTransportDeliverBatch), "count")
	occupancy := 0.0
	if s, ok := w.(interface{ windowOccupancy() float64 }); ok {
		occupancy = s.windowOccupancy()
	}
	put("transport.window_occupancy_mean", occupancy, "count")
	put("netem.link_packets_per_event", ratio(sys(obs.MLinkPackets), events), "count")
	put("netem.hops_mean", histMean(sys0, sys1, obs.MDeliveryHops), "count")
	drops := sys(obs.MLinkDrops)
	put("netem.link_drops", drops, "count")
	res.Failed += int(drops)
	occMax, occTotal := 0.0, 0.0
	for _, s := range family(sys1, obs.MFlowTableOccupancy).Samples {
		occTotal += s.Value
		if s.Value > occMax {
			occMax = s.Value
		}
	}
	put("openflow.table_occupancy_max", occMax, "count")
	put("openflow.table_occupancy_total", occTotal, "count")
	// Controller time per control op since set-up began (the data
	// workloads issue none inside the window).
	put("core.reconfig_mean_us", histMean(nil, sys1, obs.MReconfigDuration)/1e3, "us")
	put("runtime.gc_cycles", float64(m1.NumGC-m0.NumGC), "count")
	put("runtime.gc_pause_ms", float64(m1.PauseTotalNs-m0.PauseTotalNs)/1e6, "ms")
	put("runtime.alloc_bytes_per_op", float64(win.bytes())/ops, "B")
	put("runtime.goroutines", float64(goroutines), "count")

	// P: isolated probes.
	if err := runProbes(o, name, int(occMax), out); err != nil {
		return err
	}
	res.PerLayer = out
	return nil
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func family(fams []pleroma.MetricFamily, name string) pleroma.MetricFamily {
	for _, f := range fams {
		if f.Name == name {
			return f
		}
	}
	return pleroma.MetricFamily{}
}

// total sums a counter or gauge family over its labels.
func total(fams []pleroma.MetricFamily, name string) float64 {
	var v float64
	for _, s := range family(fams, name).Samples {
		v += s.Value
	}
	return v
}

// histMean is the mean observation of a histogram family between two
// snapshots, over all labels (before may be nil: since creation). The
// value is in the histogram's own unit: a count, or nanoseconds.
func histMean(before, after []pleroma.MetricFamily, name string) float64 {
	var sum, count float64
	add := func(sign float64, fams []pleroma.MetricFamily) {
		for _, s := range family(fams, name).Samples {
			if s.Hist != nil {
				sum += sign * float64(s.Hist.Sum)
				count += sign * float64(s.Hist.Count)
			}
		}
	}
	add(1, after)
	add(-1, before)
	return ratio(sum, count)
}
