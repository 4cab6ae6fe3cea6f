package pleroma

import (
	"log/slog"
	"net/http"
	"strconv"
	"time"

	"pleroma/internal/obs"
)

// This file is the public face of the runtime observability layer
// (internal/obs): a metrics registry populated by every subsystem
// (controllers, data plane, fault layer, interdomain fabric), a bounded
// trace of control-plane operations, and the operational HTTP endpoint
// serving /metrics, /healthz, /readyz, /traces and /debug/pprof.
// Observability is off by default and the publish/delivery hot path then
// pays only nil checks; on, it allocates nothing more per delivery
// (BenchmarkSystemPublishDeliverObs reads 1 alloc/op, as with it off).

// Re-exported observability types.
type (
	// MetricsSnapshot is a point-in-time copy of every registered metric
	// (families sorted by name, samples by label).
	MetricsSnapshot = obs.Snapshot
	// MetricFamily is one named metric with all its label samples.
	MetricFamily = obs.Family
	// TraceSpan is one recorded control-plane operation with its events.
	TraceSpan = obs.Span
	// ObsServer is a running observability HTTP endpoint.
	ObsServer = obs.Server
	// DeliverySample is one end-to-end delivery observation (see the
	// slowest-events ring of DeliveryLatencyReport).
	DeliverySample = obs.DeliverySample
	// HistogramSnapshot is a point-in-time copy of one histogram.
	HistogramSnapshot = obs.HistSnapshot
)

// WithObservability enables the observability layer: a metrics registry
// threaded through all subsystems, and a control-plane tracer keeping the
// most recent traceCapacity operation spans (0 selects the default of
// 256). Disabled systems skip all of it and keep the data path free of
// instrumentation.
func WithObservability(traceCapacity int) Option {
	return func(c *config) {
		c.obsEnabled = true
		c.obsTraceCap = traceCapacity
	}
}

// WithTraceLog additionally streams every completed control-plane span to
// l as a structured log record. Implies nothing on its own: it takes
// effect only together with WithObservability.
func WithTraceLog(l *slog.Logger) Option {
	return func(c *config) { c.obsTraceSink = l }
}

// defaultTraceCapacity is the ring size used when WithObservability is
// given a non-positive capacity.
const defaultTraceCapacity = 256

// initObservability builds the registry and tracer before the fabric is
// created (the fabric threads them into every partition controller).
func (c *config) initObservability() (*obs.Registry, *obs.Tracer) {
	if !c.obsEnabled {
		return nil, nil
	}
	cap := c.obsTraceCap
	if cap <= 0 {
		cap = defaultTraceCapacity
	}
	tracer := obs.NewTracer(cap)
	if c.obsTraceSink != nil {
		tracer.SetSink(c.obsTraceSink)
	}
	return obs.NewRegistry(), tracer
}

// instrumentDispatch creates the facade-level delivery instruments; the
// dispatch hot path increments them nil-safely.
func (s *System) instrumentDispatch() {
	if s.reg == nil {
		return
	}
	s.obsDemuxCandidates = s.reg.Counter(obs.MHostDemuxCandidates, "Index entries visited by host demux, matches included.")
	s.obsDeliveries = s.reg.Counter(obs.MDeliveries, "Events handed to subscription handlers.")
	s.obsFalsePositives = s.reg.Counter(obs.MFalsePositives, "Deliveries not matching the receiving subscription exactly (dz truncation, Section 6.4).")
	s.obsDeliveryLatency = s.reg.Histogram(obs.MDeliveryLatency, "End-to-end publish-to-delivery latency (simulated time).", obs.DefaultLatencyBuckets...)
	s.lat = obs.NewDeliveryLatency(0)
	s.lat.Attach(s.reg)
}

// Metrics returns a snapshot of every registered metric. The zero
// snapshot without WithObservability.
func (s *System) Metrics() MetricsSnapshot {
	if s.reg == nil {
		return MetricsSnapshot{}
	}
	return s.reg.Snapshot()
}

// Traces returns the recorded control-plane spans, oldest first; nil
// without WithObservability.
func (s *System) Traces() []*TraceSpan {
	if s.tracer == nil {
		return nil
	}
	return s.tracer.Spans()
}

// TraceByID returns every recorded span of one distributed trace, oldest
// first — a publish and all the deliveries it caused, across the process
// boundary when the publish came over the wire. Nil without
// WithObservability or for an unknown id.
func (s *System) TraceByID(id uint64) []*TraceSpan {
	if s.tracer == nil {
		return nil
	}
	return s.tracer.SpansByTrace(id)
}

// DeliveryLatencyReport distills the delivery-latency instrument family:
// the headline end-to-end simulated-latency histogram, its estimated
// percentiles, the per-tree and per-partition breakdowns, hop counts,
// wall-clock latency for stamped publishes, and the retained slowest
// deliveries. The zero report without WithObservability.
type DeliveryLatencyReport struct {
	// Count and Sum aggregate the end-to-end simulated latency histogram.
	Count uint64
	Sum   time.Duration
	// P50/P95/P99 are interpolated from the histogram buckets.
	P50, P95, P99 time.Duration
	// ByTree and ByPartition break the same latency down by dissemination
	// tree and by publisher partition (label → snapshot).
	ByTree      map[string]*HistogramSnapshot
	ByPartition map[string]*HistogramSnapshot
	// Hops counts switch hops per delivered event (count-unit buckets).
	Hops *HistogramSnapshot
	// Wall is the wall-clock publish→delivery histogram for stamped
	// publishes; across machines it includes clock skew.
	Wall *HistogramSnapshot
	// Slowest holds the retained tail samples, slowest first.
	Slowest []DeliverySample
}

// DeliveryLatency reports the current delivery-latency accounting. Its
// histograms are read from the registry snapshot that Metrics and /metrics
// read too.
func (s *System) DeliveryLatency() DeliveryLatencyReport {
	snap := s.Metrics()
	r := DeliveryLatencyReport{
		ByTree:      snap.Histograms(obs.MDeliveryLatencyByTree),
		ByPartition: snap.Histograms(obs.MDeliveryLatencyByPartition),
		Hops:        snap.Histograms(obs.MDeliveryHops)[""],
		Wall:        snap.Histograms(obs.MDeliveryWallLatency)[""],
		Slowest:     s.lat.Slowest(),
	}
	if h := snap.Histograms(obs.MDeliveryLatency)[""]; h != nil {
		r.Count, r.Sum = h.Count, h.Sum
		r.P50 = h.Quantile(0.50)
		r.P95 = h.Quantile(0.95)
		r.P99 = h.Quantile(0.99)
	}
	return r
}

// systemHealth adapts the deployment's health to the operational endpoint:
// /healthz degrades while any switch is quarantined, and /readyz follows
// System.ready and is false as well while a switch is quarantined (its flows
// may be missing). It reads only published state, never a controller.
type systemHealth struct{ s *System }

func (h systemHealth) DegradedSwitches() []string {
	ds := h.s.fab.DegradedSwitches()
	out := make([]string, len(ds))
	for i, d := range ds {
		out[i] = strconv.Itoa(int(d.Sw))
	}
	return out
}

func (h systemHealth) Ready() bool {
	return h.s.ready.Load() && len(h.s.fab.DegradedSwitches()) == 0
}

// ObsHandler returns the operational HTTP handler (/metrics, /healthz,
// /readyz, /traces, /debug/pprof/*). It works — with empty metrics and
// traces — even without WithObservability, so health stays inspectable.
func (s *System) ObsHandler() http.Handler {
	return obs.Handler(s.reg, s.tracer, systemHealth{s: s})
}

// ServeObservability binds the operational endpoint on addr (e.g.
// ":9090", or "127.0.0.1:0" for an ephemeral port) and serves it in the
// background; close the returned server when done. The endpoint reads only
// state published for other goroutines (obs instruments, the ready flag, the
// quarantine sets), so it is safe alongside the goroutine driving the System.
func (s *System) ServeObservability(addr string) (*ObsServer, error) {
	return obs.Serve(addr, s.reg, s.tracer, systemHealth{s: s})
}
