package pleroma

import (
	"context"
	"io"
	"log/slog"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"pleroma/internal/obs"
	"pleroma/internal/wire"
)

// obsFixture builds an instrumented testbed system with one publisher and
// one subscriber and runs a few publications through it.
func obsFixture(t *testing.T, opts ...Option) (*System, *Publisher) {
	t.Helper()
	sch, err := NewSchema(Attribute{Name: "v", Bits: 10})
	if err != nil {
		t.Fatal(err)
	}
	sys, err := NewSystem(sch, append([]Option{WithObservability(0)}, opts...)...)
	if err != nil {
		t.Fatal(err)
	}
	hosts := sys.Hosts()
	pub, err := sys.NewPublisher("p", hosts[0])
	if err != nil {
		t.Fatal(err)
	}
	if err := pub.Advertise(NewFilter()); err != nil {
		t.Fatal(err)
	}
	if err := sys.Subscribe("s", hosts[7], NewFilter(), func(Delivery) {}); err != nil {
		t.Fatal(err)
	}
	return sys, pub
}

func TestSystemMetricsSnapshot(t *testing.T) {
	sys, pub := obsFixture(t)
	for i := 0; i < 3; i++ {
		if err := pub.Publish(uint32(100 * i)); err != nil {
			t.Fatal(err)
		}
	}
	sys.Run()

	snap := sys.Metrics()
	if got := snap.Total(obs.MRequests); got != 2 { // advertise + subscribe
		t.Errorf("requests total = %v, want 2", got)
	}
	if got, ok := snap.Counter(obs.MRequests, "advertise"); !ok || got != 1 {
		t.Errorf("advertise requests = %v (ok=%v), want 1", got, ok)
	}
	if got := snap.Total(obs.MDeliveries); got != 3 {
		t.Errorf("deliveries = %v, want 3", got)
	}
	if got := snap.Total(obs.MFlowMods); got == 0 {
		t.Error("no FlowMods counted")
	}
	if got := snap.Total(obs.MReconfigCases); got == 0 {
		t.Error("no Algorithm-1 cases counted")
	}
	if got := snap.Total(obs.MLinkPackets); got == 0 {
		t.Error("no link packets counted")
	}
	// Occupancy gauges must agree with the data plane's ground truth.
	var occ float64
	for _, f := range snap.Families {
		if f.Name == obs.MFlowTableOccupancy {
			for _, smp := range f.Samples {
				occ += smp.Value
			}
		}
	}
	if occ == 0 {
		t.Error("flow-table occupancy all zero with installed flows")
	}

	// The facade Stats view and the registry must agree.
	st := sys.Stats()
	if got := snap.Total(obs.MDeliveries); got != float64(st.Deliveries) {
		t.Errorf("registry deliveries %v != Stats %d", got, st.Deliveries)
	}
}

func TestSystemMetricsDisabled(t *testing.T) {
	sch, err := NewSchema(Attribute{Name: "v", Bits: 10})
	if err != nil {
		t.Fatal(err)
	}
	sys, err := NewSystem(sch)
	if err != nil {
		t.Fatal(err)
	}
	if snap := sys.Metrics(); len(snap.Families) != 0 {
		t.Errorf("disabled system exported %d families", len(snap.Families))
	}
	if tr := sys.Traces(); tr != nil {
		t.Errorf("disabled system recorded traces: %v", tr)
	}
	// The handler still answers health probes.
	srv, err := sys.ServeObservability("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	resp, err := http.Get("http://" + srv.Addr() + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("/healthz = %d, want 200", resp.StatusCode)
	}
}

func TestSystemTraces(t *testing.T) {
	sys, pub := obsFixture(t)
	if err := pub.Publish(1); err != nil {
		t.Fatal(err)
	}
	sys.Run()

	spans := sys.Traces()
	if len(spans) < 2 {
		t.Fatalf("want >=2 spans (advertise, subscribe), got %d", len(spans))
	}
	ops := make(map[string]bool)
	for _, sp := range spans {
		ops[sp.Op] = true
	}
	if !ops["advertise"] || !ops["subscribe"] {
		t.Errorf("span ops = %v, want advertise and subscribe", ops)
	}
}

func TestObservabilityEndpoint(t *testing.T) {
	sys, pub := obsFixture(t)
	if err := pub.Publish(1); err != nil {
		t.Fatal(err)
	}
	sys.Run()

	srv, err := sys.ServeObservability("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	get := func(path string) (int, string) {
		t.Helper()
		resp, err := http.Get("http://" + srv.Addr() + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatalf("read %s: %v", path, err)
		}
		return resp.StatusCode, string(body)
	}

	code, body := get("/metrics")
	if code != http.StatusOK {
		t.Fatalf("/metrics = %d", code)
	}
	for _, want := range []string{
		obs.MRequests, obs.MFlowMods, obs.MReconfigCases,
		obs.MFlowTableOccupancy, obs.MReconfigDuration + "_bucket",
		obs.MDeliveries, obs.MLinkPackets,
	} {
		if !strings.Contains(body, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
	if code, _ := get("/healthz"); code != http.StatusOK {
		t.Errorf("/healthz = %d, want 200", code)
	}
	if code, _ := get("/readyz"); code != http.StatusOK {
		t.Errorf("/readyz = %d, want 200", code)
	}
	code, body = get("/traces")
	if code != http.StatusOK || !strings.Contains(body, "op=advertise") {
		t.Errorf("/traces = %d, body %q", code, body)
	}
	if code, _ := get("/debug/pprof/cmdline"); code != http.StatusOK {
		t.Errorf("/debug/pprof/cmdline = %d, want 200", code)
	}
}

// TestHealthzDegradesOnQuarantine drives a switch into quarantine via
// injected southbound faults and watches /healthz and /readyz flip to 503
// and back: a deployment with a quarantined switch is not ready.
func TestHealthzDegradesOnQuarantine(t *testing.T) {
	sch, err := NewSchema(Attribute{Name: "v", Bits: 10})
	if err != nil {
		t.Fatal(err)
	}
	sys, err := NewSystem(sch,
		WithObservability(0),
		WithSouthboundFaults(FaultConfig{FailCalls: []uint64{1, 2, 3, 4, 5, 6, 7, 8}, DownCalls: 0}),
	)
	if err != nil {
		t.Fatal(err)
	}
	hosts := sys.Hosts()
	pub, err := sys.NewPublisher("p", hosts[0])
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.Subscribe("s", hosts[7], NewFilter(), nil); err != nil {
		t.Fatal(err)
	}
	_ = pub.Advertise(NewFilter()) // scripted faults quarantine switches

	if len(sys.Degraded()) == 0 {
		t.Fatal("scripted faults did not quarantine any switch")
	}
	srv, err := sys.ServeObservability("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	resp, err := http.Get("http://" + srv.Addr() + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("/healthz with quarantined switches = %d, want 503", resp.StatusCode)
	}
	if !strings.Contains(string(body), "degraded switches") {
		t.Errorf("/healthz body %q", body)
	}
	readyz := func() int {
		t.Helper()
		resp, err := http.Get("http://" + srv.Addr() + "/readyz")
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}
	if code := readyz(); code != http.StatusServiceUnavailable {
		t.Errorf("/readyz with quarantined switches = %d, want 503", code)
	}

	snap := sys.Metrics()
	if got := snap.Total(obs.MQuarantines); got == 0 {
		t.Error("quarantine counter is zero")
	}
	if got := snap.Total(obs.MInjectedFaults); got == 0 {
		t.Error("injected-fault counter is zero")
	}

	// Heal and resync; health recovers.
	sys.HealFaults()
	if _, ok := sys.ResyncUntilHealthy(5); !ok {
		t.Fatal("resync did not converge")
	}
	resp, err = http.Get("http://" + srv.Addr() + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("/healthz after resync = %d, want 200", resp.StatusCode)
	}
	if code := readyz(); code != http.StatusOK {
		t.Errorf("/readyz after resync = %d, want 200", code)
	}
	if got := sys.Metrics().Total(obs.MResyncs); got == 0 {
		t.Error("resync counter is zero after resync")
	}
}

// TestInterdomainObservability checks the fabric counters reach the
// registry in a partitioned deployment.
func TestInterdomainObservability(t *testing.T) {
	sch, err := NewSchema(Attribute{Name: "v", Bits: 10})
	if err != nil {
		t.Fatal(err)
	}
	sys, err := NewSystem(sch, WithObservability(0), WithTopology(TopologyRing20), WithPartitions(4))
	if err != nil {
		t.Fatal(err)
	}
	hosts := sys.Hosts()
	pub, err := sys.NewPublisher("p", hosts[0])
	if err != nil {
		t.Fatal(err)
	}
	if err := pub.Advertise(NewFilter()); err != nil {
		t.Fatal(err)
	}
	if err := sys.Subscribe("s", hosts[len(hosts)-1], NewFilter(), nil); err != nil {
		t.Fatal(err)
	}
	snap := sys.Metrics()
	got := snap.Total(obs.MInterdomainMessages)
	if got == 0 {
		t.Fatal("no interdomain messages counted")
	}
	if want := sys.fab.Stats().MessagesSent; got != float64(want) {
		t.Errorf("registry interdomain messages %v != fabric stats %d", got, want)
	}
}

// readyzProbe is a trace sink that asks /readyz, on the goroutine that ends
// the span, whenever a span of the watched op completes — an observer placed
// inside whatever control operation emits that span.
type readyzProbe struct {
	slog.Handler // a text handler over io.Discard: everything but Handle
	op           string
	handler      func() http.Handler
	codes        []int
}

func (p *readyzProbe) Handle(_ context.Context, r slog.Record) error {
	r.Attrs(func(a slog.Attr) bool {
		if a.Key == "op" && a.Value.String() == p.op {
			rec := httptest.NewRecorder()
			p.handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/readyz", nil))
			p.codes = append(p.codes, rec.Code)
		}
		return true
	})
	return nil
}

// TestReadyzFollowsLifecycle: /readyz is 200 on a constructed system, 503
// when asked from inside a Restore, a Failover or a Recover (the resync span
// each of them ends while the controller is being swapped), 200 again once
// they return, and 503 for good after Close. /healthz is not involved.
func TestReadyzFollowsLifecycle(t *testing.T) {
	var sys *System
	probe := &readyzProbe{
		Handler: slog.NewTextHandler(io.Discard, nil),
		op:      "resync",
		handler: func() http.Handler { return sys.ObsHandler() },
	}
	sys, pub := obsFixture(t, WithJournal(), WithTraceLog(slog.New(probe)), WithListener("127.0.0.1:0"))
	readyz := func() int {
		rec := httptest.NewRecorder()
		sys.ObsHandler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/readyz", nil))
		return rec.Code
	}
	if code := readyz(); code != http.StatusOK {
		t.Fatalf("/readyz on a constructed system = %d, want 200", code)
	}
	snap, err := sys.Snapshot(0)
	if err != nil {
		t.Fatal(err)
	}
	swaps := []struct {
		name string
		run  func() error
	}{
		{"Restore", func() error { return sys.Restore(0, snap) }},
		{"Failover", func() error { _, err := sys.Failover(0); return err }},
		{"Recover", func() error { _, err := sys.Recover(0, snap); return err }},
	}
	for _, sw := range swaps {
		probe.codes = nil
		if err := sw.run(); err != nil {
			t.Fatalf("%s: %v", sw.name, err)
		}
		if len(probe.codes) == 0 {
			t.Fatalf("%s ended no resync span: the probe never ran inside it", sw.name)
		}
		for _, code := range probe.codes {
			if code != http.StatusServiceUnavailable {
				t.Errorf("/readyz from inside %s = %d, want 503", sw.name, code)
			}
		}
		if code := readyz(); code != http.StatusOK {
			t.Errorf("/readyz after %s = %d, want 200", sw.name, code)
		}
	}
	// The swapped-in controller serves: readiness did not come back early.
	if err := pub.Publish(7); err != nil {
		t.Fatal(err)
	}
	sys.Run()
	if code := readyz(); code != http.StatusOK {
		t.Fatalf("/readyz before draining = %d, want 200", code)
	}
	// Draining: a client that reads its goodbye frame already finds /readyz
	// 503, and a controller swap while draining does not bring it back.
	conn, err := net.Dial("tcp", sys.ListenAddr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	hello, err := wire.EncodeHello(wire.Hello{ID: "drain-probe"})
	if err != nil {
		t.Fatal(err)
	}
	frame, err := wire.AppendFrame(nil, wire.Frame{Kind: wire.KindHello, Corr: 1, Payload: hello})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := conn.Write(frame); err != nil {
		t.Fatal(err)
	}
	if f, _, err := wire.ReadFrame(conn, nil); err != nil || f.Kind != wire.KindHelloOK {
		t.Fatalf("hello: got %v, %v", f.Kind, err)
	}
	atGoodbye := make(chan int, 1)
	go func() {
		for {
			f, _, err := wire.ReadFrame(conn, nil)
			if err != nil {
				atGoodbye <- -1
				return
			}
			if f.Kind == wire.KindGoodbye {
				atGoodbye <- readyz()
				return
			}
		}
	}()
	sys.StopListener()
	if code := <-atGoodbye; code != http.StatusServiceUnavailable {
		t.Fatalf("/readyz at the goodbye frame = %d, want 503 (-1: connection closed without one)", code)
	}
	if code := readyz(); code != http.StatusServiceUnavailable {
		t.Fatalf("/readyz after StopListener = %d, want 503", code)
	}
	if err := sys.Restore(0, snap); err != nil {
		t.Fatal(err)
	}
	if code := readyz(); code != http.StatusServiceUnavailable {
		t.Fatalf("/readyz after a Restore while draining = %d, want 503", code)
	}
	sys.Close()
	if code := readyz(); code != http.StatusServiceUnavailable {
		t.Fatalf("/readyz after Close = %d, want 503", code)
	}
	rec := httptest.NewRecorder()
	sys.ObsHandler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/healthz", nil))
	if rec.Code != http.StatusOK {
		t.Errorf("/healthz after Close = %d, want 200 (no switch is quarantined)", rec.Code)
	}
}

// TestReadyzWaitsForListener: with WithListener the system is ready only
// once it accepts — a client can dial the moment /readyz says 200.
func TestReadyzWaitsForListener(t *testing.T) {
	sch, err := NewSchema(Attribute{Name: "v", Bits: 10})
	if err != nil {
		t.Fatal(err)
	}
	sys, err := NewSystem(sch, WithListener("127.0.0.1:0"))
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
	if !sys.ready.Load() {
		t.Fatal("a listening system is not ready")
	}
	c, err := Dial(sys.ListenAddr())
	if err != nil {
		t.Fatalf("ready, but not accepting: %v", err)
	}
	c.Close()
}
