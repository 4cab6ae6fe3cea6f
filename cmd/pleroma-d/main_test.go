package main

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"pleroma"
)

func TestParseSchema(t *testing.T) {
	attrs, err := parseSchema("price:10,volume:4")
	if err != nil {
		t.Fatal(err)
	}
	if len(attrs) != 2 || attrs[0].Name != "price" || attrs[0].Bits != 10 || attrs[1].Bits != 4 {
		t.Fatalf("parsed %+v", attrs)
	}
	for _, bad := range []string{"price", "price:x", ""} {
		if _, err := parseSchema(bad); err == nil {
			t.Errorf("parseSchema(%q) accepted", bad)
		}
	}
}

// syncBuffer lets the test poll output written by the daemon goroutine.
type syncBuffer struct {
	mu sync.Mutex
	b  bytes.Buffer
}

func (s *syncBuffer) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.Write(p)
}

func (s *syncBuffer) String() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.String()
}

func waitFor(t *testing.T, buf *syncBuffer, substr string) string {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if out := buf.String(); strings.Contains(out, substr) {
			return out
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("daemon output never contained %q; got:\n%s", substr, buf.String())
	return ""
}

var listenRE = regexp.MustCompile(`listening on (\S+)`)

// startDaemon boots run() on an ephemeral port and returns the bound
// address plus a shutdown func that signals SIGTERM and waits for exit.
func startDaemon(t *testing.T, buf *syncBuffer, extra ...string) (string, func()) {
	t.Helper()
	stop := make(chan os.Signal, 1)
	done := make(chan error, 1)
	args := append([]string{"-listen", "127.0.0.1:0"}, extra...)
	go func() { done <- run(args, buf, stop) }()
	out := waitFor(t, buf, "listening on ")
	m := listenRE.FindStringSubmatch(out)
	if m == nil {
		t.Fatalf("no address in daemon output:\n%s", out)
	}
	var once sync.Once
	shutdown := func() {
		once.Do(func() {
			stop <- syscall.SIGTERM
			if err := <-done; err != nil {
				t.Errorf("daemon exited with error: %v", err)
			}
		})
	}
	t.Cleanup(shutdown)
	return m[1], shutdown
}

var obsRE = regexp.MustCompile(`observability on http://(\S+)`)

// TestDaemonObsEndpoints boots a daemon with -obs-addr and checks the full
// operational surface: /metrics, /readyz, /traces (with trace filtering),
// and /debug/pprof — plus that a traced client publish shows up in both
// the latency metrics and the trace ring.
func TestDaemonObsEndpoints(t *testing.T) {
	var buf syncBuffer
	addr, _ := startDaemon(t, &buf, "-obs-addr", "127.0.0.1:0")
	out := waitFor(t, &buf, "observability on ")
	m := obsRE.FindStringSubmatch(out)
	if m == nil {
		t.Fatalf("no obs address in daemon output:\n%s", out)
	}
	base := "http://" + m[1]

	c, err := pleroma.Dial(addr, pleroma.WithDialObservability(0))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	hosts := c.Hosts()
	if err := c.Advertise("p", hosts[0], pleroma.NewFilter()); err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	var traceID uint64
	if err := c.Subscribe("s", hosts[1], pleroma.NewFilter(), func(d pleroma.Delivery) {
		mu.Lock()
		traceID = d.TraceID
		mu.Unlock()
	}); err != nil {
		t.Fatal(err)
	}
	if err := c.Publish("p", 1, 2); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Run(); err != nil {
		t.Fatal(err)
	}
	if err := c.Sync(); err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	tid := traceID
	mu.Unlock()
	if tid == 0 {
		t.Fatal("delivery of a traced publish carried no trace id")
	}

	get := func(path string) (int, string) {
		t.Helper()
		resp, err := http.Get(base + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		b, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return resp.StatusCode, string(b)
	}

	code, body := get("/metrics")
	if code != http.StatusOK {
		t.Fatalf("/metrics = %d", code)
	}
	for _, want := range []string{
		"pleroma_deliveries_total 1",
		"pleroma_delivery_latency_tree_seconds",
		"pleroma_delivery_hops",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
	if code, _ := get("/readyz"); code != http.StatusOK {
		t.Fatalf("/readyz = %d", code)
	}
	code, body = get(fmt.Sprintf("/traces?trace=%d", tid))
	if code != http.StatusOK {
		t.Fatalf("/traces = %d", code)
	}
	if !strings.Contains(body, "op=publish") || !strings.Contains(body, "op=deliver") {
		t.Fatalf("daemon trace %d missing publish/deliver spans:\n%s", tid, body)
	}
	if code, body := get("/debug/pprof/cmdline"); code != http.StatusOK || body == "" {
		t.Fatalf("/debug/pprof/cmdline = %d", code)
	}

	// The dialing client holds the other half of the same trace.
	spans := c.TraceByID(tid)
	if len(spans) < 2 {
		t.Fatalf("client has %d spans for trace %d, want publish+recv", len(spans), tid)
	}
}

func TestDaemonServesAndRestartsWithState(t *testing.T) {
	state := t.TempDir()
	var buf1 syncBuffer
	addr, shutdown := startDaemon(t, &buf1, "-state", state)

	c, err := pleroma.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	hosts := c.Hosts()
	if len(hosts) == 0 {
		t.Fatal("daemon reported no hosts")
	}
	if err := c.Advertise("pub1", hosts[0], pleroma.NewFilter()); err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	var got int
	sub := func(d pleroma.Delivery) { mu.Lock(); got++; mu.Unlock() }
	if err := c.Subscribe("sub1", hosts[1], pleroma.NewFilter().Range("price", 0, 511), sub); err != nil {
		t.Fatal(err)
	}
	if err := c.Publish("pub1", 100, 200); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Run(); err != nil {
		t.Fatal(err)
	}
	if err := c.Sync(); err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	n := got
	mu.Unlock()
	if n != 1 {
		t.Fatalf("subscriber got %d deliveries, want 1", n)
	}
	c.Close()

	shutdown() // graceful: drains, snapshots every partition

	if _, err := os.Stat(filepath.Join(state, "part-0.snap")); err != nil {
		t.Fatalf("shutdown left no snapshot: %v", err)
	}

	// Reboot from the same state directory: the control plane is rebuilt
	// from snapshot + journal before serving.
	var buf2 syncBuffer
	addr2, _ := startDaemon(t, &buf2, "-state", state)
	waitFor(t, &buf2, "recovered partition 0")

	c2, err := pleroma.Dial(addr2)
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	d, err := c2.StateDigest()
	if err != nil {
		t.Fatal(err)
	}
	if len(d) == 0 {
		t.Fatal("recovered daemon served an empty state digest")
	}
	// The restored deployment still serves new work end to end.
	if err := c2.Advertise("pub2", hosts[0], pleroma.NewFilter()); err != nil {
		t.Fatal(err)
	}
	if err := c2.Publish("pub2", 1, 2); err != nil {
		t.Fatal(err)
	}
	if _, err := c2.Run(); err != nil {
		t.Fatal(err)
	}
}
