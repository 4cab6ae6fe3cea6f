package pleroma

import (
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"time"

	"pleroma/internal/obs"
	"pleroma/internal/space"
	"pleroma/internal/transport"
	"pleroma/internal/wire"
)

// This file is the facade's networked deployment surface. WithListener
// serves a System's control ops and publishes over TCP
// (internal/transport), so publisher and subscriber processes can live
// outside the daemon's process. Dial returns the matching thin client. The
// switches are not served: the system's controllers program them in
// process and are their only writers. The emulator stays the default
// backend behind the same interfaces: a System without WithListener
// behaves exactly as before.

// WithListener makes the system serve its control surface on a TCP
// address (e.g. "127.0.0.1:0"); ListenAddr reports the bound address.
// Remote clients (Dial, cmd/pleroma-pub, cmd/pleroma-sub) then drive the
// same deployment an in-process caller would.
func WithListener(addr string) Option {
	return func(c *config) { c.listenAddr = addr }
}

// TransportOptions tunes the TCP data path on either end: read/write
// deadlines, the async publish window, and publish coalescing thresholds.
// The zero value selects the transport defaults.
type TransportOptions = transport.Options

// WithTransport tunes the listener's transport data path (read and write
// deadlines). Meaningful only together with WithListener.
func WithTransport(o TransportOptions) Option {
	return func(c *config) { c.transport = o }
}

// WithJournalDir enables controller HA like WithJournal, but with every
// partition journal file-backed under dir (core.OpenFileJournal), so control
// state survives a daemon restart: on boot, Recover rebuilds each
// partition from an optional snapshot plus the journal suffix on disk.
func WithJournalDir(dir string) Option {
	return func(c *config) {
		c.journal = true
		c.journalDir = dir
	}
}

// JournalPath names partition p's journal file under dir — the layout
// WithJournalDir uses.
func JournalPath(dir string, p int) string {
	return filepath.Join(dir, fmt.Sprintf("part-%d.journal", p))
}

// SnapshotPath names partition p's snapshot file under dir — the
// convention pleroma-d uses for restart-with-state.
func SnapshotPath(dir string, p int) string {
	return filepath.Join(dir, fmt.Sprintf("part-%d.snap", p))
}

// StopListener gracefully stops serving the TCP surface: no new
// connections are accepted, in-flight requests finish, queued deliveries
// flush, and every client receives a goodbye frame. Idempotent; Close
// implies it. A daemon shutting down calls this before its final
// Snapshot so no request races the serialization. A listener does not
// restart, so a system that had one is draining from here on: /readyz is 503
// before the first goodbye frame leaves, and stays so.
func (s *System) StopListener() {
	if s.server != nil {
		s.ready.Store(false)
		s.server.Stop()
	}
}

// ListenAddr returns the bound listener address ("" without
// WithListener).
func (s *System) ListenAddr() string {
	if s.lnAddr == nil {
		return ""
	}
	return s.lnAddr.String()
}

// StateDigest returns the deterministic digest of the whole control
// plane: the per-partition snapshot digests concatenated in ascending
// partition order. Two systems that processed equivalent control
// operations produce identical digests, which is how the loopback
// equivalence and reconnect tests compare an in-process run against a
// TCP-deployed one.
func (s *System) StateDigest() ([]byte, error) {
	var out []byte
	for _, p := range s.fab.Partitions() {
		d, err := s.fab.DigestPartition(p)
		if err != nil {
			return nil, err
		}
		out = append(out, d...)
	}
	return out, nil
}

// Recover rebuilds the partition's controller from a persisted snapshot
// (nil for journal-only recovery) plus the partition journal's suffix —
// the daemon's restart-with-state path. Requires WithJournal or
// WithJournalDir.
func (s *System) Recover(partition int, snap []byte) (FailoverReport, error) {
	if !s.cfg.journal {
		return FailoverReport{}, fmt.Errorf("pleroma: Recover requires WithJournal or WithJournalDir")
	}
	defer s.unready()()
	return s.fab.RecoverPartition(partition, snap)
}

// StartListener begins serving the TCP surface on addr for a System built
// without WithListener and returns the bound address. This is the
// recovery-safe construction order for a daemon: build the System,
// Recover every partition, then open the listener — no client request can
// race the controller swap. Serving an already-listening System is an
// error.
func (s *System) StartListener(addr string) (string, error) {
	if s.server != nil {
		return "", fmt.Errorf("pleroma: listener already started on %s", s.ListenAddr())
	}
	if err := s.startListener(addr); err != nil {
		return "", err
	}
	return s.ListenAddr(), nil
}

// PersistSnapshot durably persists partition's snapshot under dir and
// only then compacts the partition journal. The write is crash-safe:
// snapshot bytes go to a temp file which is fsynced, renamed over
// SnapshotPath(dir, partition), and the directory fsynced, before a
// single journal record is truncated — so at every instant either the
// journal still holds the acknowledged ops or the snapshot covering them
// is durable. Requires WithJournal or WithJournalDir.
func (s *System) PersistSnapshot(partition int, dir string) error {
	if !s.cfg.journal {
		return fmt.Errorf("pleroma: PersistSnapshot requires WithJournal or WithJournalDir")
	}
	snap, seq, err := s.fab.EncodeSnapshotPartition(partition)
	if err != nil {
		return err
	}
	path := SnapshotPath(dir, partition)
	tmp := path + ".tmp"
	f, err := os.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(snap); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return err
	}
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return err
	}
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	if err := d.Sync(); err != nil {
		d.Close()
		return err
	}
	d.Close()
	return s.fab.CompactPartition(partition, seq)
}

// startListener builds the transport backend and starts serving.
func (s *System) startListener(addr string) error {
	s.enableStamping()
	opts := []transport.ServerOption{transport.WithServerOptions(s.cfg.transport)}
	if s.reg != nil {
		opts = append(opts, transport.WithServerObservability(s.reg))
	}
	if s.tracer != nil {
		opts = append(opts, transport.WithServerTracer(s.tracer))
	}
	srv := transport.NewServer(&netBackend{sys: s}, opts...)
	a, err := srv.Listen(addr)
	if err != nil {
		return err
	}
	s.server = srv
	s.lnAddr = a
	return nil
}

// rangesFilter is the Filter of decoded wire ranges, built in one map
// (Filter.Range would copy it per range).
func rangesFilter(ranges []wire.Range) Filter {
	f := Filter{Ranges: make(map[string][2]uint32, len(ranges))}
	for _, r := range ranges {
		f.Ranges[r.Attr] = [2]uint32{r.Lo, r.Hi}
	}
	return f
}

// netBackend adapts a System as the transport Backend. The transport
// server serializes calls, matching the System's single-goroutine
// contract. A subscription's handler is the server's sink itself, which
// appends each delivery to the owning connection's batch (safe from shard
// worker goroutines — the sink never blocks). The server flushes the
// batches before the call's response; handlers fire only while a backend
// call runs the System, so none misses its flush.
type netBackend struct {
	sys *System
}

func (b *netBackend) Info() transport.Info {
	hosts := b.sys.Hosts()
	info := transport.Info{Hosts: make([]uint32, len(hosts))}
	for i, h := range hosts {
		info.Hosts[i] = uint32(h)
	}
	for _, p := range b.sys.fab.Partitions() {
		info.Partitions = append(info.Partitions, int32(p))
	}
	return info
}

// Control hands a request to the facade's registration rule (see
// System.Subscribe); a reconnecting client's replay is an identical
// re-registration there, which rebinds its subscriptions to deliver.
func (b *netBackend) Control(req wire.ControlReq, deliver func(Delivery)) error {
	id, host, f := req.ID, HostID(req.Host), rangesFilter(req.Ranges)
	switch req.Op {
	case wire.OpAdvertise:
		return b.sys.advertise(id, host, f)
	case wire.OpSubscribe:
		if deliver == nil {
			return fmt.Errorf("pleroma: subscribe without a delivery sink")
		}
		return b.sys.Subscribe(id, host, f, deliver)
	case wire.OpUnsubscribe:
		return b.sys.Unsubscribe(id)
	case wire.OpUnadvertise:
		return b.sys.unadvertise(id)
	}
	return fmt.Errorf("pleroma: unknown control op %q", req.Op)
}

func (b *netBackend) Publish(req wire.PublishReq) error {
	p, ok := b.sys.pubs[req.ID]
	if !ok || !p.advertised {
		return fmt.Errorf("%w: %q", ErrNotAdvertised, req.ID)
	}
	// The client's transport retry is at-least-once: a connection lost
	// after the backend applied a publish but before the OK arrived makes
	// the client re-send the same request. Sequence numbers (per client,
	// arriving strictly increasing per publisher) make the retry idempotent.
	if req.Seq != 0 && req.Seq <= p.lastPubSeq {
		return nil // duplicate of an already-applied publish
	}
	// The decoded values are the backend's (transport.Backend.Publish), so
	// the events keep them as they are: one copy per frame, made by the
	// decoder. The request's trace context (zero for an untraced publish)
	// rides the publication stamp so every delivery joins the client's
	// trace; the whole batch shares one publish span.
	if err := p.publishBatchTraced(req.Trace, len(req.Events), func(i int) Event { return req.Events[i] }); err != nil {
		return err
	}
	if req.Seq != 0 {
		p.lastPubSeq = req.Seq
	}
	return nil
}

func (b *netBackend) Run() (time.Duration, error) { return b.sys.Run(), nil }

func (b *netBackend) Digest() ([]byte, error) { return b.sys.StateDigest() }

// ParseFilter parses the CLI filter syntax "attr:lo-hi,attr:lo-hi"
// ("" yields the match-everything filter) used by cmd/pleroma-pub and
// cmd/pleroma-sub.
func ParseFilter(s string) (Filter, error) {
	f := NewFilter()
	if s == "" {
		return f, nil
	}
	for _, part := range strings.Split(s, ",") {
		attr, bounds, ok := strings.Cut(part, ":")
		if !ok {
			return Filter{}, fmt.Errorf("pleroma: filter term %q: want attr:lo-hi", part)
		}
		loStr, hiStr, ok := strings.Cut(bounds, "-")
		if !ok {
			return Filter{}, fmt.Errorf("pleroma: filter term %q: want attr:lo-hi", part)
		}
		lo, err := strconv.ParseUint(loStr, 10, 32)
		if err != nil {
			return Filter{}, fmt.Errorf("pleroma: filter term %q: %w", part, err)
		}
		hi, err := strconv.ParseUint(hiStr, 10, 32)
		if err != nil {
			return Filter{}, fmt.Errorf("pleroma: filter term %q: %w", part, err)
		}
		f = f.Range(attr, uint32(lo), uint32(hi))
	}
	return f, nil
}

// DialOption configures a Dial.
type DialOption func(*dialConfig)

type dialConfig struct {
	id        string
	retry     *RetryPolicy
	obs       bool
	traceCap  int
	transport *TransportOptions
}

// WithDialID names the client in its handshake (diagnostics only).
func WithDialID(id string) DialOption { return func(c *dialConfig) { c.id = id } }

// WithDialObservability gives the client its own metrics registry and
// tracer (traceCapacity spans, 0 for the default): transport counters,
// the client-side wall-clock delivery-latency histogram, and one
// distributed trace per publish, spanning this client, the daemon, and
// every delivery.
func WithDialObservability(traceCapacity int) DialOption {
	return func(c *dialConfig) {
		c.obs = true
		c.traceCap = traceCapacity
	}
}

// WithDialRetry sets the client's reconnect/backoff policy (default
// DefaultRetryPolicy). After a lost connection the client redials with
// capped exponential backoff, replays its advertisements and
// subscriptions, and then re-sends every request still in flight, in
// order; a request is sent at most MaxAttempts times. OpDeadline bounds a
// blocking call's whole wait, and a call that timed out is not sent again.
func WithDialRetry(p RetryPolicy) DialOption { return func(c *dialConfig) { c.retry = &p } }

// WithDialTransport tunes the client's transport data path: deadlines and
// the PublishAsync window and coalescing thresholds.
func WithDialTransport(o TransportOptions) DialOption {
	return func(c *dialConfig) { c.transport = &o }
}

// Client is a remote handle on a listening System (a pleroma-d daemon):
// the same advertise/subscribe/publish/run surface, spoken over TCP.
type Client struct {
	tc     *transport.Client
	reg    *obs.Registry
	tracer *obs.Tracer
}

// Dial connects to a daemon at addr.
func Dial(addr string, opts ...DialOption) (*Client, error) {
	cfg := dialConfig{id: "pleroma-client"}
	for _, opt := range opts {
		opt(&cfg)
	}
	topts := []transport.ClientOption{transport.WithClientID(cfg.id)}
	if cfg.retry != nil {
		topts = append(topts, transport.WithClientRetry(*cfg.retry))
	}
	if cfg.transport != nil {
		topts = append(topts, transport.WithClientOptions(*cfg.transport))
	}
	c := &Client{}
	if cfg.obs {
		cap := cfg.traceCap
		if cap <= 0 {
			cap = defaultTraceCapacity
		}
		c.reg = obs.NewRegistry()
		c.tracer = obs.NewTracer(cap)
		topts = append(topts,
			transport.WithClientObservability(c.reg),
			transport.WithClientTracer(c.tracer))
	}
	tc, err := transport.Dial(addr, topts...)
	if err != nil {
		return nil, err
	}
	c.tc = tc
	return c, nil
}

// Metrics snapshots the client's own registry (zero without
// WithDialObservability).
func (c *Client) Metrics() MetricsSnapshot {
	if c.reg == nil {
		return MetricsSnapshot{}
	}
	return c.reg.Snapshot()
}

// Traces returns the client's recorded spans, oldest first (nil without
// WithDialObservability).
func (c *Client) Traces() []*TraceSpan {
	if c.tracer == nil {
		return nil
	}
	return c.tracer.Spans()
}

// TraceByID returns the client-side spans of one distributed trace; the
// daemon holds the matching server-side spans under the same id.
func (c *Client) TraceByID(id uint64) []*TraceSpan {
	if c.tracer == nil {
		return nil
	}
	return c.tracer.SpansByTrace(id)
}

// Hosts returns the daemon deployment's end hosts.
func (c *Client) Hosts() []HostID {
	info := c.tc.Info()
	hosts := make([]HostID, len(info.Hosts))
	for i, h := range info.Hosts {
		hosts[i] = HostID(h)
	}
	return hosts
}

// Partitions returns the daemon deployment's partition ids.
func (c *Client) Partitions() []int {
	info := c.tc.Info()
	parts := make([]int, len(info.Partitions))
	for i, p := range info.Partitions {
		parts[i] = int(p)
	}
	return parts
}

// filterRanges renders a Filter as sorted wire ranges.
func filterRanges(f Filter) []wire.Range {
	out := make([]wire.Range, 0, len(f.Ranges))
	for a, r := range f.Ranges {
		out = append(out, wire.Range{Attr: a, Lo: r[0], Hi: r[1]})
	}
	slices.SortFunc(out, func(a, b wire.Range) int { return strings.Compare(a.Attr, b.Attr) })
	return out
}

// Advertise announces a publisher's region on a host.
func (c *Client) Advertise(id string, host HostID, f Filter) error {
	return c.tc.Advertise(id, uint32(host), filterRanges(f))
}

// Unadvertise withdraws an advertisement.
func (c *Client) Unadvertise(id string) error { return remoteErr(c.tc.Unadvertise(id)) }

// Subscribe registers a subscription; handler fires on the client's
// network reader goroutine for every delivered event.
func (c *Client) Subscribe(id string, host HostID, f Filter, handler func(Delivery)) error {
	return c.tc.Subscribe(id, uint32(host), filterRanges(f), handler)
}

// Unsubscribe withdraws a subscription.
func (c *Client) Unsubscribe(id string) error { return remoteErr(c.tc.Unsubscribe(id)) }

// Publish injects one event from the advertised publisher id.
func (c *Client) Publish(id string, values ...uint32) error {
	return remoteErr(c.tc.Publish(id, []space.Event{{Values: values}}))
}

// PublishBatch injects a burst of events in one request.
func (c *Client) PublishBatch(id string, tuples ...[]uint32) error {
	if len(tuples) == 0 {
		return nil
	}
	events := make([]space.Event, len(tuples))
	for i, vals := range tuples {
		events[i] = space.Event{Values: vals}
	}
	return remoteErr(c.tc.Publish(id, events))
}

// PublishAsync injects one event into the pipelined publish path: events
// coalesce into multi-event requests and up to a window of them stay in
// flight without waiting for acks. The values are copied before the call
// returns, so the caller may reuse them. It blocks only when the window is
// full (backpressure); failures are sticky and surface here, on Flush, or
// on AsyncErr. Call Flush before relying on the events being applied.
func (c *Client) PublishAsync(id string, values ...uint32) error {
	return remoteErr(c.tc.PublishAsync(id, []space.Event{{Values: values}}))
}

// PublishBatchAsync injects a burst of events into the pipelined publish
// path (see PublishAsync); the values are copied before the call returns.
func (c *Client) PublishBatchAsync(id string, tuples ...[]uint32) error {
	if len(tuples) == 0 {
		return nil
	}
	events := make([]space.Event, len(tuples))
	for i, vals := range tuples {
		events[i] = space.Event{Values: vals}
	}
	return remoteErr(c.tc.PublishAsync(id, events))
}

// Flush seals pending async batches and blocks until every pipelined
// publish is acked (nil) or the pipeline failed (the sticky error).
func (c *Client) Flush() error { return remoteErr(c.tc.Flush()) }

// AsyncErr returns the pipelined publish path's sticky error without
// blocking (nil while healthy).
func (c *Client) AsyncErr() error { return remoteErr(c.tc.Err()) }

// Run drains the daemon's pending simulated work and returns the final
// simulated time.
func (c *Client) Run() (time.Duration, error) { return c.tc.Run() }

// Sync blocks until every delivery the daemon queued for this client
// before the call has been received and dispatched to its handler.
func (c *Client) Sync() error { return c.tc.Sync() }

// StateDigest returns the daemon's control-plane digest (see
// System.StateDigest).
func (c *Client) StateDigest() ([]byte, error) { return c.tc.Digest() }

// Close disconnects from the daemon. Registrations persist server-side.
func (c *Client) Close() error { return c.tc.Close() }

// remoteSentinels are the facade errors a daemon's refusal can carry. An
// error frame holds only text, so the client finds them by their message.
var remoteSentinels = []error{ErrUnknownSubscription, ErrNotAdvertised}

// remoteErr makes errors.Is hold over TCP as it does in process: an error
// whose text carries a sentinel's message also unwraps to that sentinel.
// Its message is unchanged.
func remoteErr(err error) error {
	if err == nil {
		return nil
	}
	for _, sentinel := range remoteSentinels {
		if strings.Contains(err.Error(), sentinel.Error()) {
			return remoteError{err, sentinel}
		}
	}
	return err
}

// remoteError is a transport error that also matches the sentinel its
// text carries.
type remoteError struct{ err, sentinel error }

func (e remoteError) Error() string   { return e.err.Error() }
func (e remoteError) Unwrap() []error { return []error{e.err, e.sentinel} }
