package main

import (
	"bytes"
	"fmt"
	"math"
	"sync/atomic"
	"time"

	"pleroma"
	"pleroma/internal/obs"
)

// sizes are the workload dimensions that differ between the full and the
// -smoke configuration.
type sizes struct {
	deployed    int // ctl-churn: subscriptions held while churning
	subsPerHost int // inproc-fanout: subscriptions on each of 12 hosts
}

var (
	fullSizes  = sizes{deployed: 5000, subsPerHost: 512}
	smokeSizes = sizes{deployed: 200, subsPerHost: 16}
)

const (
	pipeChunk   = 1024 // tcp-pipe: events between barriers
	fanoutBatch = 16   // inproc-fanout: events per PublishBatch
	fanoutPubs  = 4    // inproc-fanout and ctl-churn: advertising hosts[0..3]
	subHosts    = 12   // inproc-fanout and ctl-churn: subscribers on hosts[4..15]
)

// workload is one closed loop. setup builds a fresh deployment (its wall
// time is setup_s); step issues one unit of work and waits until the
// system has completed it; verify runs the checks that need the whole
// window; failures counts every output that was wrong.
type workload interface {
	setup() error
	step() (latency time.Duration, err error)
	opsPerStep() int
	// demuxWidth is the number of subscriptions on each subscribing host
	// (0 when no events flow): the candidates the host demultiplexer scans
	// per received packet.
	demuxWidth() int
	verify() error
	failures() int
	metrics() (sys, client []pleroma.MetricFamily)
	close()
}

// base is what every workload shares: its inputs, the traced run's
// recorder (nil untraced), the deployment and the failure count.
type base struct {
	in      *inputs
	sz      sizes
	rec     *recorder
	hand    handlerClock
	sys     *pleroma.System
	clients []*pleroma.Client
	failed  int
}

func newWorkload(name string, seed int64, sz sizes, rec *recorder) (workload, error) {
	var w interface {
		workload
		init(*inputs, sizes, *recorder)
	}
	switch name {
	case "tcp-pipe":
		w = &tcpPipe{}
	case "tcp-rtt":
		w = &tcpRTT{arrived: make(chan time.Time, 1)}
	case "inproc-fanout":
		w = &fanout{}
	case "ctl-churn":
		w = &churn{}
	default:
		return nil, fmt.Errorf("unknown workload %q (have %v)", name, workloadNames)
	}
	w.init(newInputs(seed, name), sz, rec)
	return w, nil
}

func (b *base) init(in *inputs, sz sizes, rec *recorder) {
	b.in, b.sz, b.rec, b.hand.r = in, sz, rec, rec
}

var workloadNames = []string{"tcp-pipe", "tcp-rtt", "inproc-fanout", "ctl-churn"}

// maxProcs caps GOMAXPROCS for a workload. tcp-rtt has one event in flight
// at a time, so a second P adds no parallelism — only hand-offs that cross
// CPUs, and waking an idle vCPU costs tens of microseconds that vary from
// second to second with the hypervisor's load. One P keeps every socket,
// frame and goroutine switch of the path and drops that lottery.
func maxProcs(name string) int {
	if name == "tcp-rtt" {
		return 1
	}
	return math.MaxInt
}

func benchSchema() *pleroma.Schema {
	sch, err := pleroma.NewSchema(
		pleroma.Attribute{Name: "a", Bits: attrBits},
		pleroma.Attribute{Name: "b", Bits: attrBits},
	)
	if err != nil {
		panic(err) // constant arguments
	}
	return sch
}

// deploy builds the common deployment: WithFatTree(4, 4, 2), one
// partition, one shard, L_dz 24, 16 subspaces; observability only in the
// traced run.
func (b *base) deploy(extra ...pleroma.Option) error {
	opts := []pleroma.Option{
		pleroma.WithFatTree(4, 4, 2),
		pleroma.WithMaxDzLen(24),
		pleroma.WithMaxSubspaces(16),
	}
	if b.rec != nil {
		opts = append(opts, pleroma.WithObservability(0))
	}
	sys, err := pleroma.NewSystem(benchSchema(), append(opts, extra...)...)
	if err != nil {
		return err
	}
	b.sys = sys
	return nil
}

func (b *base) dial() (*pleroma.Client, error) {
	if len(b.clients) >= maxConnections {
		return nil, fmt.Errorf("refusing connection %d: the benchmark is limited to %d", len(b.clients)+1, maxConnections)
	}
	var opts []pleroma.DialOption
	if b.rec != nil {
		opts = append(opts, pleroma.WithDialObservability(0))
	}
	c, err := pleroma.Dial(b.sys.ListenAddr(), opts...)
	if err != nil {
		return nil, err
	}
	b.clients = append(b.clients, c)
	return c, nil
}

func (b *base) close() {
	for _, c := range b.clients {
		c.Close()
	}
	if b.sys != nil {
		b.sys.Close()
	}
}

func (b *base) failures() int { return b.failed }

// metrics snapshots the obs registries after the traced run; the client
// side is the publishing (first) connection.
func (b *base) metrics() (sys, client []pleroma.MetricFamily) {
	sys = b.sys.Metrics().Families
	if len(b.clients) > 0 {
		client = b.clients[0].Metrics().Families
	}
	return sys, client
}

// pubSub is the deployment of the two TCP data workloads: a publisher
// connection advertising the whole space on hosts[0] and a subscriber
// connection holding one whole-space subscription on hosts[15] — the
// other pod, five switch hops away.
func (b *base) pubSub(handler func(pleroma.Delivery)) (pub, sub *pleroma.Client, err error) {
	if err = b.deploy(pleroma.WithListener("127.0.0.1:0")); err != nil {
		return nil, nil, err
	}
	if pub, err = b.dial(); err != nil {
		return nil, nil, err
	}
	if sub, err = b.dial(); err != nil {
		return nil, nil, err
	}
	hosts := b.sys.Hosts()
	if err = pub.Advertise("p", hosts[0], pleroma.NewFilter()); err != nil {
		return nil, nil, err
	}
	err = sub.Subscribe("s", hosts[len(hosts)-1], pleroma.NewFilter(), handler)
	return pub, sub, err
}

// tcpPipe: 1024 × PublishAsync, Flush, Run, subscriber Sync.
type tcpPipe struct {
	base
	pub, sub *pleroma.Client
	got, sum atomic.Uint64
	// traced run: the publish window's occupancy, sampled once per step
	// when the chunk's last event has been handed over
	occSum, occN float64
}

func (w *tcpPipe) opsPerStep() int { return pipeChunk }
func (w *tcpPipe) demuxWidth() int { return 1 }

func (w *tcpPipe) setup() (err error) {
	w.pub, w.sub, err = w.pubSub(func(d pleroma.Delivery) {
		t := w.hand.enter()
		w.got.Add(1)
		w.sum.Add(mix(0, d.Event.Values[0], d.Event.Values[1]))
		w.hand.leave(t)
	})
	return err
}

func (w *tcpPipe) step() (time.Duration, error) {
	_, evs := w.in.events(pipeChunk)
	var want uint64
	for _, ev := range evs {
		want += mix(0, ev[0], ev[1])
	}
	r := w.rec
	t0 := time.Now()
	root := r.begin("step", -1)
	s := r.begin("publish", root)
	for _, ev := range evs {
		if err := w.pub.PublishAsync("p", ev...); err != nil {
			return 0, err
		}
	}
	r.end(s)
	if r != nil {
		w.occSum += total(w.pub.Metrics().Families, obs.MTransportPublishWindow)
		w.occN++
	}
	s = r.begin("flush", root)
	if err := w.pub.Flush(); err != nil {
		return 0, err
	}
	r.end(s)
	s = r.begin("run", root)
	if _, err := w.pub.Run(); err != nil {
		return 0, err
	}
	r.end(s)
	s = r.begin("sync", root)
	if err := w.sub.Sync(); err != nil {
		return 0, err
	}
	r.end(s)
	r.end(root)
	lat := time.Since(t0)
	// The handler runs on the subscriber's reader goroutine, beside the
	// generator: its span is a root of its own, not a child of the step.
	w.hand.flush(-1)
	// Exactly once: the chunk's count and value checksum.
	got, sum := w.got.Swap(0), w.sum.Swap(0)
	if got != pipeChunk {
		w.failed += absDiff(int(got), pipeChunk)
	} else if sum != want {
		w.failed++
	}
	return lat, nil
}

func (w *tcpPipe) verify() error { return nil }

func (w *tcpPipe) windowOccupancy() float64 { return ratio(w.occSum, w.occN) }

// tcpRTT: one event at a time — blocking Publish, Run, wait for the
// handler.
type tcpRTT struct {
	base
	pub, sub  *pleroma.Client
	cur       atomic.Uint64 // the event in flight, a<<32|b
	arrived   chan time.Time
	published int
	got       atomic.Uint64
}

func (w *tcpRTT) opsPerStep() int { return 1 }
func (w *tcpRTT) demuxWidth() int { return 1 }

func (w *tcpRTT) setup() (err error) {
	w.pub, w.sub, err = w.pubSub(func(d pleroma.Delivery) {
		at := time.Now()
		t := w.hand.enter()
		w.got.Add(1)
		if uint64(d.Event.Values[0])<<32|uint64(d.Event.Values[1]) != w.cur.Load() {
			at = time.Time{} // wrong payload
		}
		select {
		case w.arrived <- at:
		default: // a duplicate: counted by got, nobody waits for it
		}
		w.hand.leave(t)
	})
	return err
}

func (w *tcpRTT) step() (time.Duration, error) {
	_, evs := w.in.events(1)
	ev := evs[0]
	w.cur.Store(uint64(ev[0])<<32 | uint64(ev[1]))
	w.published++
	r := w.rec
	root := r.begin("step", -1)
	t0 := time.Now()
	s := r.begin("publish", root)
	if err := w.pub.Publish("p", ev...); err != nil {
		return 0, err
	}
	r.end(s)
	s = r.begin("run", root)
	if _, err := w.pub.Run(); err != nil {
		return 0, err
	}
	r.end(s)
	s = r.begin("sync", root)
	at := <-w.arrived // a lost event ends at runWorkload's deadline
	r.end(s)
	r.end(root)
	w.hand.flush(-1)
	if at.IsZero() {
		w.failed++
		return time.Since(t0), nil
	}
	return at.Sub(t0), nil
}

// verify checks exactly-once over the whole run: after a final Sync the
// handler has fired once per published event.
func (w *tcpRTT) verify() error {
	if err := w.sub.Sync(); err != nil {
		return err
	}
	w.failed += absDiff(int(w.got.Load()), w.published)
	return nil
}

// fanout: no sockets; 4 publishers, 12 hosts × subsPerHost subscriptions,
// PublishBatch(16) round-robin, System.Run.
type fanout struct {
	base
	pubs  []*pleroma.Publisher
	rects []rect
	turn  int
	// Handlers fold each step's deliveries into these; step moves them to
	// the log, which verify compares with the brute-force matcher.
	cnt, fp uint32
	sum     uint64
	log     []fanoutStep
	// everything the handlers saw since set-up, to check against the
	// system's own delivery counters
	deliveries, falsePositives uint64
}

type fanoutStep struct {
	first   int // ring index of the step's first event
	cnt, fp uint32
	sum     uint64
}

func (w *fanout) opsPerStep() int { return fanoutBatch }
func (w *fanout) demuxWidth() int { return w.sz.subsPerHost }

func (w *fanout) setup() error {
	if err := w.deploy(); err != nil {
		return err
	}
	hosts := w.sys.Hosts()
	for i := 0; i < fanoutPubs; i++ {
		p, err := w.sys.NewPublisher(fmt.Sprintf("p%d", i), hosts[i])
		if err != nil {
			return err
		}
		if err := p.Advertise(pleroma.NewFilter()); err != nil {
			return err
		}
		w.pubs = append(w.pubs, p)
	}
	w.rects = make([]rect, subHosts*w.sz.subsPerHost)
	for i := range w.rects {
		w.rects[i] = w.in.rect()
		err := w.sys.Subscribe(fmt.Sprintf("s%d", i), hosts[fanoutPubs+i%subHosts], w.rects[i].filter(), func(d pleroma.Delivery) {
			t := w.hand.enter()
			if d.FalsePositive {
				w.fp++
			} else {
				w.cnt++
				w.sum += mix(i, d.Event.Values[0], d.Event.Values[1])
			}
			w.hand.leave(t)
		})
		if err != nil {
			return err
		}
	}
	w.log = make([]fanoutStep, 0, 1<<14)
	return nil
}

func (w *fanout) step() (time.Duration, error) {
	first, evs := w.in.events(fanoutBatch)
	pub := w.pubs[w.turn%len(w.pubs)]
	w.turn++
	r := w.rec
	t0 := time.Now()
	root := r.begin("step", -1)
	s := r.begin("publish", root)
	if err := pub.PublishBatch(evs...); err != nil {
		return 0, err
	}
	r.end(s)
	s = r.begin("run", root)
	w.sys.Run()
	r.end(s)
	r.end(root)
	lat := time.Since(t0)
	w.hand.flush(s) // handlers run inside System.Run
	w.log = append(w.log, fanoutStep{first: first, cnt: w.cnt, fp: w.fp, sum: w.sum})
	w.cnt, w.fp, w.sum = 0, 0, 0
	return lat, nil
}

// verify replays every step against a brute-force rectangle matcher: the
// deliveries not flagged FalsePositive must be exactly the true matches
// (count and checksum over (subscription, event) pairs). False positives
// are counted, not ignored: what the handlers saw must equal the system's
// own delivery and false-positive counters.
func (w *fanout) verify() error {
	for _, st := range w.log {
		var cnt uint32
		var sum uint64
		for _, ev := range w.in.tuples[st.first : st.first+fanoutBatch] {
			for i, rc := range w.rects {
				if rc.contains(ev[0], ev[1]) {
					cnt++
					sum += mix(i, ev[0], ev[1])
				}
			}
		}
		if cnt != st.cnt {
			w.failed += absDiff(int(cnt), int(st.cnt))
		} else if sum != st.sum {
			w.failed++
		}
		w.deliveries += uint64(st.cnt) + uint64(st.fp)
		w.falsePositives += uint64(st.fp)
	}
	w.log = w.log[:0]
	if st := w.sys.Stats(); st.Deliveries != w.deliveries || st.FalsePositives != w.falsePositives {
		w.failed++
	}
	return nil
}

// controlPlane is the subscription surface System and Client share.
type controlPlane interface {
	Subscribe(id string, host pleroma.HostID, f pleroma.Filter, handler func(pleroma.Delivery)) error
	Unsubscribe(id string) error
}

// churn: one control connection, in-memory journal, sz.deployed
// subscriptions held; each step replaces the oldest one. With inproc set
// the same loop drives the System directly — the facade probe.
type churn struct {
	base
	inproc bool
	cp     controlPlane
	ctl    *pleroma.Client // nil when inproc
	live   []string        // ring of deployed subscription ids, oldest at head
	head   int
	nextID int
}

func (w *churn) opsPerStep() int { return 2 }
func (w *churn) demuxWidth() int { return 0 } // the data path is idle

func (w *churn) subscribe() (string, error) {
	id := fmt.Sprintf("s%d", w.nextID)
	w.nextID++
	hosts := w.sys.Hosts()
	host := hosts[fanoutPubs+w.in.rng.Intn(subHosts)]
	return id, w.cp.Subscribe(id, host, w.in.rect().filter(), func(pleroma.Delivery) {})
}

func (w *churn) setup() (err error) {
	opts := []pleroma.Option{pleroma.WithJournal()}
	if !w.inproc {
		opts = append(opts, pleroma.WithListener("127.0.0.1:0"))
	}
	if err = w.deploy(opts...); err != nil {
		return err
	}
	w.cp = w.sys
	if !w.inproc {
		if w.ctl, err = w.dial(); err != nil {
			return err
		}
		w.cp = w.ctl
	}
	hosts := w.sys.Hosts()
	for i := 0; i < fanoutPubs; i++ {
		id := fmt.Sprintf("p%d", i)
		if w.inproc {
			var pub *pleroma.Publisher
			if pub, err = w.sys.NewPublisher(id, hosts[i]); err == nil {
				err = pub.Advertise(pleroma.NewFilter())
			}
		} else {
			err = w.ctl.Advertise(id, hosts[i], pleroma.NewFilter())
		}
		if err != nil {
			return err
		}
	}
	w.live = make([]string, w.sz.deployed)
	for i := range w.live {
		if w.live[i], err = w.subscribe(); err != nil {
			return err
		}
	}
	return nil
}

func (w *churn) step() (time.Duration, error) {
	r := w.rec
	t0 := time.Now()
	root := r.begin("step", -1)
	s := r.begin("unsubscribe", root)
	if err := w.cp.Unsubscribe(w.live[w.head]); err != nil {
		return 0, err
	}
	r.end(s)
	s = r.begin("subscribe", root)
	id, err := w.subscribe()
	if err != nil {
		return 0, err
	}
	r.end(s)
	r.end(root)
	w.live[w.head] = id
	w.head = (w.head + 1) % len(w.live)
	return time.Since(t0), nil
}

// verify is the HA epilogue: the control-plane digest must survive a
// snapshot/restore cycle, read the same over TCP, and the installed flow
// tables must equal the controller's desired state.
func (w *churn) verify() error {
	before, err := w.sys.StateDigest()
	if err != nil {
		return err
	}
	snap, err := w.sys.Snapshot(0)
	if err != nil {
		return err
	}
	if err := w.sys.Restore(0, snap); err != nil {
		return err
	}
	after, err := w.sys.StateDigest()
	if err != nil {
		return err
	}
	if !bytes.Equal(before, after) {
		w.failed++
	}
	if w.ctl != nil {
		remote, err := w.ctl.StateDigest()
		if err != nil {
			return err
		}
		if !bytes.Equal(after, remote) {
			w.failed++
		}
	}
	if err := w.sys.VerifyTables(); err != nil {
		w.failed++
	}
	return nil
}

func absDiff(a, b int) int {
	if a < b {
		return b - a
	}
	return a - b
}
