package pleroma

import (
	"bytes"
	"errors"
	"strings"
	"sync/atomic"
	"testing"
)

// TestReadvertiseAfterUnadvertise: a publisher withdrawn over TCP advertises
// again under its id, and its next event is delivered.
func TestReadvertiseAfterUnadvertise(t *testing.T) {
	sys, err := NewSystem(netTestSchema(t), WithListener("127.0.0.1:0"))
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
	c, err := Dial(sys.ListenAddr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	hosts := c.Hosts()
	var got atomic.Int64
	if err := c.Subscribe("s", hosts[6], NewFilter(), func(Delivery) { got.Add(1) }); err != nil {
		t.Fatal(err)
	}
	if err := c.Advertise("p", hosts[0], NewFilter()); err != nil {
		t.Fatal(err)
	}
	if err := c.Unadvertise("p"); err != nil {
		t.Fatal(err)
	}
	if err := c.Advertise("p", hosts[0], NewFilter()); err != nil {
		t.Fatalf("advertise after unadvertise: %v", err)
	}
	if err := c.Publish("p", 100, 200); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Run(); err != nil {
		t.Fatal(err)
	}
	if err := c.Sync(); err != nil {
		t.Fatal(err)
	}
	if n := got.Load(); n != 1 {
		t.Fatalf("deliveries: %d, want 1", n)
	}
}

// TestReadvertiseFromAnotherClient: a publisher id withdrawn by one client
// and advertised again by another starts a new advertisement, so the second
// client's publish sequence numbers, which start over at 1, are not taken
// for retries of the first client's publishes.
func TestReadvertiseFromAnotherClient(t *testing.T) {
	sys, err := NewSystem(netTestSchema(t), WithListener("127.0.0.1:0"))
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
	a, err := Dial(sys.ListenAddr())
	if err != nil {
		t.Fatal(err)
	}
	hosts := a.Hosts()
	if err := a.Advertise("p", hosts[0], NewFilter()); err != nil {
		t.Fatal(err)
	}
	for i := range 3 {
		if err := a.Publish("p", uint32(i), 1); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := a.Run(); err != nil { // no subscriber yet: nothing delivered
		t.Fatal(err)
	}
	if err := a.Unadvertise("p"); err != nil {
		t.Fatal(err)
	}
	a.Close()

	b, err := Dial(sys.ListenAddr())
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	var got atomic.Int64
	if err := b.Subscribe("s", hosts[6], NewFilter(), func(Delivery) { got.Add(1) }); err != nil {
		t.Fatal(err)
	}
	if err := b.Advertise("p", hosts[0], NewFilter()); err != nil {
		t.Fatal(err)
	}
	if err := b.Publish("p", 100, 200); err != nil {
		t.Fatal(err)
	}
	if _, err := b.Run(); err != nil {
		t.Fatal(err)
	}
	if err := b.Sync(); err != nil {
		t.Fatal(err)
	}
	if n := got.Load(); n != 1 {
		t.Fatalf("deliveries: %d, want 1", n)
	}
}

// regRig drives one journaled System through one of its two surfaces: the
// in-process API or a single TCP Client.
type regRig struct {
	t     *testing.T
	sys   *System
	hosts []HostID
	tcp   bool

	subscribe   func(id string, host HostID, f Filter, h func(Delivery)) error
	unsubscribe func(id string) error
	advertise   func(id string, host HostID, f Filter) error
	unadvertise func(id string) error
	publish     func(id string, values ...uint32) error
	settle      func() error // drain the network; over TCP, Sync too
}

func newRegRig(t *testing.T, tcp bool) *regRig {
	opts := []Option{WithJournal()}
	if tcp {
		opts = append(opts, WithListener("127.0.0.1:0"))
	}
	sys, err := NewSystem(netTestSchema(t), opts...)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(sys.Close)
	r := &regRig{t: t, sys: sys, hosts: sys.Hosts(), tcp: tcp}
	if tcp {
		c, err := Dial(sys.ListenAddr())
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { c.Close() })
		r.subscribe, r.unsubscribe = c.Subscribe, c.Unsubscribe
		r.advertise, r.unadvertise, r.publish = c.Advertise, c.Unadvertise, c.Publish
		r.settle = func() error {
			if _, err := c.Run(); err != nil {
				return err
			}
			return c.Sync()
		}
		return r
	}
	// In process an advertisement goes through the id's Publisher handle,
	// which fixes its host: a second handle is refused by NewPublisher.
	pubs := map[string]*Publisher{}
	handle := func(id string, host HostID) (*Publisher, error) {
		if p := pubs[id]; p != nil && p.host == host {
			return p, nil
		}
		p, err := sys.NewPublisher(id, host)
		if err == nil {
			pubs[id] = p
		}
		return p, err
	}
	r.subscribe, r.unsubscribe = sys.Subscribe, sys.Unsubscribe
	r.advertise = func(id string, host HostID, f Filter) error {
		p, err := handle(id, host)
		if err != nil {
			return err
		}
		return p.Advertise(f)
	}
	r.unadvertise = func(id string) error {
		p := pubs[id]
		if p == nil { // an id never advertised: a handle without an advertisement
			var err error
			if p, err = handle(id, r.hosts[0]); err != nil {
				return err
			}
		}
		return p.Unadvertise()
	}
	r.publish = func(id string, values ...uint32) error { return pubs[id].Publish(values...) }
	r.settle = func() error { sys.Run(); return nil }
	return r
}

func (r *regRig) must(err error) {
	r.t.Helper()
	if err != nil {
		r.t.Fatal(err)
	}
}

// state is what an identical re-registration must leave untouched: the
// control-plane digest and the journal's record count.
func (r *regRig) state() (digest []byte, records int) {
	r.t.Helper()
	digest, err := r.sys.StateDigest()
	r.must(err)
	for _, p := range r.sys.Partitions() {
		j, err := r.sys.fab.Journal(p)
		r.must(err)
		recs, err := j.Records(0)
		r.must(err)
		records += len(recs)
	}
	return digest, records
}

func (r *regRig) unchangedSince(digest []byte, records int, what string) {
	r.t.Helper()
	d, n := r.state()
	if !bytes.Equal(d, digest) || n != records {
		r.t.Fatalf("%s changed control state: digest equal %v, journal records %d → %d",
			what, bytes.Equal(d, digest), records, n)
	}
}

// refused asserts the one refusal of a different re-registration.
func (r *regRig) refused(err error, what string) {
	r.t.Helper()
	if err == nil || !strings.Contains(err.Error(), "re-registered with different parameters") {
		r.t.Fatalf("%s: err = %v, want a re-registration refusal", what, err)
	}
}

// is asserts errors.Is(err, target), over TCP as in process.
func (r *regRig) is(err, target error, what string) {
	r.t.Helper()
	if !errors.Is(err, target) {
		r.t.Fatalf("%s: err = %v, want %v", what, err, target)
	}
}

func (r *regRig) publishAndSettle(id string, values ...uint32) {
	r.t.Helper()
	r.must(r.publish(id, values...))
	r.must(r.settle())
}

// TestRegistrationRule runs the one registration rule (System.Subscribe,
// Unsubscribe, advertise, unadvertise) through both surfaces that reach it.
func TestRegistrationRule(t *testing.T) {
	cases := []struct {
		name string
		run  func(r *regRig)
	}{
		{"identical resubscribe rebinds the handler", func(r *regRig) {
			var first, second atomic.Int64
			f := NewFilter().Range("price", 0, 511)
			r.must(r.subscribe("s", r.hosts[6], f, func(Delivery) { first.Add(1) }))
			r.must(r.advertise("p", r.hosts[0], NewFilter()))
			r.publishAndSettle("p", 100, 1)
			digest, records := r.state()
			r.must(r.subscribe("s", r.hosts[6], NewFilter().Range("price", 0, 511), func(Delivery) { second.Add(1) }))
			r.unchangedSince(digest, records, "identical resubscribe")
			r.publishAndSettle("p", 200, 1)
			if a, b := first.Load(), second.Load(); a != 1 || b != 1 {
				r.t.Fatalf("deliveries: first handler %d, second %d; want 1 and 1", a, b)
			}
		}},
		{"different host or filter is refused", func(r *regRig) {
			var got atomic.Int64
			f := NewFilter().Range("price", 0, 511)
			r.must(r.subscribe("s", r.hosts[6], f, func(Delivery) { got.Add(1) }))
			r.must(r.advertise("p", r.hosts[0], NewFilter()))
			digest, records := r.state()
			r.refused(r.subscribe("s", r.hosts[5], f, nil), "resubscribe on another host")
			r.refused(r.subscribe("s", r.hosts[6], NewFilter().Range("price", 0, 255), nil), "resubscribe with another filter")
			r.refused(r.advertise("p", r.hosts[0], NewFilter().Range("price", 0, 255)), "readvertise with another filter")
			r.unchangedSince(digest, records, "a refused re-registration")
			r.publishAndSettle("p", 100, 1)
			if n := got.Load(); n != 1 {
				r.t.Fatalf("deliveries to the live subscription after refusals: %d, want 1", n)
			}
		}},
		{"identical readvertise is a no-op", func(r *regRig) {
			r.must(r.advertise("p", r.hosts[0], NewFilter().Range("price", 10, 20)))
			digest, records := r.state()
			r.must(r.advertise("p", r.hosts[0], NewFilter().Range("price", 10, 20)))
			r.unchangedSince(digest, records, "identical readvertise")
		}},
		{"readvertise after unadvertise", func(r *regRig) {
			var got atomic.Int64
			r.must(r.subscribe("s", r.hosts[6], NewFilter(), func(Delivery) { got.Add(1) }))
			r.must(r.advertise("p", r.hosts[0], NewFilter()))
			r.must(r.unadvertise("p"))
			if r.tcp { // in process a Publisher's host is fixed by its handle
				r.refused(r.advertise("p", r.hosts[1], NewFilter()), "readvertise from another host")
			}
			r.must(r.advertise("p", r.hosts[0], NewFilter().Range("price", 0, 99)))
			r.publishAndSettle("p", 42, 1)
			if n := got.Load(); n != 1 {
				r.t.Fatalf("deliveries: %d, want 1", n)
			}
		}},
		{"unknown withdrawals", func(r *regRig) {
			r.is(r.unsubscribe("ghost"), ErrUnknownSubscription, "unsubscribe of an unknown id")
			r.is(r.unadvertise("ghost"), ErrNotAdvertised, "unadvertise of an unknown id")
			r.must(r.advertise("p", r.hosts[0], NewFilter()))
			r.must(r.unadvertise("p"))
			r.is(r.unadvertise("p"), ErrNotAdvertised, "unadvertise of a withdrawn id")
			r.is(r.publish("p", 42, 1), ErrNotAdvertised, "publish from a withdrawn id")
		}},
	}
	for _, surface := range []string{"inproc", "tcp"} {
		t.Run(surface, func(t *testing.T) {
			for _, c := range cases {
				t.Run(c.name, func(t *testing.T) { c.run(newRegRig(t, surface == "tcp")) })
			}
		})
	}
}
