package interdomain

import (
	"bytes"
	"fmt"
	"slices"
	"testing"

	"pleroma/internal/dz"
	"pleroma/internal/sortutil"
	"pleroma/internal/topo"
)

// orderModel is the arrival-order registry as a slice — what Fabric kept
// before sequence numbers on the home records: append on arrival, delete by
// scan on removal.
type orderModel struct{ advs, subs []string }

func (m *orderModel) remove(list *[]string, id string) {
	*list = slices.DeleteFunc(*list, func(x string) bool { return x == id })
}

// impose re-stamps the fabric's sequence numbers from the model, so that the
// fabric's next re-propagation runs in the model's order whatever numbers
// the fabric had assigned itself.
func (m *orderModel) impose(f *Fabric) {
	for _, reg := range []struct {
		order []string
		homes map[string]homeRec
	}{{m.advs, f.advHome}, {m.subs, f.subHome}} {
		for i, id := range reg.order {
			h := reg.homes[id]
			h.seq = uint64(i + 1)
			reg.homes[id] = h
		}
	}
	f.regSeq = uint64(len(m.advs) + len(m.subs))
}

// replicaIDs lists every virtual replica as "partition/id", origins sorted.
func replicaIDs(f *Fabric) []string {
	var out []string
	for _, m := range []map[string][]replica{f.advReplicas, f.subReplicas} {
		for _, origin := range sortutil.Keys(m) {
			for _, r := range m[origin] {
				out = append(out, fmt.Sprintf("%d/%s", r.part, r.id))
			}
		}
	}
	return out
}

func digests(t *testing.T, f *Fabric) []byte {
	t.Helper()
	var all []byte
	for _, p := range f.Partitions() {
		d, err := f.DigestPartition(p)
		if err != nil {
			t.Fatal(err)
		}
		all = append(all, d...)
	}
	return all
}

// TestRebuildsReplayInArrivalOrder: a chain of three partitions, eight
// subscriptions whose covering relations make the re-propagation order
// visible (which origin is suppressed, which replica gets which number),
// two advertisements likewise. Unsubscribing from the middle and the head
// (each re-runs rebuildSubPropagation) and a topology change must leave
// the fabric exactly where one that replays in the slice model's order
// ends up — replica ids, control-message and suppression counters, state
// digests — and where the slice-based implementation did (the golden ids).
func TestRebuildsReplayInArrivalOrder(t *testing.T) {
	type step struct {
		name string
		do   func(f *Fabric, m *orderModel) error
	}
	g := chainTopo(t, 3)
	near, far := g.HostsInPartition(0), g.HostsInPartition(2)
	subscribe := func(id string, host topo.NodeID, exprs ...dz.Expr) step {
		return step{"subscribe " + id, func(f *Fabric, m *orderModel) error {
			m.subs = append(m.subs, id)
			return f.Subscribe(id, host, dz.NewSet(exprs...))
		}}
	}
	advertise := func(id string, host topo.NodeID, exprs ...dz.Expr) step {
		return step{"advertise " + id, func(f *Fabric, m *orderModel) error {
			m.advs = append(m.advs, id)
			return f.Advertise(id, host, dz.NewSet(exprs...))
		}}
	}
	unsubscribe := func(id string) step {
		return step{"unsubscribe " + id, func(f *Fabric, m *orderModel) error {
			m.remove(&m.subs, id)
			return f.Unsubscribe(id)
		}}
	}
	steps := []step{
		// Arrival order differs from id order, and the later advertisement
		// is the coarser one: replayed in id order, "pz" would be suppressed.
		advertise("pz", far[0], "00"),
		advertise("pa", far[1], "0", "1"),
		subscribe("a", near[0], "000"),
		subscribe("b", near[1], "001"),
		subscribe("h", near[0], "01"), // covers "c" below: whichever comes first decides
		subscribe("c", near[1], "010"),
		subscribe("e", near[0], "100"),
		subscribe("d", near[1], "10"), // arrives after "e", so both are forwarded
		subscribe("g", near[0], "110"),
		subscribe("f", near[1], "111"),
		unsubscribe("h"), // middle: "c" is forwarded in its place
		unsubscribe("a"), // head
		{"topology change", func(f *Fabric, _ *orderModel) error { return f.HandleTopologyChange() }},
		unsubscribe("f"), // tail, after the rebuild
	}
	// Replica ids at the end, as the slice-based implementation left them.
	golden := []string{
		"1/xadv:pa#25", "0/xadv:pa#4", "1/xadv:pz#23", "0/xadv:pz#3",
		"1/xsub:b#30", "2/xsub:b#26", "1/xsub:c#31", "2/xsub:c#27", "1/xsub:d#33", "2/xsub:d#29",
		"1/xsub:e#32", "2/xsub:e#28", "1/xsub:g#34", "2/xsub:g#30",
	}

	own := newFixture(t, g, WithStaticDiscovery()).fab
	imposed := newFixture(t, chainTopo(t, 3), WithStaticDiscovery()).fab
	var m orderModel
	for _, s := range steps {
		m.impose(imposed)
		var shadow orderModel // the model is advanced once, by the first call
		if err := s.do(own, &m); err != nil {
			t.Fatalf("%s: %v", s.name, err)
		}
		if err := s.do(imposed, &shadow); err != nil {
			t.Fatalf("%s (imposed order): %v", s.name, err)
		}
		if got := inArrivalOrder(own.subHome); !slices.Equal(got, m.subs) {
			t.Fatalf("%s: subscriptions in arrival order %v, slice model %v", s.name, got, m.subs)
		}
		if got := inArrivalOrder(own.advHome); !slices.Equal(got, m.advs) {
			t.Fatalf("%s: advertisements in arrival order %v, slice model %v", s.name, got, m.advs)
		}
		if a, b := replicaIDs(own), replicaIDs(imposed); !slices.Equal(a, b) {
			t.Fatalf("%s: replicas\n%v\nunder the slice model's order\n%v", s.name, a, b)
		}
		if a, b := own.Stats(), imposed.Stats(); a.MessagesSent != b.MessagesSent || a.SuppressedByCovering != b.SuppressedByCovering {
			t.Fatalf("%s: %d messages, %d suppressed; under the slice model's order %d, %d",
				s.name, a.MessagesSent, a.SuppressedByCovering, b.MessagesSent, b.SuppressedByCovering)
		}
		if !bytes.Equal(digests(t, own), digests(t, imposed)) {
			t.Fatalf("%s: state digests differ from the slice model's", s.name)
		}
	}
	if got := replicaIDs(own); !slices.Equal(got, golden) {
		t.Errorf("replicas\n%q\nslice-based implementation left\n%q", got, golden)
	}
	if err := own.VerifyTables(); err != nil {
		t.Error(err)
	}
}
