package interdomain

import (
	"fmt"
	"slices"
	"testing"

	"pleroma/internal/dz"
)

// TestRegisteredSetsNeverWritten: the fabric keeps the caller's set of an
// advertisement or subscription — in the home partition's local and received
// maps at once, and the partition controller keeps it too — so nothing may
// write into a stored set. Registrations whose sets cover, overlap and
// fragment each other go through flooding, covering suppression, an
// unsubscribe's re-propagation, an unadvertisement and a topology change;
// after each step every set handed in must read as it did, and the fabric
// must still hold each live registration's set as registered.
func TestRegisteredSetsNeverWritten(t *testing.T) {
	g := chainTopo(t, 3)
	fx := newFixture(t, g, WithStaticDiscovery())
	hosts := g.Hosts()

	type reg struct {
		id        string
		sub       bool
		set, want dz.Set
	}
	var regs []*reg
	advs := []dz.Set{dz.NewSet("1"), dz.NewSet("0", "11"), dz.NewSet("10")}
	subs := []dz.Set{dz.NewSet("1"), dz.NewSet("10", "011"), dz.NewSet("101"), dz.NewSet("0"), dz.NewSet("1")}
	for i, set := range advs {
		r := &reg{id: fmt.Sprintf("p%d", i), set: set, want: slices.Clone(set)}
		regs = append(regs, r)
		if err := fx.fab.Advertise(r.id, hosts[(2*i)%len(hosts)], set); err != nil {
			t.Fatal(err)
		}
	}
	for i, set := range subs {
		r := &reg{id: fmt.Sprintf("s%d", i), sub: true, set: set, want: slices.Clone(set)}
		regs = append(regs, r)
		if err := fx.fab.Subscribe(r.id, hosts[(2*i+3)%len(hosts)], set); err != nil {
			t.Fatal(err)
		}
	}
	gone := map[string]bool{}
	check := func(step string) {
		t.Helper()
		for _, r := range regs {
			if !slices.Equal(r.set, r.want) {
				t.Fatalf("after %s: the set registered as %s reads %v, was %v", step, r.id, r.set, r.want)
			}
			if gone[r.id] {
				continue
			}
			home := fx.fab.advHome[r.id]
			stored := fx.fab.parts[home.part].localAdvs[r.id]
			if r.sub {
				home = fx.fab.subHome[r.id]
				stored = fx.fab.parts[home.part].localSubs[r.id]
			}
			if !slices.Equal(stored, r.want) {
				t.Fatalf("after %s: the fabric holds %v for %s, registered %v", step, stored, r.id, r.want)
			}
		}
		if err := fx.fab.VerifyTables(); err != nil {
			t.Fatalf("after %s: %v", step, err)
		}
	}

	check("registration")
	if err := fx.fab.Unsubscribe("s0"); err != nil {
		t.Fatal(err)
	}
	gone["s0"] = true
	check("unsubscribe")
	if err := fx.fab.Unadvertise("p1"); err != nil {
		t.Fatal(err)
	}
	gone["p1"] = true
	check("unadvertise")
	if err := fx.fab.HandleTopologyChange(); err != nil {
		t.Fatal(err)
	}
	check("topology change")
}
