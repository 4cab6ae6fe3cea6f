package openflow

import (
	"fmt"
	"math/rand"
	"net/netip"
	"testing"

	"pleroma/internal/dz"
	"pleroma/internal/ipmc"
)

// benchTable builds a table of n flows keeping the PLEROMA invariant
// (priority == |dz|) so Lookup serves from the prefix index.
func benchTable(b *testing.B, n int) *Table {
	b.Helper()
	r := rand.New(rand.NewSource(int64(n)))
	tab := NewTable()
	seen := make(map[dz.Expr]bool, n)
	for len(seen) < n {
		l := 1 + r.Intn(24)
		buf := make([]byte, l)
		for j := range buf {
			buf[j] = byte('0' + r.Intn(2))
		}
		e := dz.Expr(buf)
		if seen[e] {
			continue
		}
		seen[e] = true
		f, err := NewFlow(e, e.Len(), Action{OutPort: PortID(1 + r.Intn(4))})
		if err != nil {
			b.Fatal(err)
		}
		tab.Add(f)
	}
	return tab
}

// benchProbes returns event addresses that exercise hits at several depths
// plus guaranteed misses (destinations outside any installed prefix family).
func benchProbes(b *testing.B, tab *Table) []netip.Addr {
	b.Helper()
	var probes []netip.Addr
	flows := tab.Flows()
	for i := 0; i < 8 && i < len(flows); i++ {
		// Refine an installed expression so the lookup walks past it.
		e := flows[i*len(flows)/8].Expr() + "0110"
		addr, err := ipmc.EventAddr(e.Truncate(ipmc.MaxDzLen))
		if err != nil {
			b.Fatal(err)
		}
		probes = append(probes, addr)
	}
	return probes
}

// BenchmarkTableLookup measures the trie lookup of the TCAM emulation.
// The acceptance bar for the prefix index is 0 allocs/op.
func BenchmarkTableLookup(b *testing.B) {
	for _, n := range []int{10, 100, 1000} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			tab := benchTable(b, n)
			probes := benchProbes(b, tab)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				tab.Lookup(probes[i%len(probes)])
			}
		})
	}
}
