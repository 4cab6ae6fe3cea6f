package ipmc

import (
	"math/rand"
	"net/netip"
	"strings"
	"testing"
	"testing/quick"

	"pleroma/internal/dz"
)

// TestPaperExamples checks the exact address embeddings given in
// Section 3.3.2 of the paper.
func TestPaperExamples(t *testing.T) {
	tests := []struct {
		expr dz.Expr
		want string
	}{
		{"101101", "ff0e:b400::/22"},
		{"101", "ff0e:a000::/19"},
		{"100", "ff0e:8000::/19"}, // Figure 3: 100* ⇒ ff0e:8000::/19
		{"1", "ff0e:8000::/17"},   // Figure 3: destIP = ff0e:8000::/17
		{dz.Whole, "ff0e::/16"},
	}
	for _, tt := range tests {
		got, err := FromExpr(tt.expr)
		if err != nil {
			t.Fatalf("FromExpr(%q): %v", tt.expr, err)
		}
		if got.String() != tt.want {
			t.Errorf("FromExpr(%q)=%v, want %v", tt.expr, got, tt.want)
		}
	}
}

func TestPaperMatchExample(t *testing.T) {
	// "an event dz = 101101 can be matched against a flow with dz = 101":
	// ff0e:a000::/19 ≥ ff0e:b400::/22.
	flow, err := FromExpr("101")
	if err != nil {
		t.Fatal(err)
	}
	ev, err := EventAddr("101101")
	if err != nil {
		t.Fatal(err)
	}
	if !flow.Contains(ev) {
		t.Error("flow 101 must match event 101101")
	}
	other, err := EventAddr("100101")
	if err != nil {
		t.Fatal(err)
	}
	if flow.Contains(other) {
		t.Error("flow 101 must not match event 100101")
	}
}

func TestFromExprValidation(t *testing.T) {
	if _, err := FromExpr("10x"); err == nil {
		t.Error("invalid expr must fail")
	}
	long := make([]byte, MaxDzLen+1)
	for i := range long {
		long[i] = '0'
	}
	if _, err := FromExpr(dz.Expr(long)); err == nil {
		t.Error("over-long expr must fail")
	}
	max := make([]byte, MaxDzLen)
	for i := range max {
		max[i] = '1'
	}
	if _, err := FromExpr(dz.Expr(max)); err != nil {
		t.Errorf("max-length expr must succeed: %v", err)
	}
}

// TestExprFromAddr: KeyFromAddr reads an event's dz back out of its
// address, and refuses addresses outside ff0e::/16.
func TestExprFromAddr(t *testing.T) {
	addr, err := EventAddr("10110")
	if err != nil {
		t.Fatal(err)
	}
	k, ok := KeyFromAddr(addr)
	if !ok || k.Prefix(3).Expr() != "101" {
		t.Errorf("KeyFromAddr(%v) = %q, %v, want a key starting 101", addr, k.Expr(), ok)
	}
	for _, bad := range []string{"1.2.3.4", "fe80::1"} {
		if _, ok := KeyFromAddr(netip.MustParseAddr(bad)); ok {
			t.Errorf("KeyFromAddr(%s) must fail", bad)
		}
	}
}

func TestSignalAddr(t *testing.T) {
	if !IsSignal(SignalAddr) {
		t.Error("SignalAddr must be a signal")
	}
	ev, _ := EventAddr("0")
	if IsSignal(ev) {
		t.Error("event addr must not be a signal")
	}
}

func randomExpr(r *rand.Rand, maxLen int) dz.Expr {
	n := r.Intn(maxLen + 1)
	buf := make([]byte, n)
	for i := range buf {
		buf[i] = byte('0' + r.Intn(2))
	}
	return dz.Expr(buf)
}

// TestPropertyRoundTrip: FromExpr(e) is the prefix of e's length behind
// ff0e, and KeyFromAddr reads e back out of its address.
func TestPropertyRoundTrip(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		e := randomExpr(r, MaxDzLen)
		p, err := FromExpr(e)
		if err != nil || p.Bits() != basePrefixLen+e.Len() {
			return false
		}
		back, ok := KeyFromAddr(p.Addr())
		return ok && back.Prefix(e.Len()).Expr() == e
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

// TestPropertyCoverEquivalence: dz covering ⟺ prefix containment of the
// embedded addresses, provided the event expression is at least as long as
// the flow expression (PLEROMA's invariant: events carry maximum-length dz,
// flows are truncated). This is the core claim that makes TCAM filtering
// equivalent to content filtering.
func TestPropertyCoverEquivalence(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		a := randomExpr(r, 24)
		// The event dz must be at least as long as the flow dz; bias half
		// the cases towards true coverage so both outcomes are exercised.
		var b dz.Expr
		if r.Intn(2) == 0 {
			b = a + randomExpr(r, 10)
		} else {
			b = randomExpr(r, 34)
			for b.Len() < a.Len() {
				b = b.Child(byte(r.Intn(2)))
			}
		}
		pa, err := FromExpr(a)
		if err != nil {
			return false
		}
		addrB, err := EventAddr(b)
		if err != nil {
			return false
		}
		// A flow for subspace a matches an event with dz b iff a covers b.
		return pa.Contains(addrB) == a.Covers(b)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func BenchmarkFromExpr(b *testing.B) {
	e := dz.Expr("101101001110101010110010")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := FromExpr(e); err != nil {
			b.Fatal(err)
		}
	}
}

// TestAddrFromKeyMatchesEventAddr: the data path's converter (a copy of the
// key's bytes) and the boundary converter (a parse of the expression) give
// the same address, and KeyFromAddr reads the key back out of it, zero-padded
// as PadKey pads it without the address — for random keys and for the lengths
// where a byte or the address ends.
func TestAddrFromKeyMatchesEventAddr(t *testing.T) {
	r := rand.New(rand.NewSource(21))
	lens := []int{0, 1, 7, 8, 9, 111, MaxDzLen}
	for i := 0; i < 500; i++ {
		lens = append(lens, r.Intn(MaxDzLen+1))
	}
	for _, n := range lens {
		buf := make([]byte, n)
		for i := range buf {
			buf[i] = byte('0' + r.Intn(2))
		}
		e := dz.Expr(buf)
		k, ok := dz.KeyOf(e)
		if !ok {
			t.Fatalf("KeyOf(%q) overflowed", e)
		}
		want, err := EventAddr(k.Expr())
		if err != nil {
			t.Fatal(err)
		}
		got := AddrFromKey(k)
		if got != want {
			t.Fatalf("AddrFromKey(%q) = %v, EventAddr = %v", e, got, want)
		}
		back, ok := KeyFromAddr(got)
		if !ok || back.Prefix(k.Len()) != k {
			t.Fatalf("KeyFromAddr(AddrFromKey(%q)) = %q, %v", e, back.Expr(), ok)
		}
		if pad := PadKey(k); pad != back || pad.Len() != MaxDzLen {
			t.Fatalf("PadKey(%q) = %q, the address carries %q", e, pad.Expr(), back.Expr())
		}
		if fromExpr, err := KeyFromExpr(e); err != nil || fromExpr != k {
			t.Fatalf("KeyFromExpr(%q) = %q, %v", e, fromExpr.Expr(), err)
		}
	}
	for _, bad := range []dz.Expr{"10x", dz.Expr(strings.Repeat("1", MaxDzLen+1))} {
		if _, err := KeyFromExpr(bad); err == nil {
			t.Errorf("KeyFromExpr(%q) must fail", bad)
		}
	}
}
