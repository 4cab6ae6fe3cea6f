package dz

import (
	"bytes"
	"strings"
	"testing"
)

// FuzzKeyOrderVsExpr: for any two keys of 0–112 bits, Key.Compare equals the
// string order of their expressions and Key.Covers equals Expr.Covers, both
// ways round. The controller sorts its changed keys, emits its FlowMods and
// writes its snapshot in Key.Compare order and unwinds its derivation stack
// by Key.Covers, so its FlowMods and snapshot bytes are those of the
// expression-keyed code only while this holds. b takes its first `shared`
// bits from a, so that equal keys, prefixes and keys that part late are
// common inputs.
func FuzzKeyOrderVsExpr(f *testing.F) {
	f.Add([]byte{0xa5}, []byte{0xa4}, uint8(8), uint8(8), uint8(7))
	f.Add([]byte{}, []byte{0xff}, uint8(0), uint8(3), uint8(0))
	f.Add([]byte{0x12, 0x34}, []byte{}, uint8(16), uint8(12), uint8(12))
	f.Add([]byte{0x80}, []byte{0x80}, uint8(1), uint8(9), uint8(1))
	f.Add(bytes.Repeat([]byte{0xff}, 14), bytes.Repeat([]byte{0xfe}, 14), uint8(112), uint8(111), uint8(64))
	f.Fuzz(func(t *testing.T, rawA, rawB []byte, la, lb, shared uint8) {
		var ba, bb [14]byte
		copy(ba[:], rawA)
		copy(bb[:], rawB)
		for i := 0; i < int(shared)%(MaxKeyBits+1); i++ {
			m := byte(1) << uint(7-i&7)
			bb[i>>3] = bb[i>>3]&^m | ba[i>>3]&m
		}
		a := KeyFromBits(ba, int(la)%(MaxKeyBits+1))
		b := KeyFromBits(bb, int(lb)%(MaxKeyBits+1))
		ea, eb := a.Expr(), b.Expr()
		for _, p := range [][2]Key{{a, b}, {b, a}} {
			x, y := p[0], p[1]
			ex, ey := x.Expr(), y.Expr()
			if got, want := x.Compare(y), strings.Compare(string(ex), string(ey)); got != want {
				t.Fatalf("Key(%q).Compare(Key(%q)) = %d, the expressions compare %d", ex, ey, got, want)
			}
			if got, want := x.Covers(y), ex.Covers(ey); got != want {
				t.Fatalf("Key(%q).Covers(Key(%q)) = %v, Expr.Covers says %v", ex, ey, got, want)
			}
		}
		if (a == b) != (ea == eb) {
			t.Fatalf("Key(%q) == Key(%q) is %v", ea, eb, a == b)
		}
	})
}
