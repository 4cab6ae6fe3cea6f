package dz

import (
	"encoding/binary"
	"fmt"
	"testing"
)

// bisectPoint is the encoder as it was before the packed one existed, kept
// as the oracle: it narrows a [lo, hi] interval per dimension and emits, per
// bit, which half holds the (clamped) coordinate. It shares nothing with
// pointBit, the definition EncodePoint and EncodeKey now both use.
func bisectPoint(g Geometry, point []uint32, length int) (Expr, error) {
	if len(point) != g.Dims {
		return "", fmt.Errorf("dz: point has %d dims, geometry has %d", len(point), g.Dims)
	}
	if length < 0 {
		return "", fmt.Errorf("dz: negative dz length %d", length)
	}
	if length > g.MaxLen() {
		length = g.MaxLen()
	}
	buf := make([]byte, length)
	lo := make([]uint32, g.Dims)
	hi := make([]uint32, g.Dims)
	for d := range hi {
		hi[d] = g.DomainSize() - 1
	}
	for i := 0; i < length; i++ {
		d := i % g.Dims
		v := point[d]
		if v > g.DomainSize()-1 {
			v = g.DomainSize() - 1
		}
		mid := lo[d] + (hi[d]-lo[d])/2
		if v <= mid {
			buf[i] = '0'
			hi[d] = mid
		} else {
			buf[i] = '1'
			lo[d] = mid + 1
		}
	}
	return Expr(buf), nil
}

// FuzzEncodeKeyVsExpr: for any geometry of 1–8 dimensions × 1–16 bits, any
// point — coordinates inside and far outside the domain, one coordinate too
// few or too many — and any length from negative to past MaxLen, the string
// encoder equals the bisection oracle, and the packed encoder equals KeyOf of
// the string whenever a key can hold it, fails with the string encoder's
// error when that fails, and fails when the dz is longer than a key.
func FuzzEncodeKeyVsExpr(f *testing.F) {
	f.Add(uint8(1), uint8(9), int16(20), uint8(0), []byte{0x2a, 0, 0, 0, 0xe8, 3, 0, 0})
	f.Add(uint8(7), uint8(15), int16(500), uint8(0), []byte{0xff, 0xff, 0xff, 0xff, 1})
	f.Add(uint8(2), uint8(3), int16(-1), uint8(0), []byte{})
	f.Add(uint8(3), uint8(7), int16(5), uint8(7), []byte{9, 9, 9})
	f.Fuzz(func(t *testing.T, dims, bits uint8, length int16, arity uint8, raw []byte) {
		g, err := NewGeometry(1+int(dims%8), 1+int(bits%16))
		if err != nil {
			t.Fatal(err)
		}
		n := g.Dims
		switch arity % 8 {
		case 6:
			n--
		case 7:
			n++
		}
		point := make([]uint32, n)
		for d := range point {
			var word [4]byte
			if 4*d < len(raw) {
				copy(word[:], raw[4*d:])
			}
			point[d] = binary.LittleEndian.Uint32(word[:])
		}

		want, wantErr := bisectPoint(g, point, int(length))
		expr, exprErr := g.EncodePoint(point, int(length))
		if fmt.Sprint(exprErr) != fmt.Sprint(wantErr) || expr != want {
			t.Fatalf("%+v EncodePoint(%v, %d) = %q, %v; bisection gives %q, %v", g, point, length, expr, exprErr, want, wantErr)
		}
		key, keyErr := g.EncodeKey(point, int(length))
		switch {
		case wantErr != nil:
			if fmt.Sprint(keyErr) != fmt.Sprint(wantErr) {
				t.Fatalf("%+v EncodeKey(%v, %d) fails with %v, EncodePoint with %v", g, point, length, keyErr, wantErr)
			}
		case want.Len() > MaxKeyBits:
			if keyErr == nil {
				t.Fatalf("%+v EncodeKey(%v, %d) packed a %d-bit dz into %q", g, point, length, want.Len(), key.Expr())
			}
		default:
			if wantKey, _ := KeyOf(want); keyErr != nil || key != wantKey || key.Expr() != want {
				t.Fatalf("%+v EncodeKey(%v, %d) = %q, %v; want %q", g, point, length, key.Expr(), keyErr, want)
			}
		}
	})
}
