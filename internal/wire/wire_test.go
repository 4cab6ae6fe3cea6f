package wire

import (
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"pleroma/internal/dz"
	"pleroma/internal/space"
)

func TestEventRoundTrip(t *testing.T) {
	ev := space.Event{Values: []uint32{0, 1023, 42, 4294967295}}
	b, err := appendEvent(nil, ev)
	if err != nil {
		t.Fatal(err)
	}
	got, rest, _, err := readEvent(b, nil)
	if err != nil || len(rest) != 0 {
		t.Fatalf("readEvent: %v, %d bytes left", err, len(rest))
	}
	if len(got.Values) != 4 {
		t.Fatalf("values=%v", got.Values)
	}
	for i := range ev.Values {
		if got.Values[i] != ev.Values[i] {
			t.Errorf("value %d: %d != %d", i, got.Values[i], ev.Values[i])
		}
	}
}

func TestEventValidation(t *testing.T) {
	if _, err := appendEvent(nil, space.Event{}); err == nil {
		t.Error("empty event must fail")
	}
	if _, err := appendEvent(nil, space.Event{Values: make([]uint32, MaxDims+1)}); err == nil {
		t.Error("oversized event must fail")
	}
	for what, b := range map[string][]byte{
		"nil payload":       nil,
		"bad version":       {99, 1, 0, 0, 0, 0},
		"zero dims":         {Version, 0},
		"dims over MaxDims": {Version, MaxDims + 1},
		"truncated values":  {Version, 2, 0, 0, 0, 0},
	} {
		if _, _, _, err := readEvent(b, nil); err == nil {
			t.Errorf("%s must fail", what)
		}
	}
}

func TestSignalRoundTrip(t *testing.T) {
	s := Signal{
		Op:   "subscribe",
		ID:   "trader-42",
		Host: 17,
		Set:  dz.NewSet("101", "0010", ""),
	}
	b, err := EncodeSignal(s)
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecodeSignal(b)
	if err != nil {
		t.Fatal(err)
	}
	if got.Op != s.Op || got.ID != s.ID || got.Host != s.Host {
		t.Errorf("got=%+v", got)
	}
	if !got.Set.Equal(s.Set) {
		t.Errorf("set=%v, want %v", got.Set, s.Set)
	}
}

// TestOpAllCodecs: every Op round-trips through all three codecs that carry
// one — Signal, ControlReq, Record — under the same wire code, and
// reconfigure is journal-only.
func TestOpAllCodecs(t *testing.T) {
	for code, op := range []Op{1: OpAdvertise, 2: OpSubscribe, 3: OpUnsubscribe, 4: OpUnadvertise, 5: OpReconfigure} {
		if code == 0 {
			continue
		}
		id := "x"
		if op == OpReconfigure {
			id = "" // reconfigure records carry no client id
		}
		rb, err := AppendRecord(nil, Record{Seq: 1, Op: op, ID: id})
		if err != nil {
			t.Fatalf("record %s: %v", op, err)
		}
		if rec, err := DecodeRecord(rb); err != nil || rec.Op != op || rb[1] != byte(code) {
			t.Errorf("record %s: got op %q code %d err %v", op, rec.Op, rb[1], err)
		}

		sb, serr := EncodeSignal(Signal{Op: op, ID: "x", Host: 1, Set: dz.NewSet("1")})
		cb, cerr := EncodeControlReq(ControlReq{Op: op, ID: "x", Host: 1})
		if op == OpReconfigure {
			if serr == nil || cerr == nil {
				t.Errorf("reconfigure encoded outside the journal (signal err %v, control err %v)", serr, cerr)
			}
			// ... and its code is refused on decode too.
			ok, _ := EncodeSignal(Signal{Op: OpSubscribe, ID: "x", Host: 1})
			ok[1] = byte(code)
			if _, err := DecodeSignal(ok); err == nil {
				t.Error("signal with the reconfigure code decoded")
			}
			ok, _ = EncodeControlReq(ControlReq{Op: OpSubscribe, ID: "x", Host: 1})
			ok[1] = byte(code)
			if _, err := DecodeControlReq(ok); err == nil {
				t.Error("control request with the reconfigure code decoded")
			}
			continue
		}
		if serr != nil || cerr != nil {
			t.Fatalf("%s: signal err %v, control err %v", op, serr, cerr)
		}
		if sig, err := DecodeSignal(sb); err != nil || sig.Op != op || sb[1] != byte(code) {
			t.Errorf("signal %s: got op %q code %d err %v", op, sig.Op, sb[1], err)
		}
		if req, err := DecodeControlReq(cb); err != nil || req.Op != op || cb[1] != byte(code) {
			t.Errorf("control %s: got op %q code %d err %v", op, req.Op, cb[1], err)
		}
	}
	if _, err := AppendRecord(nil, Record{Seq: 1, Op: "bogus", ID: "x"}); err == nil {
		t.Error("unknown op journaled")
	}
}

func TestSignalValidation(t *testing.T) {
	if _, err := EncodeSignal(Signal{Op: "bogus", ID: "x"}); err == nil {
		t.Error("unknown op must fail")
	}
	if _, err := EncodeSignal(Signal{Op: "subscribe", ID: ""}); err == nil {
		t.Error("empty id must fail")
	}
	if _, err := EncodeSignal(Signal{Op: "subscribe", ID: strings.Repeat("x", 300)}); err == nil {
		t.Error("oversized id must fail")
	}
	long := make([]byte, MaxExprLen+1)
	for i := range long {
		long[i] = '0'
	}
	if _, err := EncodeSignal(Signal{Op: "subscribe", ID: "x",
		Set: dz.Set{dz.Expr(long)}}); err == nil {
		t.Error("oversized expr must fail")
	}
	if _, err := DecodeSignal(nil); err == nil {
		t.Error("nil must fail")
	}
	if _, err := DecodeSignal([]byte{Version, 77, 1, 'x', 0, 0, 0, 0, 0, 0}); err == nil {
		t.Error("bad op code must fail")
	}
	ok, _ := EncodeSignal(Signal{Op: "subscribe", ID: "x", Set: dz.NewSet("1")})
	if _, err := DecodeSignal(ok[:len(ok)-1]); err == nil {
		t.Error("truncated must fail")
	}
	if _, err := DecodeSignal(append(ok, 0)); err == nil {
		t.Error("trailing bytes must fail")
	}
}

// TestPropertySignalRoundTrip: random valid signals survive the codec.
func TestPropertySignalRoundTrip(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		ops := []Op{OpAdvertise, OpSubscribe, OpUnsubscribe, OpUnadvertise}
		n := r.Intn(5)
		exprs := make([]dz.Expr, n)
		for i := range exprs {
			l := r.Intn(30)
			buf := make([]byte, l)
			for j := range buf {
				buf[j] = byte('0' + r.Intn(2))
			}
			exprs[i] = dz.Expr(buf)
		}
		s := Signal{
			Op:   ops[r.Intn(len(ops))],
			ID:   "id" + string(rune('a'+r.Intn(26))),
			Host: r.Uint32(),
			Set:  dz.NewSet(exprs...),
		}
		b, err := EncodeSignal(s)
		if err != nil {
			return false
		}
		got, err := DecodeSignal(b)
		if err != nil {
			return false
		}
		return got.Op == s.Op && got.ID == s.ID && got.Host == s.Host && got.Set.Equal(s.Set)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

// FuzzDecodeSignal: the decoder must never panic and accepted inputs must
// re-encode.
func FuzzDecodeSignal(f *testing.F) {
	seed, _ := EncodeSignal(Signal{Op: "subscribe", ID: "s", Host: 3, Set: dz.NewSet("10")})
	f.Add(seed)
	f.Add([]byte{})
	f.Add([]byte{Version, 2, 1, 'x'}) // op code 2 = subscribe
	f.Fuzz(func(t *testing.T, b []byte) {
		s, err := DecodeSignal(b)
		if err != nil {
			return
		}
		if _, err := EncodeSignal(s); err != nil {
			t.Fatalf("decoded signal does not re-encode: %+v: %v", s, err)
		}
	})
}
