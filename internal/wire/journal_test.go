package wire_test

import (
	"reflect"
	"testing"

	"pleroma/internal/dz"
	"pleroma/internal/wire"
)

func TestJournalRecordRoundTrip(t *testing.T) {
	cases := []wire.Record{
		{Epoch: 0, Seq: 1, Op: wire.OpAdvertise, ID: "p1", Node: 3,
			Set: dz.NewSet(dz.Expr("01"), dz.Expr("110"))},
		{Epoch: 2, Seq: 900, Op: wire.OpSubscribe, ID: "xsub:s9#4", Node: 12, ViaPort: 7,
			Set: dz.NewSet(dz.Expr(""))},
		{Epoch: 1, Seq: 2, Op: wire.OpUnsubscribe, ID: "s1"},
		{Epoch: 4, Seq: 1 << 40, Op: wire.OpUnadvertise, ID: "p1"},
		{Epoch: 7, Seq: 77, Op: wire.OpReconfigure},
	}
	for _, rec := range cases {
		b, err := wire.AppendRecord(nil, rec)
		if err != nil {
			t.Fatalf("encode %+v: %v", rec, err)
		}
		got, err := wire.DecodeRecord(b)
		if err != nil {
			t.Fatalf("decode %+v: %v", rec, err)
		}
		if !reflect.DeepEqual(got, rec) {
			t.Errorf("round trip: got %+v, want %+v", got, rec)
		}
		// Re-encoding the decoded record must be byte-identical (the
		// journal's determinism rests on this).
		b2, err := wire.AppendRecord(nil, got)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(b2, b) {
			t.Errorf("re-encode of %+v differs", rec)
		}
	}
}

func TestJournalRecordEncodeErrors(t *testing.T) {
	long := make([]byte, wire.MaxIDLen+1)
	for i := range long {
		long[i] = 'x'
	}
	cases := []struct {
		name string
		rec  wire.Record
	}{
		{"unknown op", wire.Record{Op: "mystery", ID: "a"}},
		{"empty id", wire.Record{Op: wire.OpAdvertise}},
		{"oversized id", wire.Record{Op: wire.OpAdvertise, ID: string(long)}},
		{"reconfigure with id", wire.Record{Op: wire.OpReconfigure, ID: "a"}},
	}
	for _, tc := range cases {
		if _, err := wire.AppendRecord(nil, tc.rec); err == nil {
			t.Errorf("%s: want error", tc.name)
		}
	}
}

func TestJournalRecordDecodeErrors(t *testing.T) {
	good, err := wire.AppendRecord(nil, wire.Record{
		Op: wire.OpAdvertise, ID: "p", Seq: 1, Set: dz.NewSet(dz.Expr("0")),
	})
	if err != nil {
		t.Fatal(err)
	}

	if _, err := wire.DecodeRecord(good[:10]); err == nil {
		t.Error("truncated record must fail")
	}
	bad := append([]byte(nil), good...)
	bad[0] = 99
	if _, err := wire.DecodeRecord(bad); err == nil {
		t.Error("bad version must fail")
	}
	bad = append([]byte(nil), good...)
	bad[1] = 0xEE
	if _, err := wire.DecodeRecord(bad); err == nil {
		t.Error("bad op code must fail")
	}
	if _, err := wire.DecodeRecord(append(good, 0)); err == nil {
		t.Error("trailing bytes must fail")
	}
}

func TestAppendReadSetRoundTrip(t *testing.T) {
	sets := []dz.Set{
		nil,
		dz.NewSet(dz.Expr("")),
		dz.NewSet(dz.Expr("0"), dz.Expr("10"), dz.Expr("111")),
	}
	for _, s := range sets {
		b, err := wire.AppendSet(nil, s)
		if err != nil {
			t.Fatal(err)
		}
		got, rest, err := wire.ReadSet(append(b, 0xAB))
		if err != nil {
			t.Fatal(err)
		}
		if len(rest) != 1 || rest[0] != 0xAB {
			t.Errorf("remainder: got %x", rest)
		}
		if !reflect.DeepEqual(got, s) {
			t.Errorf("set round trip: got %v, want %v", got, s)
		}
		// nil and empty must both re-encode identically.
		b2, err := wire.AppendSet(nil, got)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(b2, b) {
			t.Errorf("re-encode of %v differs", s)
		}
	}
	if _, _, err := wire.ReadSet([]byte{0}); err == nil {
		t.Error("truncated set header must fail")
	}
}
