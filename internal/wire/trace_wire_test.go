package wire

import (
	"bytes"
	"reflect"
	"testing"
	"time"

	"pleroma/internal/space"
)

func TestPublishTraceRoundTrip(t *testing.T) {
	in := PublishReq{
		ID:     "p1",
		Seq:    42,
		Events: []space.Event{{Values: []uint32{1, 2}}},
		Trace:  TraceContext{TraceID: 0xdead, SpanID: 0xbeef, PubWallNanos: 1712345678901234567},
	}
	b, err := EncodePublish(in)
	if err != nil {
		t.Fatal(err)
	}
	if b[0] != tagTraced {
		t.Fatalf("traced publish tag = %d, want %d", b[0], tagTraced)
	}
	out, err := DecodePublish(b)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(in, out) {
		t.Fatalf("got %+v want %+v", out, in)
	}
	// Untraced publishes carry the plain payload.
	in.Trace = TraceContext{}
	b, err = EncodePublish(in)
	if err != nil {
		t.Fatal(err)
	}
	if b[0] != tagPlain {
		t.Fatalf("untraced publish tag = %d, want %d", b[0], tagPlain)
	}
	// A traced payload must carry a minted trace id: the zero context has a
	// canonical plain encoding.
	bad := append([]byte{tagTraced}, make([]byte, 24)...)
	bad = append(bad, b[1:]...)
	if _, err := DecodePublish(bad); err == nil {
		t.Error("traced publish with zero trace id accepted")
	}
}

func TestDeliveryTraceRoundTrip(t *testing.T) {
	in := Delivery{
		SubscriptionID: "s9",
		Event:          space.Event{Values: []uint32{7, 8}},
		At:             1500 * time.Microsecond,
		Latency:        300 * time.Microsecond,
		FalsePositive:  false,
		TraceID:        9,
		SpanID:         11,
		PubWallNanos:   77,
		Hops:           5,
	}
	// A delivery body sits behind the batch's [version u8][count u16].
	b := encodeOne(t, in)
	if b[3] != tagTraced {
		t.Fatalf("traced delivery tag = %d, want %d", b[3], tagTraced)
	}
	out, err := decodeOne(b)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(in, out) {
		t.Fatalf("got %+v want %+v", out, in)
	}
	if _, err := decodeOne(b[:13]); err == nil {
		t.Error("truncated trace context accepted")
	}
	// WallLatency is the receiver's own measure: it is not encoded, so the
	// bytes do not change and it decodes as 0.
	in.WallLatency = 3 * time.Millisecond
	if got := encodeOne(t, in); !bytes.Equal(got, b) {
		t.Fatalf("WallLatency changed the encoding:\n got %x\nwant %x", got, b)
	}
	if out, err = decodeOne(b); err != nil || out.WallLatency != 0 {
		t.Fatalf("decoded WallLatency %v (err %v), want 0", out.WallLatency, err)
	}
	in.WallLatency = 0
	// Hops travels as a u16: a count it cannot hold is refused, not
	// truncated; the extremes it can hold round-trip.
	for _, hops := range []int{-1, 1 << 16} {
		bad := in
		bad.Hops = hops
		if _, err := encodeDeliverBatch([]Delivery{bad}); err == nil {
			t.Errorf("hops %d encoded", hops)
		}
	}
	for _, hops := range []int{0, 1<<16 - 1} {
		edge := in
		edge.Hops = hops
		if out, err := decodeOne(encodeOne(t, edge)); err != nil || out.Hops != hops {
			t.Errorf("hops %d decoded as %d (err %v)", hops, out.Hops, err)
		}
	}
	// Untraced deliveries carry the plain payload and drop hops.
	in.TraceID, in.SpanID, in.PubWallNanos = 0, 0, 0
	b = encodeOne(t, in)
	if b[3] != tagPlain {
		t.Fatalf("untraced delivery tag = %d, want %d", b[3], tagPlain)
	}
	out, err = decodeOne(b)
	if err != nil {
		t.Fatal(err)
	}
	if out.Hops != 0 {
		t.Fatalf("hops leaked onto an untraced delivery: %d", out.Hops)
	}
}

func TestTraceContextValid(t *testing.T) {
	if (TraceContext{}).Valid() {
		t.Error("zero context reported valid")
	}
	if (TraceContext{SpanID: 1}).Valid() {
		t.Error("context without trace id reported valid")
	}
	if !(TraceContext{TraceID: 1}).Valid() {
		t.Error("minted context reported invalid")
	}
}
