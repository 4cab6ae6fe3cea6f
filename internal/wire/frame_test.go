package wire

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"reflect"
	"slices"
	"strings"
	"testing"
	"time"

	"pleroma/internal/space"
)

// decodeFrame parses one frame from the front of b, returning it and the
// remainder: the slice form of ReadFrame that FuzzDecodeFrame checks it
// against. io.ErrUnexpectedEOF signals an incomplete frame (more bytes
// needed); every other error is a protocol violation.
func decodeFrame(b []byte) (Frame, []byte, error) {
	if len(b) < FrameHeaderLen {
		return Frame{}, b, io.ErrUnexpectedEOF
	}
	length := binary.BigEndian.Uint32(b)
	if length < 9 || length > 9+MaxFramePayload {
		return Frame{}, b, fmt.Errorf("wire: frame length %d out of range", length)
	}
	kind := Kind(b[4])
	if !kind.Valid() {
		return Frame{}, b, fmt.Errorf("wire: invalid frame kind %d", b[4])
	}
	if len(b) < 4+int(length) {
		return Frame{}, b, io.ErrUnexpectedEOF
	}
	f := Frame{
		Kind:    kind,
		Corr:    binary.BigEndian.Uint64(b[5:]),
		Payload: b[FrameHeaderLen : 4+length],
	}
	return f, b[4+length:], nil
}

// encodeDeliverBatch is AppendDeliverBatch for a batch that must fit one
// frame whole: 1..MaxDeliveries deliveries, or an error.
func encodeDeliverBatch(ds []Delivery) ([]byte, error) {
	if len(ds) == 0 || len(ds) > MaxDeliveries {
		return nil, fmt.Errorf("wire: deliver batch with %d deliveries, want 1..%d", len(ds), MaxDeliveries)
	}
	buf, n, err := AppendDeliverBatch(nil, ds, MaxFramePayload)
	if err != nil {
		return nil, err
	}
	if n != len(ds) {
		return nil, fmt.Errorf("wire: deliver batch of %d deliveries exceeds %d payload bytes", len(ds), MaxFramePayload)
	}
	return buf, nil
}

func TestFrameRoundTrip(t *testing.T) {
	frames := []Frame{
		{Kind: KindHello, Corr: 1, Payload: []byte("x")},
		{Kind: KindOK, Corr: 0xdeadbeefcafe, Payload: nil},
		{Kind: KindDeliverBatch, Corr: 0, Payload: bytes.Repeat([]byte{7}, 1000)},
		{Kind: KindGoodbye, Corr: 0, Payload: nil},
	}
	var buf []byte
	for _, f := range frames {
		var err error
		buf, err = AppendFrame(buf, f)
		if err != nil {
			t.Fatal(err)
		}
	}
	// Decode from the concatenated stream.
	rest := buf
	for i, want := range frames {
		var got Frame
		var err error
		got, rest, err = decodeFrame(rest)
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if got.Kind != want.Kind || got.Corr != want.Corr || !bytes.Equal(got.Payload, want.Payload) {
			t.Fatalf("frame %d mismatch: got %+v want %+v", i, got, want)
		}
	}
	if len(rest) != 0 {
		t.Fatalf("%d bytes left over", len(rest))
	}
	// And via the io.Reader path.
	r := bytes.NewReader(buf)
	for i, want := range frames {
		got, _, err := ReadFrame(r, nil)
		if err != nil {
			t.Fatalf("read frame %d: %v", i, err)
		}
		if got.Kind != want.Kind || got.Corr != want.Corr || !bytes.Equal(got.Payload, want.Payload) {
			t.Fatalf("read frame %d mismatch", i)
		}
	}
	if _, _, err := ReadFrame(r, nil); err != io.EOF {
		t.Fatalf("want io.EOF at stream end, got %v", err)
	}
}

func TestFrameErrors(t *testing.T) {
	if _, err := AppendFrame(nil, Frame{Kind: 0}); err == nil {
		t.Error("invalid kind accepted")
	}
	if _, err := AppendFrame(nil, Frame{Kind: KindOK, Payload: make([]byte, MaxFramePayload+1)}); err == nil {
		t.Error("oversize payload accepted")
	}
	// Truncated header and truncated body must ask for more bytes.
	ok, _ := AppendFrame(nil, Frame{Kind: KindOK, Corr: 9})
	for cut := 0; cut < len(ok); cut++ {
		if _, _, err := decodeFrame(ok[:cut]); err != io.ErrUnexpectedEOF {
			t.Fatalf("cut %d: want ErrUnexpectedEOF, got %v", cut, err)
		}
	}
	// Oversize length header must be rejected before allocation.
	bad := append([]byte(nil), ok...)
	bad[0], bad[1], bad[2], bad[3] = 0xff, 0xff, 0xff, 0xff
	if _, _, err := decodeFrame(bad); err == nil || err == io.ErrUnexpectedEOF {
		t.Fatalf("oversize length: got %v", err)
	}
	if _, _, err := ReadFrame(bytes.NewReader(bad), nil); err == nil || err == io.EOF {
		t.Fatalf("oversize length via reader: got %v", err)
	}
	// A frame claiming an undefined kind is rejected.
	bad = append([]byte(nil), ok...)
	bad[4] = 200
	if _, _, err := decodeFrame(bad); err == nil {
		t.Error("undefined kind accepted")
	}
}

func TestHelloRoundTrip(t *testing.T) {
	b, err := EncodeHello(Hello{ID: "client-7"})
	if err != nil {
		t.Fatal(err)
	}
	h, err := DecodeHello(b)
	if err != nil {
		t.Fatal(err)
	}
	if h.ID != "client-7" {
		t.Fatalf("got %+v", h)
	}
	if _, err := EncodeHello(Hello{}); err == nil {
		t.Error("empty id accepted")
	}
	if _, err := DecodeHello(append(b, 0)); err == nil {
		t.Error("trailing garbage accepted")
	}
}

func TestHelloOKRoundTrip(t *testing.T) {
	in := HelloOK{Hosts: []uint32{3, 5, 9}, Partitions: []int32{0, 1, -1}}
	b, err := EncodeHelloOK(in)
	if err != nil {
		t.Fatal(err)
	}
	out, err := DecodeHelloOK(b)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(in, out) {
		t.Fatalf("got %+v want %+v", out, in)
	}
	if _, err := DecodeHelloOK(b[:len(b)-1]); err == nil {
		t.Error("truncated hello-ok accepted")
	}
	if _, err := DecodeHelloOK(append(b, 0)); err == nil {
		t.Error("trailing garbage accepted")
	}
}

func TestControlReqRoundTrip(t *testing.T) {
	in := ControlReq{
		Op:   "subscribe",
		ID:   "s1",
		Host: 42,
		Ranges: []Range{
			{Attr: "y", Lo: 5, Hi: 10},
			{Attr: "x", Lo: 0, Hi: 1023},
		},
	}
	b, err := EncodeControlReq(in)
	if err != nil {
		t.Fatal(err)
	}
	if in.Ranges[0].Attr != "y" {
		t.Error("encoding sorted the caller's ranges in place")
	}
	out, err := DecodeControlReq(b)
	if err != nil {
		t.Fatal(err)
	}
	// Encoding sorts ranges by attribute.
	want := in
	want.Ranges = []Range{{Attr: "x", Lo: 0, Hi: 1023}, {Attr: "y", Lo: 5, Hi: 10}}
	if !reflect.DeepEqual(want, out) {
		t.Fatalf("got %+v want %+v", out, want)
	}
	// Equal filters written in different orders encode identically.
	in2 := in
	in2.Ranges = []Range{in.Ranges[1], in.Ranges[0]}
	b2, err := EncodeControlReq(in2)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(b, b2) {
		t.Error("range order leaked into the encoding")
	}
	if _, err := EncodeControlReq(ControlReq{Op: "nope", ID: "x"}); err == nil {
		t.Error("unknown op accepted")
	}
	if _, err := DecodeControlReq(append(b, 0)); err == nil {
		t.Error("trailing garbage accepted")
	}
}

func TestPublishRoundTrip(t *testing.T) {
	in := PublishReq{ID: "p1", Events: []space.Event{
		{Values: []uint32{1, 2}},
		{Values: []uint32{3, 4}},
	}}
	b, err := EncodePublish(in)
	if err != nil {
		t.Fatal(err)
	}
	out, err := DecodePublish(b)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(in, out) {
		t.Fatalf("got %+v want %+v", out, in)
	}
	if _, err := EncodePublish(PublishReq{ID: "p"}); err == nil {
		t.Error("empty publish accepted")
	}
	if _, err := DecodePublish(b[:len(b)-1]); err == nil {
		t.Error("truncated publish accepted")
	}
}

// TestPublishBufferSealsAppendPublishBytes: a request sealed from a
// PublishBuffer is AppendPublish's payload for the same events, byte for
// byte — plain and traced, through a buffer reused across seals — and the
// buffer owns its bytes: a caller reusing its values after Append changes
// nothing. A refused event and a refused seal leave the buffer as it was.
func TestPublishBufferSealsAppendPublishBytes(t *testing.T) {
	var pb PublishBuffer
	vals := make([]uint32, 3)
	for round, trace := range []TraceContext{{}, {TraceID: 7, SpanID: 8, PubWallNanos: 9}, {}} {
		var events []space.Event
		for i := 0; i <= 2*round; i++ {
			vals = vals[:1+i%3]
			for j := range vals {
				vals[j] = uint32(100*round + 10*i + j)
			}
			if err := pb.Append(space.Event{Values: vals}); err != nil {
				t.Fatal(err)
			}
			events = append(events, space.Event{Values: slices.Clone(vals)})
		}
		if err := pb.Append(space.Event{}); err == nil {
			t.Fatal("an event without values was accepted")
		}
		if _, err := pb.Seal(nil, "", 1, trace); err == nil {
			t.Fatal("a seal without a publisher id was accepted")
		}
		if pb.Len() != len(events) {
			t.Fatalf("round %d: %d events buffered, want %d", round, pb.Len(), len(events))
		}
		req := PublishReq{ID: "pub", Seq: uint64(round + 1), Events: events, Trace: trace}
		want, err := AppendPublish(nil, req)
		if err != nil {
			t.Fatal(err)
		}
		got, err := pb.Seal([]byte("prefix"), req.ID, req.Seq, req.Trace)
		if err != nil {
			t.Fatal(err)
		}
		if string(got[:6]) != "prefix" || !bytes.Equal(got[6:], want) {
			t.Fatalf("round %d: sealed %x, AppendPublish %x", round, got[6:], want)
		}
		if pb.Len() != 0 || pb.Size() != 0 {
			t.Fatalf("round %d: %d events, %d bytes left after the seal", round, pb.Len(), pb.Size())
		}
	}
	if _, err := pb.Seal(nil, "pub", 1, TraceContext{}); err == nil {
		t.Fatal("a seal of no events was accepted")
	}
}

// encodeOne / decodeOne are a DeliverBatch of one — how a single delivery
// travels.
func encodeOne(t *testing.T, d Delivery) []byte {
	t.Helper()
	b, err := encodeDeliverBatch([]Delivery{d})
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func decodeOne(b []byte) (Delivery, error) {
	ds, err := DecodeDeliverBatch(b)
	if err != nil {
		return Delivery{}, err
	}
	if len(ds) != 1 {
		return Delivery{}, fmt.Errorf("batch of %d, want 1", len(ds))
	}
	return ds[0], nil
}

func TestDeliveryRoundTrip(t *testing.T) {
	in := Delivery{
		SubscriptionID: "s9",
		Event:          space.Event{Values: []uint32{7, 8, 9}},
		At:             1500 * time.Microsecond,
		Latency:        300 * time.Microsecond,
		FalsePositive:  true,
	}
	b := encodeOne(t, in)
	out, err := decodeOne(b)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(in, out) {
		t.Fatalf("got %+v want %+v", out, in)
	}
	if _, err := decodeOne(append(b, 1)); err == nil {
		t.Error("trailing garbage accepted")
	}
}

func TestDeliverBatchRoundTrip(t *testing.T) {
	in := []Delivery{
		{SubscriptionID: "s1", Event: space.Event{Values: []uint32{1, 2}},
			At: 100 * time.Microsecond, Latency: 10 * time.Microsecond},
		{SubscriptionID: "s2", Event: space.Event{Values: []uint32{3}},
			At: 200 * time.Microsecond, FalsePositive: true},
		{SubscriptionID: "s3", Event: space.Event{Values: []uint32{4, 5, 6}},
			TraceID: 7, SpanID: 9, PubWallNanos: 11, Hops: 3},
	}
	b, err := encodeDeliverBatch(in)
	if err != nil {
		t.Fatal(err)
	}
	out, err := DecodeDeliverBatch(b)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(in, out) {
		t.Fatalf("got %+v want %+v", out, in)
	}
	if _, err := encodeDeliverBatch(nil); err == nil {
		t.Error("empty batch accepted")
	}
	if _, err := DecodeDeliverBatch(append(b, 1)); err == nil {
		t.Error("trailing garbage accepted")
	}
	if _, err := DecodeDeliverBatch(b[:len(b)-1]); err == nil {
		t.Error("truncated batch accepted")
	}
	if _, err := DecodeDeliverBatch([]byte{Version, 0, 0}); err == nil {
		t.Error("zero-count batch accepted")
	}
	if _, err := encodeDeliverBatch(make([]Delivery, MaxDeliveries+1)); err == nil {
		t.Error("oversize batch accepted")
	}
}

func TestAppendDeliverBatchChunking(t *testing.T) {
	ds := make([]Delivery, 40)
	for i := range ds {
		ds[i] = Delivery{SubscriptionID: "sub", Event: space.Event{Values: []uint32{uint32(i), 2, 3}}}
	}
	one, err := encodeDeliverBatch(ds[:1])
	if err != nil {
		t.Fatal(err)
	}
	// Cap each chunk at about four deliveries and reassemble: the chunks
	// must cover the batch exactly, in order, each consuming at least one.
	maxBytes := 3 + 4*(len(one)-3)
	var got []Delivery
	rest := ds
	for len(rest) > 0 {
		b, n, err := AppendDeliverBatch(nil, rest, maxBytes)
		if err != nil {
			t.Fatal(err)
		}
		if n < 1 {
			t.Fatalf("chunk consumed %d deliveries", n)
		}
		if len(b) > maxBytes && n > 1 {
			t.Fatalf("multi-delivery chunk of %d bytes exceeds cap %d", len(b), maxBytes)
		}
		dec, err := DecodeDeliverBatch(b)
		if err != nil {
			t.Fatal(err)
		}
		if len(dec) != n {
			t.Fatalf("chunk decodes to %d deliveries, consumed %d", len(dec), n)
		}
		got = append(got, dec...)
		rest = rest[n:]
	}
	if !reflect.DeepEqual(ds, got) {
		t.Fatalf("reassembled chunks drifted from input")
	}
	// A cap smaller than any single delivery still makes progress: one
	// delivery per frame (the frame-size limit protects the peer).
	if _, n, err := AppendDeliverBatch(nil, ds, 1); err != nil || n != 1 {
		t.Fatalf("tiny cap: n=%d err=%v, want 1 delivery", n, err)
	}
}

func TestU64RoundTrip(t *testing.T) {
	if b := EncodeU64(1 << 40); len(b) != 8 || binary.BigEndian.Uint64(b) != 1<<40 {
		t.Fatalf("u64: %x", b)
	}
}

// TestDecodersRejectOversizeCounts pins the header-driven limits: count
// fields beyond the codec maxima must fail before any allocation loop.
func TestDecodersRejectOversizeCounts(t *testing.T) {
	// Publish claiming 0xffff events with no bodies.
	pub := []byte{Version, 1, 'p', 0xff, 0xff}
	if _, err := DecodePublish(pub); err == nil || strings.Contains(err.Error(), "panic") {
		t.Errorf("oversize publish count: %v", err)
	}
	// Deliver batch claiming 0xffff deliveries with no bodies.
	db := []byte{Version, 0xff, 0xff}
	if _, err := DecodeDeliverBatch(db); err == nil || strings.Contains(err.Error(), "panic") {
		t.Errorf("oversize deliver batch count: %v", err)
	}
}

// TestFrameKindTable pins the frame-kind table byte by byte: exactly the
// thirteen live kinds are accepted, each under its number and name, and
// every other byte — the retired 11–14 included — is refused by Valid,
// AppendFrame, decodeFrame and ReadFrame alike.
func TestFrameKindTable(t *testing.T) {
	live := map[byte]string{
		1: "hello", 2: "hello-ok", 3: "ok", 4: "error", 5: "control",
		6: "publish", 7: "run", 8: "run-done", 9: "sync", 10: "deliver-batch",
		15: "digest", 16: "digest-result", 17: "goodbye",
	}
	for _, k := range []Kind{KindHello, KindHelloOK, KindOK, KindError, KindControl, KindPublish, KindRun,
		KindRunDone, KindSync, KindDeliverBatch, KindDigest, KindDigestResult, KindGoodbye} {
		if name, ok := live[byte(k)]; !ok || k.String() != name {
			t.Errorf("kind %d is %q, want %q", uint8(k), k, name)
		}
	}
	for b := 0; b < 256; b++ {
		k := Kind(b)
		name, want := live[byte(b)]
		if !want {
			name = fmt.Sprintf("kind(%d)", b)
		}
		if k.Valid() != want || k.String() != name {
			t.Errorf("byte %d: Valid=%v String=%q, want %v %q", b, k.Valid(), k, want, name)
		}
		_, appendErr := AppendFrame(nil, Frame{Kind: k, Corr: 1})
		// Built by hand: AppendFrame refuses the kinds under test.
		raw := []byte{0, 0, 0, 9, byte(b), 0, 0, 0, 0, 0, 0, 0, 1}
		_, _, decodeErr := decodeFrame(raw)
		_, _, readErr := ReadFrame(bytes.NewReader(raw), nil)
		for what, err := range map[string]error{"AppendFrame": appendErr, "decodeFrame": decodeErr, "ReadFrame": readErr} {
			if (err == nil) != want {
				t.Errorf("byte %d: %s err=%v, want accepted=%v", b, what, err, want)
			}
		}
	}
}
