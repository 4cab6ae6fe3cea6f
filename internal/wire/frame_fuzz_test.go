package wire

import (
	"bytes"
	"fmt"
	"reflect"
	"slices"
	"testing"

	"pleroma/internal/space"
)

// The codec fuzzers feed raw bytes to every transport decoder: none may
// panic, and any input a decoder accepts must re-encode to the exact same
// bytes (the decoders reject trailing garbage and non-canonical forms, so
// encode∘decode is the identity on accepted inputs). Seed corpora live
// under testdata/fuzz/<FuzzName>/ like the dz trie fuzzers'.

func FuzzDecodeFrame(f *testing.F) {
	seed, _ := AppendFrame(nil, Frame{Kind: KindControl, Corr: 7, Payload: []byte{1, 2, 3}})
	f.Add(seed)
	f.Add([]byte{})
	f.Add([]byte{0, 0, 0, 9, 1, 0, 0, 0, 0, 0, 0, 0, 0})
	f.Fuzz(func(t *testing.T, b []byte) {
		fr, rest, err := decodeFrame(b)
		if err != nil {
			return
		}
		reenc, err := AppendFrame(nil, fr)
		if err != nil {
			t.Fatalf("decoded frame does not re-encode: %v", err)
		}
		if !bytes.Equal(reenc, b[:len(b)-len(rest)]) {
			t.Fatalf("frame re-encoding drifted")
		}
		// The io path must agree with the slice path.
		fr2, _, err := ReadFrame(bytes.NewReader(b), nil)
		if err != nil {
			t.Fatalf("ReadFrame rejected what decodeFrame accepted: %v", err)
		}
		if fr2.Kind != fr.Kind || fr2.Corr != fr.Corr || !bytes.Equal(fr2.Payload, fr.Payload) {
			t.Fatalf("ReadFrame and decodeFrame disagree")
		}
	})
}

func FuzzDecodeControlReq(f *testing.F) {
	seed, _ := EncodeControlReq(ControlReq{
		Op: "subscribe", ID: "s1", Host: 3,
		Ranges: []Range{{Attr: "x", Lo: 0, Hi: 99}, {Attr: "y", Lo: 1, Hi: 5}},
	})
	f.Add(seed)
	seed2, _ := EncodeControlReq(ControlReq{Op: "unadvertise", ID: "p", Host: 0})
	f.Add(seed2)
	f.Fuzz(func(t *testing.T, b []byte) {
		req, err := DecodeControlReq(b)
		if err != nil {
			return
		}
		reenc, err := EncodeControlReq(req)
		if err != nil {
			t.Fatalf("decoded control request does not re-encode: %v", err)
		}
		if !bytes.Equal(reenc, b) {
			t.Fatalf("control request re-encoding drifted:\n in  %x\n out %x", b, reenc)
		}
	})
}

func FuzzDecodePublish(f *testing.F) {
	good, _ := EncodePublish(PublishReq{ID: "p1", Events: []space.Event{
		{Values: []uint32{1, 2}},
		{Values: []uint32{3, 4}},
	}})
	f.Add(good)
	f.Fuzz(func(t *testing.T, b []byte) {
		req, err := DecodePublish(b)
		if err != nil {
			return
		}
		reenc, err := EncodePublish(req)
		if err != nil {
			t.Fatalf("decoded publish does not re-encode: %v", err)
		}
		if !bytes.Equal(reenc, b) {
			t.Fatalf("publish re-encoding drifted")
		}
	})
}

func FuzzDecodeDeliverBatch(f *testing.F) {
	good, _ := encodeDeliverBatch([]Delivery{
		{SubscriptionID: "s1", Event: space.Event{Values: []uint32{1, 2}}, At: 3, Latency: 1},
		{SubscriptionID: "s2", Event: space.Event{Values: []uint32{4}}, At: 5, Latency: 2, FalsePositive: true},
	})
	f.Add(good)
	traced, _ := encodeDeliverBatch([]Delivery{
		{SubscriptionID: "s", Event: space.Event{Values: []uint32{9}},
			TraceID: 7, SpanID: 9, PubWallNanos: 11, Hops: 2},
	})
	f.Add(traced)
	// Batches of one — every delivery that used to travel as its own frame.
	one, _ := encodeDeliverBatch([]Delivery{{
		SubscriptionID: "s",
		Event:          space.Event{Values: []uint32{9, 10}},
		At:             5, Latency: 2, FalsePositive: true,
	}})
	f.Add(one)
	// The reader's form: every input is also decoded into storage reused
	// from the inputs before, dirty with their deliveries (and, at first,
	// with ones longer than most batches).
	reused := make([]Delivery, 8, 16)
	for i := range reused {
		reused[i] = Delivery{SubscriptionID: "stale", Event: space.Event{Values: []uint32{uint32(i), 1, 2}}, At: 99, Hops: 3}
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		kept := reused[0].Event.Values // a handler may keep a delivery's values
		keptCopy := slices.Clone(kept)
		ds, err := DecodeDeliverBatch(b)
		into, intoErr := DecodeDeliverBatchTo(reused, b)
		if !slices.Equal(kept, keptCopy) {
			t.Fatalf("a kept delivery's values changed under a later decode into the same storage")
		}
		if fmt.Sprint(err) != fmt.Sprint(intoErr) {
			t.Fatalf("decoding into reused storage failed with %v, a fresh decode with %v", intoErr, err)
		}
		if err != nil {
			return
		}
		if !reflect.DeepEqual(into, ds) {
			t.Fatalf("decoding into reused storage read %+v, a fresh decode %+v", into, ds)
		}
		for i, d := range into {
			if cap(d.Event.Values) != len(d.Event.Values) {
				t.Fatalf("delivery %d: values have capacity %d for %d values", i, cap(d.Event.Values), len(d.Event.Values))
			}
		}
		reused = into
		reenc, err := encodeDeliverBatch(ds)
		if err != nil {
			t.Fatalf("decoded deliver batch does not re-encode: %v", err)
		}
		if !bytes.Equal(reenc, b) {
			t.Fatalf("deliver batch re-encoding drifted:\n in  %x\n out %x", b, reenc)
		}
	})
}

// FuzzFrameStream drives the streaming reader over arbitrary byte streams:
// ReadFrame must consume frames one at a time without panicking and stop
// cleanly at the first malformed or incomplete frame. One pass threads a
// single reused buffer through its reads, the other passes nil: both must
// read the same frames and fail alike, and a nil-buffer payload is exact
// and stays intact across later reads.
func FuzzFrameStream(f *testing.F) {
	var stream []byte
	for _, fr := range []Frame{
		{Kind: KindRun, Corr: 1},
		{Kind: KindRunDone, Corr: 1, Payload: EncodeU64(12345)},
		{Kind: KindSync, Corr: 2},
	} {
		stream, _ = AppendFrame(stream, fr)
	}
	f.Add(stream)
	f.Fuzz(func(t *testing.T, b []byte) {
		reused, fresh := bytes.NewReader(b), bytes.NewReader(b)
		buf := make([]byte, 0, 16) // room for a header, not for most payloads
		var prev, prevCopy []byte
		for i := 0; i < 1000; i++ {
			var got Frame
			var err error
			got, buf, err = ReadFrame(reused, buf)
			want, _, wantErr := ReadFrame(fresh, nil)
			if fmt.Sprint(err) != fmt.Sprint(wantErr) {
				t.Fatalf("frame %d: reused buffer read error %v, nil buffer %v", i, err, wantErr)
			}
			if !bytes.Equal(prev, prevCopy) {
				t.Fatalf("frame %d: a nil-buffer payload changed under a later read", i-1)
			}
			if err != nil {
				return // EOF, truncation, or protocol error — all fine, as long as no panic
			}
			if got.Kind != want.Kind || got.Corr != want.Corr || !bytes.Equal(got.Payload, want.Payload) {
				t.Fatalf("frame %d: reused buffer read %v/%d/%x, nil buffer %v/%d/%x",
					i, got.Kind, got.Corr, got.Payload, want.Kind, want.Corr, want.Payload)
			}
			if cap(want.Payload) != len(want.Payload) {
				t.Fatalf("frame %d: nil-buffer payload has capacity %d for %d bytes", i, cap(want.Payload), len(want.Payload))
			}
			prev, prevCopy = want.Payload, bytes.Clone(want.Payload)
		}
	})
}
