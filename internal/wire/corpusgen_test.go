package wire

import (
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"testing"

	"pleroma/internal/space"
)

// TestGenFuzzCorpus regenerates the seed corpora under testdata/fuzz when
// PLEROMA_GEN_CORPUS=1. Normally a no-op.
func TestGenFuzzCorpus(t *testing.T) {
	if os.Getenv("PLEROMA_GEN_CORPUS") == "" {
		t.Skip("set PLEROMA_GEN_CORPUS=1 to regenerate")
	}
	write := func(fuzzName, seedName string, b []byte) {
		dir := filepath.Join("testdata", "fuzz", fuzzName)
		if err := os.MkdirAll(dir, 0o755); err != nil {
			t.Fatal(err)
		}
		body := "go test fuzz v1\n[]byte(" + strconv.Quote(string(b)) + ")\n"
		if err := os.WriteFile(filepath.Join(dir, seedName), []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	// FuzzDecodeFrame
	fr, _ := AppendFrame(nil, Frame{Kind: KindControl, Corr: 7, Payload: []byte{1, 2, 3}})
	write("FuzzDecodeFrame", "seed-control", fr)
	fr2, _ := AppendFrame(nil, Frame{Kind: KindRun, Corr: 1})
	write("FuzzDecodeFrame", "seed-empty-payload", fr2)
	write("FuzzDecodeFrame", "seed-truncated", fr[:len(fr)-2])
	write("FuzzDecodeFrame", "seed-oversize-len", []byte{0xff, 0xff, 0xff, 0xff, 1, 0, 0, 0, 0, 0, 0, 0, 0})

	// FuzzDecodeControlReq
	cr, _ := EncodeControlReq(ControlReq{Op: "subscribe", ID: "s1", Host: 3,
		Ranges: []Range{{Attr: "x", Lo: 0, Hi: 99}, {Attr: "y", Lo: 1, Hi: 5}}})
	write("FuzzDecodeControlReq", "seed-subscribe", cr)
	cr2, _ := EncodeControlReq(ControlReq{Op: "unadvertise", ID: "p", Host: 0})
	write("FuzzDecodeControlReq", "seed-norange", cr2)
	write("FuzzDecodeControlReq", "seed-garbage", append(append([]byte{}, cr2...), 0xee))

	// FuzzDecodePublish
	pb, _ := EncodePublish(PublishReq{ID: "p1", Events: []space.Event{
		{Values: []uint32{1, 2}}, {Values: []uint32{3, 4}},
	}})
	write("FuzzDecodePublish", "seed-two-events", pb)
	write("FuzzDecodePublish", "seed-truncated", pb[:len(pb)-3])
	pbt, _ := EncodePublish(PublishReq{ID: "p1", Seq: 3,
		Trace:  TraceContext{TraceID: 0x1111, SpanID: 0x22, PubWallNanos: 0x333333},
		Events: []space.Event{{Values: []uint32{1, 2}}}})
	write("FuzzDecodePublish", "seed-traced", pbt)

	// FuzzDecodePublish: a coalesced multi-event batch like the pipelined
	// client packs.
	evs := make([]space.Event, 8)
	for i := range evs {
		evs[i] = space.Event{Values: []uint32{uint32(i), uint32(i * 3)}}
	}
	pbm, _ := EncodePublish(PublishReq{ID: "pipe", Seq: 9, Events: evs})
	write("FuzzDecodePublish", "seed-coalesced", pbm)

	// FuzzDecodeDeliverBatch
	db, _ := encodeDeliverBatch([]Delivery{
		{SubscriptionID: "s1", Event: space.Event{Values: []uint32{1, 2}}, At: 3, Latency: 1},
		{SubscriptionID: "s2", Event: space.Event{Values: []uint32{4}}, At: 5, Latency: 2, FalsePositive: true},
	})
	write("FuzzDecodeDeliverBatch", "seed-two", db)
	dbt, _ := encodeDeliverBatch([]Delivery{
		{SubscriptionID: "s", Event: space.Event{Values: []uint32{9}},
			TraceID: 7, SpanID: 9, PubWallNanos: 11, Hops: 2},
	})
	write("FuzzDecodeDeliverBatch", "seed-traced", dbt)
	write("FuzzDecodeDeliverBatch", "seed-truncated", db[:len(db)-3])
	// Batches of one: the seeds of the retired single-delivery fuzz target.
	one, _ := encodeDeliverBatch([]Delivery{{SubscriptionID: "s", Event: space.Event{Values: []uint32{9, 10}},
		At: 5, Latency: 2, FalsePositive: true}})
	write("FuzzDecodeDeliverBatch", "seed-one-fp", one)
	onet, _ := encodeDeliverBatch([]Delivery{{SubscriptionID: "s", Event: space.Event{Values: []uint32{9, 10}},
		At: 5, Latency: 2, TraceID: 7, SpanID: 9, PubWallNanos: 11, Hops: 4}})
	write("FuzzDecodeDeliverBatch", "seed-one-traced", onet)

	// FuzzFrameStream
	var stream []byte
	for i, k := range []Kind{KindRun, KindRunDone, KindSync} {
		pl := []byte(nil)
		if k == KindRunDone {
			pl = EncodeU64(12345)
		}
		stream, _ = AppendFrame(stream, Frame{Kind: k, Corr: uint64(i + 1), Payload: pl})
	}
	write("FuzzFrameStream", "seed-three-frames", stream)
	write("FuzzFrameStream", "seed-split-frame", stream[:len(stream)-5])
	fmt.Println("corpus regenerated")
}
