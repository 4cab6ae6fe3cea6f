package transport

import (
	"sync"

	"pleroma/internal/wire"
)

// Encode-side buffer slabs. Frame payloads cluster in a handful of size
// bands (the MTransportFrameBytes histogram is the receipts): control
// responses and single deliveries land under 256 B, coalesced PublishReq
// and DeliverBatch payloads under a few KiB, and chunked delivery batches
// top out at the transport's batch byte budget. One sync.Pool per
// power-of-four class covers the spread without holding a 1 MiB slab for
// every 100-byte ack.
var slabClasses = [...]int{256, 1 << 10, 4 << 10, 16 << 10, 64 << 10, 256 << 10, wire.MaxFramePayload + wire.FrameHeaderLen}

var slabPools [len(slabClasses)]sync.Pool

// getBuf returns a box holding a zero-length buffer with capacity ≥ n,
// drawn from the smallest fitting slab class (freshly allocated when the
// pool is empty or n exceeds every class). The box travels with the buffer
// back to putBuf, so a put allocates nothing.
func getBuf(n int) *[]byte {
	for i, c := range slabClasses {
		if n <= c {
			if p, _ := slabPools[i].Get().(*[]byte); p != nil {
				return p
			}
			b := make([]byte, 0, c)
			return &b
		}
	}
	b := make([]byte, 0, n)
	return &b
}

// putBuf returns a box obtained from getBuf to its slab class, holding the
// buffer it now points at emptied. A buffer whose capacity matches no class
// (grown by append past its class, or larger than every class) is left to
// the GC, and so is nothing: a nil box.
func putBuf(p *[]byte) {
	if p == nil {
		return
	}
	c := cap(*p)
	for i, sc := range slabClasses {
		if c == sc {
			*p = (*p)[:0]
			slabPools[i].Put(p)
			return
		}
	}
}
