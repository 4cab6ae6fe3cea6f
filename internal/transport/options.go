package transport

import (
	"time"

	"pleroma/internal/wire"
)

// Tuning defaults of the pipelined data path. The batching thresholds are
// deliberately small multiples of typical event sizes: a coalesced
// PublishReq caps at defaultBatchEvents events or defaultBatchBytes of
// encoded payload (whichever trips first), and a partial batch never waits
// longer than defaultLinger before it is sealed and sent.
const (
	defaultWindow      = 32
	defaultBatchEvents = 64
	defaultBatchBytes  = 32 << 10
	defaultLinger      = 500 * time.Microsecond
	// deliverBatchBytes bounds one KindDeliverBatch payload; longer
	// delivery runs chunk into successive frames.
	deliverBatchBytes = 256 << 10
)

// Options tunes the transport data path. The zero value selects the
// defaults above; it is accepted everywhere an Options is.
type Options struct {
	// ReadTimeout bounds each blocking frame read. Zero disables the
	// deadline (the default: subscriber connections legitimately sit idle
	// between deliveries).
	ReadTimeout time.Duration
	// WriteTimeout bounds each buffered write+flush by the writer
	// goroutine. Zero keeps the role's default: the client uses its retry
	// policy's OpDeadline, the server sets no deadline.
	WriteTimeout time.Duration
	// Window bounds the client's in-flight window: the number of
	// unanswered requests — pipelined and blocking publishes, control ops,
	// run, sync, digest — it keeps in flight before PublishAsync and
	// blocking calls wait for credit (backpressure). Zero selects
	// defaultWindow; 1 degenerates to stop-and-wait.
	Window int
	// BatchEvents caps the events coalesced into one PublishReq. Zero
	// selects defaultBatchEvents; 1 disables coalescing. Values above
	// wire.MaxEvents are clamped.
	BatchEvents int
	// BatchBytes caps the encoded payload bytes of one coalesced
	// PublishReq. Zero selects defaultBatchBytes.
	BatchBytes int
	// Linger caps how long a partial publish batch may wait for more
	// events before it is sealed and sent. Zero selects defaultLinger.
	Linger time.Duration
}

func (o Options) window() int {
	if o.Window <= 0 {
		return defaultWindow
	}
	return o.Window
}

func (o Options) batchEvents() int {
	n := o.BatchEvents
	if n <= 0 {
		n = defaultBatchEvents
	}
	if n > wire.MaxEvents {
		n = wire.MaxEvents
	}
	return n
}

func (o Options) batchBytes() int {
	if o.BatchBytes <= 0 {
		return defaultBatchBytes
	}
	return o.BatchBytes
}

func (o Options) linger() time.Duration {
	if o.Linger <= 0 {
		return defaultLinger
	}
	return o.Linger
}
