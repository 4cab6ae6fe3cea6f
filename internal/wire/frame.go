package wire

import (
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"slices"
	"sort"
	"time"

	"pleroma/internal/space"
)

// This file defines the transport framing and the request/response payload
// codecs of the networked deployment mode (internal/transport): every
// message between a pleroma-d daemon and its clients — control requests,
// publications, deliveries and state-digest queries — travels as one
// length-prefixed frame carrying a kind byte and a request/response
// correlation id. Like the rest of the package, every decoder is total:
// truncation, oversize headers, and trailing garbage are errors, never
// panics.

// Kind discriminates the frame types of the transport protocol.
type Kind uint8

// Frame kinds. Request kinds expect a response frame bearing the same
// correlation id; KindDeliverBatch and KindGoodbye are server pushes with
// correlation id zero.
const (
	// KindHello opens a session (payload: Hello) and must be a connection's
	// first frame. Response: KindHelloOK, or KindError and a closed
	// connection when the version does not match.
	KindHello Kind = iota + 1
	// KindHelloOK acknowledges a Hello (payload: HelloOK).
	KindHelloOK
	// KindOK is the empty success response.
	KindOK
	// KindError is the failure response (payload: UTF-8 message).
	KindError
	// KindControl carries a control request (payload: ControlReq).
	// Response: KindOK or KindError.
	KindControl
	// KindPublish injects events (payload: PublishReq). Response: KindOK
	// or KindError.
	KindPublish
	// KindRun drains the daemon's simulated network (empty payload).
	// Response: KindRunDone.
	KindRun
	// KindRunDone reports the simulated clock after a drain (payload:
	// now u64 nanoseconds).
	KindRunDone
	// KindSync is an ordering barrier (empty payload): its KindOK response
	// is queued behind every delivery enqueued before the barrier was
	// processed, so a client that received the response has received every
	// prior delivery.
	KindSync
	// KindDeliverBatch pushes a run of one or more deliveries to a
	// subscriber (payload: DeliverBatch). No response.
	KindDeliverBatch
)

// Numbers 11–14 are retired. They carried switch writes and reads over the
// network, and a switch has one writer: the controller, in the daemon's
// process. A retired number fails like any undefined byte and is never
// reused, so a peer that still sends one is refused, not misread.
const (
	// KindDigest requests the control-plane state digest (empty payload).
	// Response: KindDigestResult or KindError.
	KindDigest Kind = iota + 15
	// KindDigestResult returns the state digest (payload: every
	// partition's digest, concatenated in ascending partition order).
	KindDigestResult
	// KindGoodbye announces a graceful server shutdown (empty payload).
	// No response; the server closes the connection after flushing it.
	KindGoodbye
)

var kindNames = [...]string{
	KindHello:        "hello",
	KindHelloOK:      "hello-ok",
	KindOK:           "ok",
	KindError:        "error",
	KindControl:      "control",
	KindPublish:      "publish",
	KindRun:          "run",
	KindRunDone:      "run-done",
	KindSync:         "sync",
	KindDeliverBatch: "deliver-batch",
	KindDigest:       "digest",
	KindDigestResult: "digest-result",
	KindGoodbye:      "goodbye",
}

func (k Kind) String() string {
	if k.Valid() {
		return kindNames[k]
	}
	return fmt.Sprintf("kind(%d)", uint8(k))
}

// Valid reports whether k is a defined frame kind: one kindNames names.
func (k Kind) Valid() bool { return int(k) < len(kindNames) && kindNames[k] != "" }

// Framing limits.
const (
	// MaxFramePayload bounds one frame's payload.
	MaxFramePayload = 1 << 20
	// FrameHeaderLen is the fixed prefix: [length u32][kind u8][corr u64].
	FrameHeaderLen = 4 + 1 + 8
	// MaxEvents bounds the events of one publish request.
	MaxEvents = 4096
	// MaxDeliveries bounds the deliveries of one KindDeliverBatch frame.
	MaxDeliveries = 4096
)

// Frame is one transport message: a kind, a request/response correlation
// id (zero for unsolicited pushes), and an opaque payload whose format the
// kind selects.
type Frame struct {
	Kind    Kind
	Corr    uint64
	Payload []byte
}

// AppendFrame appends the encoded frame:
//
//	[length u32][kind u8][corr u64][payload]
//
// where length counts kind+corr+payload (i.e. FrameHeaderLen-4+len(payload)).
func AppendFrame(dst []byte, f Frame) ([]byte, error) {
	if !f.Kind.Valid() {
		return nil, fmt.Errorf("wire: invalid frame kind %d", uint8(f.Kind))
	}
	if len(f.Payload) > MaxFramePayload {
		return nil, fmt.Errorf("wire: frame payload of %d bytes exceeds %d", len(f.Payload), MaxFramePayload)
	}
	dst = binary.BigEndian.AppendUint32(dst, uint32(9+len(f.Payload)))
	dst = append(dst, byte(f.Kind))
	dst = binary.BigEndian.AppendUint64(dst, f.Corr)
	return append(dst, f.Payload...), nil
}

// ReadFrame reads one frame from r, reusing buf for the payload when it
// has the capacity (growing it otherwise; a nil buf allocates a fresh
// payload). The returned frame's Payload aliases the returned buffer, so it
// is valid only until the next ReadFrame call with the same buffer —
// callers that retain a payload must copy it or pass nil.
//
// The header is read into buf too, when it fits: a header array of its own
// would escape through r and cost an allocation per frame.
func ReadFrame(r io.Reader, buf []byte) (Frame, []byte, error) {
	hdr := buf[:cap(buf)]
	if len(hdr) < FrameHeaderLen {
		hdr = make([]byte, FrameHeaderLen)
	}
	hdr = hdr[:FrameHeaderLen]
	if _, err := io.ReadFull(r, hdr); err != nil {
		return Frame{}, buf, err
	}
	length := binary.BigEndian.Uint32(hdr)
	if length < 9 || length > 9+MaxFramePayload {
		return Frame{}, buf, fmt.Errorf("wire: frame length %d out of range", length)
	}
	kind := Kind(hdr[4])
	if !kind.Valid() {
		return Frame{}, buf, fmt.Errorf("wire: invalid frame kind %d", hdr[4])
	}
	corr := binary.BigEndian.Uint64(hdr[5:])
	n := int(length - 9)
	if cap(buf) < n {
		buf = make([]byte, n)
	}
	payload := buf[:n]
	if _, err := io.ReadFull(r, payload); err != nil {
		if err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		return Frame{}, buf, err
	}
	return Frame{Kind: kind, Corr: corr, Payload: payload}, buf[:cap(buf)], nil
}

// appendString appends [len u8][bytes]; ids and attribute names share it.
func appendString(dst []byte, s string, what string) ([]byte, error) {
	if len(s) > MaxIDLen {
		return nil, fmt.Errorf("wire: %s length %d exceeds %d", what, len(s), MaxIDLen)
	}
	dst = append(dst, byte(len(s)))
	return append(dst, s...), nil
}

// readString reads one [len u8][bytes] string, returning the remainder.
func readString(b []byte, what string) (string, []byte, error) {
	if len(b) < 1 {
		return "", nil, fmt.Errorf("wire: truncated %s header", what)
	}
	n := int(b[0])
	if len(b) < 1+n {
		return "", nil, fmt.Errorf("wire: truncated %s body", what)
	}
	return string(b[1 : 1+n]), b[1+n:], nil
}

// Payload tags: the leading byte of a PublishReq or Delivery body says
// whether a trace context follows. A body is traced exactly when the
// publish that caused it was.
const (
	tagPlain  = 1 // no trace context
	tagTraced = 2 // [trace 24B] follows (then [hops u16] on a Delivery)
)

// TraceContext is the compact distributed-trace context carried on traced
// PublishReq and Delivery payloads: the trace identity minted by the
// publishing client, the sender-side span the receiver should parent its
// own span to, and the publisher's wall-clock publish instant for
// cross-process latency accounting. The zero TraceContext means "untraced"
// and encodes as the plain payload.
type TraceContext struct {
	// TraceID identifies the end-to-end trace; 0 means untraced.
	TraceID uint64
	// SpanID is the sender-side span the receiver parents to.
	SpanID uint64
	// PubWallNanos is the publisher's wall clock at publish time (Unix
	// nanoseconds). It is meaningful only within the publishing process's
	// clock domain: a receiver on another machine comparing it against its
	// own clock measures latency plus clock skew.
	PubWallNanos int64
}

// Valid reports whether tc carries a minted trace.
func (tc TraceContext) Valid() bool { return tc.TraceID != 0 }

// appendTrace appends [traceID u64][spanID u64][pubWall i64].
func appendTrace(dst []byte, tc TraceContext) []byte {
	dst = binary.BigEndian.AppendUint64(dst, tc.TraceID)
	dst = binary.BigEndian.AppendUint64(dst, tc.SpanID)
	return binary.BigEndian.AppendUint64(dst, uint64(tc.PubWallNanos))
}

// readTrace reads one appendTrace payload, returning the remainder. A
// traced payload must carry a minted trace id: the zero TraceContext has a
// canonical plain encoding, and admitting it here too would break the
// decode∘encode identity the fuzzers enforce.
func readTrace(b []byte, what string) (TraceContext, []byte, error) {
	if len(b) < 24 {
		return TraceContext{}, nil, fmt.Errorf("wire: truncated %s trace context", what)
	}
	tc := TraceContext{
		TraceID:      binary.BigEndian.Uint64(b),
		SpanID:       binary.BigEndian.Uint64(b[8:]),
		PubWallNanos: int64(binary.BigEndian.Uint64(b[16:])),
	}
	if !tc.Valid() {
		return TraceContext{}, nil, fmt.Errorf("wire: %s trace context without trace id", what)
	}
	return tc, b[24:], nil
}

// Hello opens a client session. Its version byte is the protocol's only
// version check: there are no capability bits and nothing is negotiated.
type Hello struct {
	// ID names the client (for diagnostics; uniqueness is not required).
	ID string
}

// EncodeHello renders a session-open request:
//
//	[version u8][idLen u8][id]
func EncodeHello(h Hello) ([]byte, error) {
	if len(h.ID) == 0 {
		return nil, fmt.Errorf("wire: hello requires a client id")
	}
	return appendString(append(make([]byte, 0, 2+len(h.ID)), Version), h.ID, "hello id")
}

// DecodeHello parses a session-open request.
func DecodeHello(b []byte) (Hello, error) {
	if len(b) < 1 {
		return Hello{}, fmt.Errorf("wire: hello too short")
	}
	if b[0] != Version {
		return Hello{}, fmt.Errorf("wire: unsupported version %d", b[0])
	}
	id, rest, err := readString(b[1:], "hello id")
	if err != nil {
		return Hello{}, err
	}
	if len(id) == 0 {
		return Hello{}, fmt.Errorf("wire: hello without client id")
	}
	if len(rest) != 0 {
		return Hello{}, fmt.Errorf("wire: %d trailing bytes", len(rest))
	}
	return Hello{ID: id}, nil
}

// HelloOK is the server's session acknowledgement: the deployment's host
// nodes and partition ids, so thin clients need no out-of-band topology
// knowledge.
type HelloOK struct {
	Hosts      []uint32
	Partitions []int32
}

// EncodeHelloOK renders a session acknowledgement:
//
//	[version u8][nhosts u16][host u32]×[nparts u16][part u32]×
func EncodeHelloOK(h HelloOK) ([]byte, error) {
	if len(h.Hosts) > 0xffff || len(h.Partitions) > 0xffff {
		return nil, fmt.Errorf("wire: hello-ok with %d hosts / %d partitions", len(h.Hosts), len(h.Partitions))
	}
	buf := make([]byte, 0, 5+4*len(h.Hosts)+4*len(h.Partitions))
	buf = append(buf, Version)
	buf = binary.BigEndian.AppendUint16(buf, uint16(len(h.Hosts)))
	for _, hh := range h.Hosts {
		buf = binary.BigEndian.AppendUint32(buf, hh)
	}
	buf = binary.BigEndian.AppendUint16(buf, uint16(len(h.Partitions)))
	for _, p := range h.Partitions {
		buf = binary.BigEndian.AppendUint32(buf, uint32(p))
	}
	return buf, nil
}

// DecodeHelloOK parses a session acknowledgement.
func DecodeHelloOK(b []byte) (HelloOK, error) {
	if len(b) < 3 {
		return HelloOK{}, fmt.Errorf("wire: hello-ok too short")
	}
	if b[0] != Version {
		return HelloOK{}, fmt.Errorf("wire: unsupported version %d", b[0])
	}
	nh := int(binary.BigEndian.Uint16(b[1:]))
	rest := b[3:]
	if len(rest) < 4*nh+2 {
		return HelloOK{}, fmt.Errorf("wire: truncated hello-ok hosts")
	}
	var out HelloOK
	for i := 0; i < nh; i++ {
		out.Hosts = append(out.Hosts, binary.BigEndian.Uint32(rest[4*i:]))
	}
	rest = rest[4*nh:]
	np := int(binary.BigEndian.Uint16(rest))
	rest = rest[2:]
	if len(rest) != 4*np {
		return HelloOK{}, fmt.Errorf("wire: hello-ok partitions section has %d bytes, want %d", len(rest), 4*np)
	}
	for i := 0; i < np; i++ {
		out.Partitions = append(out.Partitions, int32(binary.BigEndian.Uint32(rest[4*i:])))
	}
	return out, nil
}

// Range is one attribute constraint of a remote control request. Remote
// clients express subscriptions and advertisements as attribute ranges —
// the dz decomposition happens at the daemon, which owns the schema and
// the active dimension selection.
type Range struct {
	Attr   string
	Lo, Hi uint32
}

// ControlReq is a remote control request: one of the four signalling ops,
// expressed content-side (attribute ranges) rather than dz-side.
type ControlReq struct {
	Op   Op
	ID   string
	Host uint32
	// Ranges constrains attributes; empty means the whole event space.
	// Encoding sorts by attribute name, so equal filters encode equally.
	Ranges []Range
}

// EncodeControlReq renders a remote control request:
//
//	[version u8][op u8][idLen u8][id][host u32]
//	[nranges u8]([attrLen u8][attr][lo u32][hi u32])×
func EncodeControlReq(req ControlReq) ([]byte, error) {
	code, err := req.Op.code(false)
	if err != nil {
		return nil, err
	}
	if len(req.ID) == 0 || len(req.ID) > MaxIDLen {
		return nil, fmt.Errorf("wire: id length %d out of range 1..%d", len(req.ID), MaxIDLen)
	}
	if len(req.Ranges) > MaxDims {
		return nil, fmt.Errorf("wire: %d range constraints exceed %d", len(req.Ranges), MaxDims)
	}
	ranges := req.Ranges
	if !rangesSorted(ranges) { // sorted input, the common case, is encoded without a copy
		ranges = slices.Clone(ranges)
		sort.Slice(ranges, func(i, j int) bool { return ranges[i].Attr < ranges[j].Attr })
	}
	buf := make([]byte, 0, 16+len(req.ID)+12*len(ranges))
	buf = append(buf, Version, code)
	buf, err = appendString(buf, req.ID, "control id")
	if err != nil {
		return nil, err
	}
	buf = binary.BigEndian.AppendUint32(buf, req.Host)
	buf = append(buf, byte(len(ranges)))
	for _, r := range ranges {
		if len(r.Attr) == 0 {
			return nil, fmt.Errorf("wire: range constraint without attribute name")
		}
		buf, err = appendString(buf, r.Attr, "attribute name")
		if err != nil {
			return nil, err
		}
		buf = binary.BigEndian.AppendUint32(buf, r.Lo)
		buf = binary.BigEndian.AppendUint32(buf, r.Hi)
	}
	return buf, nil
}

// rangesSorted reports whether ranges are in strictly ascending attribute
// order, the order the encoding has.
func rangesSorted(ranges []Range) bool {
	for i := 1; i < len(ranges); i++ {
		if ranges[i-1].Attr >= ranges[i].Attr {
			return false
		}
	}
	return true
}

// DecodeControlReq parses a remote control request.
func DecodeControlReq(b []byte) (ControlReq, error) {
	if len(b) < 2 {
		return ControlReq{}, fmt.Errorf("wire: control request too short")
	}
	if b[0] != Version {
		return ControlReq{}, fmt.Errorf("wire: unsupported version %d", b[0])
	}
	op, err := opFromCode(b[1], false)
	if err != nil {
		return ControlReq{}, err
	}
	id, rest, err := readString(b[2:], "control id")
	if err != nil {
		return ControlReq{}, err
	}
	if len(id) == 0 {
		return ControlReq{}, fmt.Errorf("wire: control request without id")
	}
	if len(rest) < 5 {
		return ControlReq{}, fmt.Errorf("wire: truncated control header")
	}
	req := ControlReq{Op: op, ID: id, Host: binary.BigEndian.Uint32(rest)}
	n := int(rest[4])
	rest = rest[5:]
	if n > MaxDims {
		return ControlReq{}, fmt.Errorf("wire: %d range constraints exceed %d", n, MaxDims)
	}
	prev := ""
	for i := 0; i < n; i++ {
		var attr string
		attr, rest, err = readString(rest, "attribute name")
		if err != nil {
			return ControlReq{}, err
		}
		if len(attr) == 0 {
			return ControlReq{}, fmt.Errorf("wire: range constraint without attribute name")
		}
		if i > 0 && attr <= prev {
			return ControlReq{}, fmt.Errorf("wire: range constraints not sorted (%q after %q)", attr, prev)
		}
		prev = attr
		if len(rest) < 8 {
			return ControlReq{}, fmt.Errorf("wire: truncated range constraint")
		}
		req.Ranges = append(req.Ranges, Range{
			Attr: attr,
			Lo:   binary.BigEndian.Uint32(rest),
			Hi:   binary.BigEndian.Uint32(rest[4:]),
		})
		rest = rest[8:]
	}
	if len(rest) != 0 {
		return ControlReq{}, fmt.Errorf("wire: %d trailing bytes", len(rest))
	}
	return req, nil
}

// PublishReq injects events through a registered publisher. Seq is the
// client-assigned publish sequence number (0 = unsequenced): a transport
// retry re-sends the same Seq, letting the server skip a publish it
// already applied (at-most-once application under at-least-once retry).
type PublishReq struct {
	ID     string
	Seq    uint64
	Events []space.Event
	// Trace is the distributed-trace context stamped by the client. The
	// zero value means untraced and selects the plain encoding; a minted
	// trace selects the traced one. A transport retry re-encodes nothing
	// (the same bytes are re-sent), so Seq and Trace survive retries
	// unchanged and a dedup'd publish keeps a single trace id.
	Trace TraceContext
}

// EncodePublish renders a publish request:
//
//	[tag u8][trace 24B]?[seq u64][idLen u8][id][count u16][event]×
//
// where each event is an appendEvent payload (self-delimiting via its dims
// byte). The trace block is present exactly when the tag is tagTraced
// (req.Trace minted).
func EncodePublish(req PublishReq) ([]byte, error) {
	return AppendPublish(make([]byte, 0, 40+len(req.ID)+len(req.Events)*6), req)
}

// AppendPublish appends an EncodePublish payload to dst, allocation-free
// when dst has capacity.
func AppendPublish(dst []byte, req PublishReq) ([]byte, error) {
	dst, err := appendPublishHeader(dst, req.ID, req.Seq, req.Trace, len(req.Events))
	if err != nil {
		return nil, err
	}
	for _, ev := range req.Events {
		dst, err = appendEvent(dst, ev)
		if err != nil {
			return nil, err
		}
	}
	return dst, nil
}

// appendPublishHeader appends the part of an EncodePublish payload before
// its count events.
func appendPublishHeader(dst []byte, id string, seq uint64, trace TraceContext, count int) ([]byte, error) {
	if len(id) == 0 {
		return nil, fmt.Errorf("wire: publish without publisher id")
	}
	if count == 0 || count > MaxEvents {
		return nil, fmt.Errorf("wire: publish with %d events, want 1..%d", count, MaxEvents)
	}
	if trace.Valid() {
		dst = append(dst, tagTraced)
		dst = appendTrace(dst, trace)
	} else {
		dst = append(dst, tagPlain)
	}
	dst = binary.BigEndian.AppendUint64(dst, seq)
	dst, err := appendString(dst, id, "publisher id")
	if err != nil {
		return nil, err
	}
	return binary.BigEndian.AppendUint16(dst, uint16(count)), nil
}

// PublishBuffer holds the events of a publish request not yet sealed,
// already encoded: the form the pipelined publish path coalesces events in,
// since a request's sequence number and trace are known only when it is
// sealed, while an event's values must be copied when they are handed over.
// Seal renders the request AppendPublish renders for the same events. The
// zero value is an empty buffer.
type PublishBuffer struct {
	events []byte // appendEvent payloads back to back
	n      int
}

// Append encodes ev at the end of the buffer; an event with no encoding
// (see CheckEvent) is refused and the buffer left as it was.
func (b *PublishBuffer) Append(ev space.Event) error {
	events, err := appendEvent(b.events, ev)
	if err != nil {
		return err
	}
	b.events = events
	b.n++
	return nil
}

// Len returns the number of events in the buffer.
func (b *PublishBuffer) Len() int { return b.n }

// Size returns the encoded bytes of the events in the buffer.
func (b *PublishBuffer) Size() int { return len(b.events) }

// Seal appends the publish request of id, seq and trace carrying the
// buffered events to dst — byte for byte AppendPublish's payload for that
// request — and empties the buffer, which keeps its storage. On an error
// the buffer is left as it was.
func (b *PublishBuffer) Seal(dst []byte, id string, seq uint64, trace TraceContext) ([]byte, error) {
	dst, err := appendPublishHeader(dst, id, seq, trace, b.n)
	if err != nil {
		return nil, err
	}
	dst = append(dst, b.events...)
	b.events, b.n = b.events[:0], 0
	return dst, nil
}

// readEvent decodes one embedded appendEvent payload, returning the rest.
// The event's values are appended to arena so a batch decoder amortizes
// one backing array across every event of a frame (a nil arena allocates
// per event); the returned event's Values slice is
// capacity-clipped, so growing the arena afterwards never aliases it.
func readEvent(b []byte, arena []uint32) (space.Event, []byte, []uint32, error) {
	if len(b) < 2 {
		return space.Event{}, nil, arena, fmt.Errorf("wire: truncated event")
	}
	if b[0] != Version {
		return space.Event{}, nil, arena, fmt.Errorf("wire: unsupported version %d", b[0])
	}
	dims := int(b[1])
	if dims == 0 || dims > MaxDims {
		return space.Event{}, nil, arena, fmt.Errorf("wire: event dims %d out of range", dims)
	}
	n := 2 + 4*dims
	if len(b) < n {
		return space.Event{}, nil, arena, fmt.Errorf("wire: truncated event body")
	}
	base := len(arena)
	for i := 0; i < dims; i++ {
		arena = append(arena, binary.BigEndian.Uint32(b[2+4*i:]))
	}
	return space.Event{Values: arena[base:len(arena):len(arena)]}, b[n:], arena, nil
}

// DecodePublish parses a publish request (plain or traced).
func DecodePublish(b []byte) (PublishReq, error) {
	if len(b) < 1 {
		return PublishReq{}, fmt.Errorf("wire: publish too short")
	}
	var trace TraceContext
	body := b[1:]
	switch b[0] {
	case tagPlain:
	case tagTraced:
		var err error
		trace, body, err = readTrace(body, "publish")
		if err != nil {
			return PublishReq{}, err
		}
	default:
		return PublishReq{}, fmt.Errorf("wire: unsupported publish tag %d", b[0])
	}
	if len(body) < 8 {
		return PublishReq{}, fmt.Errorf("wire: publish too short")
	}
	seq := binary.BigEndian.Uint64(body)
	id, rest, err := readString(body[8:], "publisher id")
	if err != nil {
		return PublishReq{}, err
	}
	if len(id) == 0 {
		return PublishReq{}, fmt.Errorf("wire: publish without publisher id")
	}
	if len(rest) < 2 {
		return PublishReq{}, fmt.Errorf("wire: truncated publish header")
	}
	count := int(binary.BigEndian.Uint16(rest))
	rest = rest[2:]
	if count == 0 || count > MaxEvents {
		return PublishReq{}, fmt.Errorf("wire: publish with %d events, want 1..%d", count, MaxEvents)
	}
	req := PublishReq{ID: id, Seq: seq, Trace: trace, Events: make([]space.Event, 0, count)}
	// One values arena for the whole batch: a well-formed payload has
	// exactly (len(rest)-2*count)/4 values, so the per-event slices carve a
	// single allocation.
	arenaCap := (len(rest) - 2*count) / 4
	if arenaCap < 0 {
		arenaCap = 0
	}
	arena := make([]uint32, 0, arenaCap)
	for i := 0; i < count; i++ {
		var ev space.Event
		ev, rest, arena, err = readEvent(rest, arena)
		if err != nil {
			return PublishReq{}, err
		}
		req.Events = append(req.Events, ev)
	}
	if len(rest) != 0 {
		return PublishReq{}, fmt.Errorf("wire: %d trailing bytes", len(rest))
	}
	return req, nil
}

// Delivery is one event handed to a subscriber: what an in-process handler
// receives, and what a deliver-batch frame carries to a remote one. A remote
// handler sees Hops, TraceID, SpanID and PubWallNanos only on traced
// deliveries (the publish carried a minted trace); on an untraced one they
// read 0.
type Delivery struct {
	// SubscriptionID identifies the receiving subscription.
	SubscriptionID string
	// Event is the received payload. A handler may keep its values; every
	// subscription the event reaches shares them, so they must not be
	// mutated.
	Event space.Event
	// At is the simulated delivery time.
	At time.Duration
	// Latency is the end-to-end delay since publication.
	Latency time.Duration
	// FalsePositive marks events delivered due to dz truncation that do
	// not match the subscription filter exactly.
	FalsePositive bool
	// Hops is the number of switch hops the event traversed.
	Hops int
	// TraceID links the delivery to its distributed trace (0 untraced).
	TraceID uint64
	// SpanID is the delivery span recorded under TraceID (0 untraced).
	SpanID uint64
	// WallLatency is the wall-clock publish→delivery delay when the
	// publish carried an origin stamp (0 otherwise). Across processes on
	// different machines it includes clock skew; see PubWallNanos for the
	// skew-free client-side measure. It is never encoded: the receiving end
	// measures it against its own clock.
	WallLatency time.Duration
	// PubWallNanos echoes the publisher's wall-clock stamp
	// (UnixNano; 0 unstamped). Meaningful only in the publisher's clock
	// domain: a subscriber on the same machine — or the publishing client
	// itself — can subtract it from its own clock without skew.
	PubWallNanos int64
}

// appendDelivery appends one delivery body, allocation-free when dst has
// capacity:
//
//	[tag u8][trace 24B][hops u16]?[idLen u8][id][at u64][latency u64][fp u8][event]
//
// The trace+hops block is present exactly when the tag is tagTraced
// (d.TraceID minted); an untraced delivery drops Hops and PubWallNanos.
// Hops outside 0..65535 has no encoding. The encoding is self-delimiting
// (the id is length-prefixed and the event carries its dims byte), which is
// what lets DeliverBatch concatenate bodies back to back.
func appendDelivery(dst []byte, d Delivery) ([]byte, error) {
	if len(d.SubscriptionID) == 0 {
		return nil, fmt.Errorf("wire: delivery without subscription id")
	}
	if d.Hops < 0 || d.Hops > math.MaxUint16 {
		return nil, fmt.Errorf("wire: delivery hops %d outside 0..%d", d.Hops, math.MaxUint16)
	}
	var err error
	if d.TraceID != 0 {
		dst = append(dst, tagTraced)
		dst = appendTrace(dst, TraceContext{TraceID: d.TraceID, SpanID: d.SpanID, PubWallNanos: d.PubWallNanos})
		dst = binary.BigEndian.AppendUint16(dst, uint16(d.Hops))
	} else {
		dst = append(dst, tagPlain)
	}
	dst, err = appendString(dst, d.SubscriptionID, "subscription id")
	if err != nil {
		return nil, err
	}
	dst = binary.BigEndian.AppendUint64(dst, uint64(d.At))
	dst = binary.BigEndian.AppendUint64(dst, uint64(d.Latency))
	if d.FalsePositive {
		dst = append(dst, 1)
	} else {
		dst = append(dst, 0)
	}
	return appendEvent(dst, d.Event)
}

// readDelivery decodes one appendDelivery body from the front of b,
// returning it and the remainder — the element decoder DeliverBatch
// iterates. Event values are appended to arena (see readEvent).
func readDelivery(b []byte, arena []uint32) (Delivery, []byte, []uint32, error) {
	if len(b) < 1 {
		return Delivery{}, nil, arena, fmt.Errorf("wire: delivery too short")
	}
	var d Delivery
	body := b[1:]
	switch b[0] {
	case tagPlain:
	case tagTraced:
		var tc TraceContext
		var err error
		tc, body, err = readTrace(body, "delivery")
		if err != nil {
			return Delivery{}, nil, arena, err
		}
		if len(body) < 2 {
			return Delivery{}, nil, arena, fmt.Errorf("wire: truncated delivery hops")
		}
		d.TraceID, d.SpanID, d.PubWallNanos = tc.TraceID, tc.SpanID, tc.PubWallNanos
		d.Hops = int(binary.BigEndian.Uint16(body))
		body = body[2:]
	default:
		return Delivery{}, nil, arena, fmt.Errorf("wire: unsupported delivery tag %d", b[0])
	}
	id, rest, err := readString(body, "subscription id")
	if err != nil {
		return Delivery{}, nil, arena, err
	}
	if len(id) == 0 {
		return Delivery{}, nil, arena, fmt.Errorf("wire: delivery without subscription id")
	}
	if len(rest) < 17 {
		return Delivery{}, nil, arena, fmt.Errorf("wire: truncated delivery header")
	}
	if rest[16] > 1 {
		return Delivery{}, nil, arena, fmt.Errorf("wire: delivery false-positive flag %d", rest[16])
	}
	d.SubscriptionID = id
	d.At = time.Duration(binary.BigEndian.Uint64(rest))
	d.Latency = time.Duration(binary.BigEndian.Uint64(rest[8:]))
	d.FalsePositive = rest[16] == 1
	ev, rest, arena, err := readEvent(rest[17:], arena)
	if err != nil {
		return Delivery{}, nil, arena, err
	}
	d.Event = ev
	return d, rest, arena, nil
}

// AppendDeliverBatch appends a delivery push:
//
//	[version u8][count u16][delivery]×count
//
// where each delivery is an appendDelivery body (self-delimiting, each
// carrying its own plain/traced tag, so one batch may mix both). The batch
// holds the longest prefix of ds that fits within maxBytes (always at least
// one delivery, never more than MaxDeliveries); it returns the extended
// buffer and the number of deliveries consumed. Callers chunk a long
// delivery run into successive frames by re-calling with ds[n:]. An empty
// batch has no encoding — a quiet connection sends nothing.
func AppendDeliverBatch(dst []byte, ds []Delivery, maxBytes int) ([]byte, int, error) {
	if len(ds) == 0 {
		return nil, 0, fmt.Errorf("wire: empty deliver batch")
	}
	if maxBytes > MaxFramePayload {
		maxBytes = MaxFramePayload
	}
	base := len(dst)
	dst = append(dst, Version, 0, 0) // count patched below
	n := 0
	for _, d := range ds {
		if n == MaxDeliveries {
			break
		}
		prev := len(dst)
		var err error
		dst, err = appendDelivery(dst, d)
		if err != nil {
			return nil, 0, err
		}
		if n > 0 && len(dst)-base > maxBytes {
			dst = dst[:prev]
			break
		}
		n++
	}
	binary.BigEndian.PutUint16(dst[base+1:], uint16(n))
	return dst, n, nil
}

// DecodeDeliverBatch parses a coalesced delivery push.
func DecodeDeliverBatch(b []byte) ([]Delivery, error) {
	return DecodeDeliverBatchTo(nil, b)
}

// DecodeDeliverBatchTo is DecodeDeliverBatch decoding into dst's storage:
// the deliveries replace dst's contents, and dst grows when it is short. The
// event values are copied into a fresh array, so a delivery's values
// outlive any later decode into the same dst.
func DecodeDeliverBatchTo(dst []Delivery, b []byte) ([]Delivery, error) {
	if len(b) < 3 {
		return nil, fmt.Errorf("wire: deliver batch too short")
	}
	if b[0] != Version {
		return nil, fmt.Errorf("wire: unsupported version %d", b[0])
	}
	count := int(binary.BigEndian.Uint16(b[1:]))
	if count == 0 || count > MaxDeliveries {
		return nil, fmt.Errorf("wire: deliver batch with %d deliveries, want 1..%d", count, MaxDeliveries)
	}
	rest := b[3:]
	ds := slices.Grow(dst[:0], count)
	// One backing array for every event's values in the batch: each
	// readEvent returns a capacity-clipped sub-slice, so arena growth
	// mid-batch can never alias an earlier event.
	arena := make([]uint32, 0, 4*count)
	var err error
	for i := 0; i < count; i++ {
		var d Delivery
		d, rest, arena, err = readDelivery(rest, arena)
		if err != nil {
			return nil, err
		}
		ds = append(ds, d)
	}
	if len(rest) != 0 {
		return nil, fmt.Errorf("wire: %d trailing bytes", len(rest))
	}
	return ds, nil
}

// EncodeU64 renders a bare u64 payload (simulated clock readings).
func EncodeU64(v uint64) []byte {
	return binary.BigEndian.AppendUint64(nil, v)
}
