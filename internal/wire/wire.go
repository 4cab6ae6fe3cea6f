// Package wire defines PLEROMA's on-the-wire encodings: the payload of
// event datagrams (attribute values; the dz-expression itself travels in
// the IPv6 destination address) and the control requests hosts send to
// IP_vir (Section 2). The formats are versioned, length-prefixed, and
// fully validated on decode. The same package carries the journal record
// (journal.go) and the TCP transport's frames (frame.go); all three spell
// the control operations with one type, Op, and one code table.
package wire

import (
	"encoding/binary"
	"fmt"

	"pleroma/internal/dz"
	"pleroma/internal/space"
)

// Version is the current wire format version.
const Version = 1

// Limits guarding decoders against hostile input.
const (
	// MaxDims bounds the attribute count of an event payload.
	MaxDims = 64
	// MaxIDLen bounds client identifier length.
	MaxIDLen = 255
	// MaxSetMembers bounds the DZ set size of a control request.
	MaxSetMembers = 4096
	// MaxExprLen bounds a single dz-expression.
	MaxExprLen = 112
)

// CheckEvent reports whether ev has an encoding: 1..MaxDims values.
func CheckEvent(ev space.Event) error {
	if len(ev.Values) == 0 || len(ev.Values) > MaxDims {
		return fmt.Errorf("wire: event has %d values, want 1..%d", len(ev.Values), MaxDims)
	}
	return nil
}

// appendEvent appends an event payload to dst, allocation-free when dst has
// capacity — the one event encoding, embedded in publish and deliver-batch
// frames:
//
//	[version u8][dims u8][value u32 big-endian]×dims
func appendEvent(dst []byte, ev space.Event) ([]byte, error) {
	if err := CheckEvent(ev); err != nil {
		return nil, err
	}
	dst = append(dst, Version, byte(len(ev.Values)))
	for _, v := range ev.Values {
		dst = binary.BigEndian.AppendUint32(dst, v)
	}
	return dst, nil
}

// packExpr appends a dz-expression as [len u8][bits packed MSB-first].
func packExpr(buf []byte, e dz.Expr) ([]byte, error) {
	if e.Len() > MaxExprLen {
		return nil, fmt.Errorf("wire: dz expression of %d bits exceeds %d", e.Len(), MaxExprLen)
	}
	k, _ := dz.KeyOf(e) // MaxExprLen is dz.MaxKeyBits: it packs
	return AppendKey(buf, k), nil
}

// unpackExpr reads one packed expression, returning it and the remainder.
func unpackExpr(b []byte) (dz.Expr, []byte, error) {
	k, rest, err := ReadKey(b)
	if err != nil {
		return "", nil, err
	}
	return k.Expr(), rest, nil
}

// Op names a control operation. The four signalling ops are what hosts
// send to IP_vir (Section 2) and what the transport's ControlReq carries;
// OpReconfigure records a RebuildTrees pass (topology change) and exists
// only in journal records.
type Op string

// Control operations.
const (
	OpAdvertise   Op = "advertise"
	OpSubscribe   Op = "subscribe"
	OpUnsubscribe Op = "unsubscribe"
	OpUnadvertise Op = "unadvertise"
	OpReconfigure Op = "reconfigure"
)

// opCodes is the one op code table: an op's wire code is its index. Signal,
// ControlReq and Record all encode through it.
var opCodes = [...]Op{1: OpAdvertise, 2: OpSubscribe, 3: OpUnsubscribe, 4: OpUnadvertise, 5: OpReconfigure}

// code returns op's wire code. journal admits OpReconfigure, which only
// Record may carry.
func (op Op) code(journal bool) (byte, error) {
	for c := 1; c < len(opCodes); c++ {
		if opCodes[c] == op && (journal || op != OpReconfigure) {
			return byte(c), nil
		}
	}
	return 0, fmt.Errorf("wire: unknown op %q", op)
}

// opFromCode is the inverse of Op.code.
func opFromCode(c byte, journal bool) (Op, error) {
	if c == 0 || int(c) >= len(opCodes) || (!journal && opCodes[c] == OpReconfigure) {
		return "", fmt.Errorf("wire: unknown op code %d", c)
	}
	return opCodes[c], nil
}

// Signal is the decoded form of an IP_vir control request.
type Signal struct {
	Op   Op
	ID   string
	Host uint32
	Set  dz.Set
}

// EncodeSignal renders a control request:
//
//	[version u8][op u8][idLen u8][id][host u32][count u16][expr]×count
func EncodeSignal(s Signal) ([]byte, error) {
	code, err := s.Op.code(false)
	if err != nil {
		return nil, err
	}
	if len(s.ID) == 0 || len(s.ID) > MaxIDLen {
		return nil, fmt.Errorf("wire: id length %d out of range 1..%d", len(s.ID), MaxIDLen)
	}
	buf := make([]byte, 0, 16+len(s.ID)+4*len(s.Set))
	buf = append(buf, Version, code, byte(len(s.ID)))
	buf = append(buf, s.ID...)
	buf = binary.BigEndian.AppendUint32(buf, s.Host)
	return AppendSet(buf, s.Set)
}

// DecodeSignal parses a control request.
func DecodeSignal(b []byte) (Signal, error) {
	if len(b) < 3 {
		return Signal{}, fmt.Errorf("wire: signal too short (%d bytes)", len(b))
	}
	if b[0] != Version {
		return Signal{}, fmt.Errorf("wire: unsupported version %d", b[0])
	}
	op, err := opFromCode(b[1], false)
	if err != nil {
		return Signal{}, err
	}
	idLen := int(b[2])
	rest := b[3:]
	if idLen == 0 || len(rest) < idLen+6 {
		return Signal{}, fmt.Errorf("wire: truncated signal id/header")
	}
	id := string(rest[:idLen])
	rest = rest[idLen:]
	host := binary.BigEndian.Uint32(rest)
	count := int(binary.BigEndian.Uint16(rest[4:]))
	rest = rest[6:]
	if count > MaxSetMembers {
		return Signal{}, fmt.Errorf("wire: DZ set of %d members exceeds %d", count, MaxSetMembers)
	}
	exprs := make([]dz.Expr, 0, count)
	for i := 0; i < count; i++ {
		var e dz.Expr
		e, rest, err = unpackExpr(rest)
		if err != nil {
			return Signal{}, err
		}
		exprs = append(exprs, e)
	}
	if len(rest) != 0 {
		return Signal{}, fmt.Errorf("wire: %d trailing bytes", len(rest))
	}
	return Signal{Op: op, ID: id, Host: host, Set: dz.NewSet(exprs...)}, nil
}
