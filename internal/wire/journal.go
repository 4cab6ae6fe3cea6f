package wire

import (
	"encoding/binary"
	"fmt"
	"math"
	"slices"

	"pleroma/internal/dz"
)

// This file extends the wire codec with the control-op journal record: the
// unit of the controller's append-only log. A record captures one applied
// control operation together with its epoch (incremented at every
// failover) and sequence number (monotone within the journal), so a warm
// standby can replay snapshot + journal to the exact pre-crash state.

// Record is one journaled control operation.
type Record struct {
	// Epoch identifies the controller incarnation that applied the op.
	Epoch uint32
	// Seq is the record's position in the journal (monotone, 1-based).
	Seq uint64
	// Op is the applied operation; OpReconfigure is valid only here.
	Op Op
	// ID is the client identifier; empty for reconfigure records.
	ID string
	// Node locates the client endpoint (host, or border switch for
	// virtual clients); zero for unsubscribe/unadvertise/reconfigure.
	Node uint32
	// ViaPort is the border exit port of a virtual client; zero for
	// regular clients.
	ViaPort uint32
	// Set is the operation's DZ set; nil for removals and reconfigure.
	Set dz.Set
}

// AppendRecord appends the encoding of a journal record to dst:
//
//	[version u8][op u8][epoch u32][seq u64][idLen u8][id]
//	[node u32][viaPort u32][count u16][expr]×count
//
// It grows dst at most once, to the record's exact size; AppendRecord(nil,
// r) is the record in a slice of its own.
func AppendRecord(dst []byte, r Record) ([]byte, error) {
	code, err := r.Op.code(true)
	if err != nil {
		return nil, err
	}
	if r.Op == OpReconfigure {
		if r.ID != "" {
			return nil, fmt.Errorf("wire: reconfigure record carries id %q", r.ID)
		}
	} else if len(r.ID) == 0 || len(r.ID) > MaxIDLen {
		return nil, fmt.Errorf("wire: record id length %d out of range 1..%d", len(r.ID), MaxIDLen)
	}
	n := 25 + len(r.ID) // header, id and set count: the record's exact size
	for _, e := range r.Set {
		n += 1 + (e.Len()+7)/8
	}
	buf := slices.Grow(dst, n)
	buf = append(buf, Version, code)
	buf = binary.BigEndian.AppendUint32(buf, r.Epoch)
	buf = binary.BigEndian.AppendUint64(buf, r.Seq)
	buf = append(buf, byte(len(r.ID)))
	buf = append(buf, r.ID...)
	buf = binary.BigEndian.AppendUint32(buf, r.Node)
	buf = binary.BigEndian.AppendUint32(buf, r.ViaPort)
	return AppendSet(buf, r.Set)
}

// DecodeRecord parses a journal record.
func DecodeRecord(b []byte) (Record, error) {
	if len(b) < 15 {
		return Record{}, fmt.Errorf("wire: record too short (%d bytes)", len(b))
	}
	if b[0] != Version {
		return Record{}, fmt.Errorf("wire: unsupported version %d", b[0])
	}
	op, err := opFromCode(b[1], true)
	if err != nil {
		return Record{}, err
	}
	r := Record{
		Op:    op,
		Epoch: binary.BigEndian.Uint32(b[2:]),
		Seq:   binary.BigEndian.Uint64(b[6:]),
	}
	idLen := int(b[14])
	rest := b[15:]
	if len(rest) < idLen+10 {
		return Record{}, fmt.Errorf("wire: truncated record id/header")
	}
	if op == OpReconfigure && idLen != 0 {
		return Record{}, fmt.Errorf("wire: reconfigure record carries an id")
	}
	if op != OpReconfigure && idLen == 0 {
		return Record{}, fmt.Errorf("wire: %s record without id", op)
	}
	r.ID = string(rest[:idLen])
	rest = rest[idLen:]
	r.Node = binary.BigEndian.Uint32(rest)
	r.ViaPort = binary.BigEndian.Uint32(rest[4:])
	count := int(binary.BigEndian.Uint16(rest[8:]))
	rest = rest[10:]
	if count > MaxSetMembers {
		return Record{}, fmt.Errorf("wire: record DZ set of %d members exceeds %d", count, MaxSetMembers)
	}
	exprs := make([]dz.Expr, 0, count)
	for i := 0; i < count; i++ {
		var e dz.Expr
		e, rest, err = unpackExpr(rest)
		if err != nil {
			return Record{}, err
		}
		exprs = append(exprs, e)
	}
	if len(rest) != 0 {
		return Record{}, fmt.Errorf("wire: %d trailing bytes", len(rest))
	}
	if count > 0 {
		r.Set = dz.NewSet(exprs...)
	}
	return r, nil
}

// AppendKey appends one dz-expression, given as its packed key, in the wire
// form of an expression: [len u8][bits MSB-first, padded with zeros to a
// byte]. The snapshot codec writes flow matches with it.
func AppendKey(buf []byte, k dz.Key) []byte {
	bits := k.Bits()
	buf = append(buf, byte(k.Len()))
	return append(buf, bits[:(k.Len()+7)/8]...)
}

// ReadKey decodes one packed expression straight into its key, returning it
// and the remainder.
func ReadKey(b []byte) (dz.Key, []byte, error) {
	if len(b) < 1 {
		return dz.Key{}, nil, fmt.Errorf("wire: truncated dz expression header")
	}
	n := int(b[0])
	if n > MaxExprLen {
		return dz.Key{}, nil, fmt.Errorf("wire: dz expression of %d bits exceeds %d", n, MaxExprLen)
	}
	nbytes := (n + 7) / 8
	if len(b) < 1+nbytes {
		return dz.Key{}, nil, fmt.Errorf("wire: truncated dz expression body")
	}
	// Padding bits past the expression length must be zero so every
	// expression has exactly one encoding.
	if n%8 != 0 && b[nbytes]&(0xff>>uint(n%8)) != 0 {
		return dz.Key{}, nil, fmt.Errorf("wire: nonzero padding in dz expression")
	}
	var bits [14]byte
	copy(bits[:], b[1:1+nbytes])
	return dz.KeyFromBits(bits, n), b[1+nbytes:], nil
}

// AppendSet appends a DZ set as [count u16][expr]×count. Members are
// written in the set's (canonical, sorted) order, so equal sets encode to
// equal bytes.
func AppendSet(buf []byte, s dz.Set) ([]byte, error) {
	if len(s) > MaxSetMembers || len(s) > math.MaxUint16 {
		return nil, fmt.Errorf("wire: DZ set of %d members exceeds %d", len(s), MaxSetMembers)
	}
	buf = binary.BigEndian.AppendUint16(buf, uint16(len(s)))
	var err error
	for _, e := range s {
		buf, err = packExpr(buf, e)
		if err != nil {
			return nil, err
		}
	}
	return buf, nil
}

// ReadSet decodes a DZ set written by AppendSet, returning it and the
// remainder. An empty count yields a nil set, so encode(decode(b)) is
// byte-identical.
func ReadSet(b []byte) (dz.Set, []byte, error) {
	if len(b) < 2 {
		return nil, nil, fmt.Errorf("wire: truncated DZ set header")
	}
	count := int(binary.BigEndian.Uint16(b))
	b = b[2:]
	if count > MaxSetMembers {
		return nil, nil, fmt.Errorf("wire: DZ set of %d members exceeds %d", count, MaxSetMembers)
	}
	if count == 0 {
		return nil, b, nil
	}
	exprs := make([]dz.Expr, 0, count)
	for i := 0; i < count; i++ {
		var (
			e   dz.Expr
			err error
		)
		e, b, err = unpackExpr(b)
		if err != nil {
			return nil, nil, err
		}
		exprs = append(exprs, e)
	}
	return dz.NewSet(exprs...), b, nil
}
