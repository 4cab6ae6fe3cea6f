// Package ipmc implements the embedding of dz-expressions into IPv6
// multicast addresses that PLEROMA uses so that content filters become
// CIDR prefix matches executable in switch TCAMs (Section 3.3.2).
//
// The reserved multicast block is ff0e::/16: the first 16 bits of every
// embedded address are 0xff0e, the following |dz| bits are the
// dz-expression, and the remainder is zero. A subspace maps to the prefix
// ff0e:<dz bits>::/(16+|dz|); an event carrying dz=101101 therefore matches
// a flow for dz=101 because ff0e:a000::/19 contains ff0e:b400::.
package ipmc

import (
	"fmt"
	"net/netip"

	"pleroma/internal/dz"
)

// MaxDzLen is the number of bits available for a dz-expression after the
// 16-bit ff0e prefix of an IPv6 address.
const MaxDzLen = 112

// basePrefixLen is the length of the reserved multicast prefix (ff0e).
const basePrefixLen = 16

// SignalAddr is the reserved address IP_vir to which hosts send
// advertisement and subscription requests; no switch installs a flow for
// it, so such packets are punted to the controller (Section 2). It lies
// outside the ff0e::/16 block so no dz flow can ever match it.
var SignalAddr = netip.AddrFrom16([16]byte{0xff, 0x0f, 0, 0, 0, 0, 0, 0,
	0, 0, 0, 0, 0, 0, 0, 0x01})

// AddrFromKey embeds a packed dz into its event destination address: ff0e,
// then the key's 14 bytes (its bits, zero-padded). This is the data path's
// converter — a copy, not a parse; a Key cannot be malformed or too long, so
// there is nothing to validate. KeyFromAddr is its inverse up to the length,
// which an address does not carry.
func AddrFromKey(k dz.Key) netip.Addr {
	b := [16]byte{0xff, 0x0e}
	bits := k.Bits()
	copy(b[2:], bits[:])
	return netip.AddrFrom16(b)
}

// CheckLen reports whether a dz of n bits fits behind the ff0e prefix.
func CheckLen(n int) error {
	if n > MaxDzLen {
		return fmt.Errorf("ipmc: dz length %d exceeds %d bits", n, MaxDzLen)
	}
	return nil
}

// KeyFromExpr packs a dz-expression that arrives as a string — hand-built,
// typed by a user, published through netem's expression entry points — after
// checking what a Key never needs checked: the alphabet and the length. It
// is where the string form enters the data path.
func KeyFromExpr(e dz.Expr) (dz.Key, error) {
	if err := e.Validate(); err != nil {
		return dz.Key{}, err
	}
	if err := CheckLen(e.Len()); err != nil {
		return dz.Key{}, err
	}
	k, _ := dz.KeyOf(e)
	return k, nil
}

// FromExpr converts a dz-expression into its IPv6 multicast CIDR prefix.
func FromExpr(e dz.Expr) (netip.Prefix, error) {
	k, err := KeyFromExpr(e)
	if err != nil {
		return netip.Prefix{}, err
	}
	return netip.PrefixFrom(AddrFromKey(k), basePrefixLen+k.Len()), nil
}

// EventAddr converts the dz-expression carried by an event into a concrete
// destination address (the prefix bits with a zero-padded suffix). It is the
// boundary form of AddrFromKey: published events get their address from
// their key.
func EventAddr(e dz.Expr) (netip.Addr, error) {
	k, err := KeyFromExpr(e)
	if err != nil {
		return netip.Addr{}, err
	}
	return AddrFromKey(k), nil
}

// PadKey returns the key a switch looks an event up by: k's bits zero-padded
// to the MaxDzLen bits its address carries, so PadKey(k) is
// KeyFromAddr(AddrFromKey(k)) without the address. The padding is what makes
// a flow for 100 match an event whose dz is 1.
func PadKey(k dz.Key) dz.Key { return dz.KeyFromBits(k.Bits(), MaxDzLen) }

// KeyFromAddr packs the 112 dz bits of an event address directly into a
// prefix-index key, skipping the string form entirely: the converter for a
// destination that arrives as an address — a hand-injected packet, a SetDest
// rewrite, Table.Lookup — run where the address is written, not per hop. ok
// is false, and the key zero, for addresses outside the ff0e::/16 block (no
// dz flow can ever match those). It never allocates.
func KeyFromAddr(addr netip.Addr) (dz.Key, bool) {
	if !addr.Is6() {
		return dz.Key{}, false
	}
	b := addr.As16()
	if b[0] != 0xff || b[1] != 0x0e {
		return dz.Key{}, false
	}
	var bits [14]byte
	copy(bits[:], b[2:])
	return dz.KeyFromBits(bits, MaxDzLen), true
}

// IsSignal reports whether the address is the reserved controller signal
// address IP_vir.
func IsSignal(addr netip.Addr) bool { return addr == SignalAddr }
