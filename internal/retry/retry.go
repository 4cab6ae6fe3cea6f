// Package retry holds the repository's one retry policy, followed by the
// controller's southbound flushes (internal/core) and by the transport
// client's redials (internal/transport). It is a package of its own so that
// the transport, which carries no switch state, does not import the
// controller — and through it the switch model — to spell its backoff.
package retry

import (
	"math"
	"time"
)

// Policy shapes how a caller reacts to transient errors: up to MaxAttempts
// total attempts, separated by capped exponential backoff (BaseBackoff
// doubling up to MaxBackoff), with the cumulative backoff of one operation
// bounded by OpDeadline. The zero value performs a single attempt.
type Policy struct {
	// MaxAttempts bounds total attempts per operation (min 1).
	MaxAttempts int
	// BaseBackoff is the wait before the first retry; attempt n waits
	// BaseBackoff·2ⁿ, capped at MaxBackoff.
	BaseBackoff time.Duration
	// MaxBackoff caps the exponential growth (0 = uncapped).
	MaxBackoff time.Duration
	// OpDeadline bounds the cumulative backoff of one operation; once a
	// further wait would exceed it the caller stops retrying (0 = no
	// deadline).
	OpDeadline time.Duration
	// Sleep waits between attempts; nil uses time.Sleep. Tests inject a
	// recorder, and simulation harnesses can advance virtual time instead
	// of blocking the process.
	Sleep func(time.Duration)
}

// Default is a sensible production-shaped policy: four attempts, 2 ms →
// 100 ms capped backoff, half a second per operation.
var Default = Policy{
	MaxAttempts: 4,
	BaseBackoff: 2 * time.Millisecond,
	MaxBackoff:  100 * time.Millisecond,
	OpDeadline:  500 * time.Millisecond,
}

// Normalized returns the policy with usable defaults filled in: at least
// one attempt, and time.Sleep when Sleep is nil.
func (p Policy) Normalized() Policy {
	if p.MaxAttempts < 1 {
		p.MaxAttempts = 1
	}
	if p.Sleep == nil {
		p.Sleep = time.Sleep
	}
	return p
}

// Backoff returns the wait before retry n (0-based): BaseBackoff·2ⁿ,
// saturating at MaxBackoff — or, uncapped, at the largest Duration, so a
// large n can never overflow into a non-positive wait.
func (p Policy) Backoff(n int) time.Duration {
	limit := p.MaxBackoff
	if limit <= 0 {
		limit = math.MaxInt64
	}
	d := p.BaseBackoff
	for ; n > 0 && d > 0 && d < limit; n-- {
		if d > limit/2 {
			return limit
		}
		d *= 2
	}
	return min(d, limit)
}
