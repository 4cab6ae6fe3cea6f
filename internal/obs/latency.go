package obs

import (
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// DeliverySample is one end-to-end delivery observation: everything the
// facade knows the moment an event reaches a subscriber. The struct is
// plain values (the only pointer is the subscription-id string header), so
// recording one costs no allocations.
type DeliverySample struct {
	// TraceID links the sample to its distributed trace (0 untraced).
	TraceID uint64
	// SubscriptionID names the receiving subscription.
	SubscriptionID string
	// Tree is the dissemination tree that carried the event (< 0 unknown).
	Tree int64
	// Partition is the publisher's controller partition (< 0 unknown).
	Partition int64
	// Latency is the simulated publish→delivery latency.
	Latency time.Duration
	// WallLatency is the real publish→delivery latency when the publish
	// carried a wall stamp (0 otherwise). Across machines it includes
	// clock skew.
	WallLatency time.Duration
	// Hops is the number of switch hops traversed.
	Hops int
	// At is the simulated delivery time.
	At time.Duration
	// FalsePositive marks deliveries outside the subscription filter.
	FalsePositive bool
}

// SlowRing retains the N slowest delivery samples seen so far (by
// simulated latency) for tail forensics. It is a fixed-capacity min-heap
// with an atomic threshold gate: once full, samples faster than the
// current minimum are rejected without taking the lock, so the common case
// on a healthy system is one atomic load.
type SlowRing struct {
	gate    atomic.Int64 // latency a sample must exceed once full; -1 while filling
	mu      sync.Mutex
	entries []DeliverySample // min-heap on Latency
}

// NewSlowRing returns a ring retaining the capacity slowest samples
// (minimum 1).
func NewSlowRing(capacity int) *SlowRing {
	if capacity < 1 {
		capacity = 1
	}
	r := &SlowRing{entries: make([]DeliverySample, 0, capacity)}
	r.gate.Store(-1)
	return r
}

// Offer records a sample if it ranks among the slowest. Nil-safe.
func (r *SlowRing) Offer(s DeliverySample) {
	if r == nil {
		return
	}
	if int64(s.Latency) <= r.gate.Load() {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if len(r.entries) < cap(r.entries) {
		r.entries = append(r.entries, s)
		r.siftUp(len(r.entries) - 1)
		if len(r.entries) == cap(r.entries) {
			r.gate.Store(int64(r.entries[0].Latency))
		}
		return
	}
	// Full: the gate may have admitted a racing sample that is no longer
	// slower than the minimum; re-check under the lock.
	if s.Latency <= r.entries[0].Latency {
		return
	}
	r.entries[0] = s
	r.siftDown(0)
	r.gate.Store(int64(r.entries[0].Latency))
}

func (r *SlowRing) siftUp(i int) {
	for i > 0 {
		p := (i - 1) / 2
		if r.entries[p].Latency <= r.entries[i].Latency {
			return
		}
		r.entries[p], r.entries[i] = r.entries[i], r.entries[p]
		i = p
	}
}

func (r *SlowRing) siftDown(i int) {
	n := len(r.entries)
	for {
		min, l, rt := i, 2*i+1, 2*i+2
		if l < n && r.entries[l].Latency < r.entries[min].Latency {
			min = l
		}
		if rt < n && r.entries[rt].Latency < r.entries[min].Latency {
			min = rt
		}
		if min == i {
			return
		}
		r.entries[i], r.entries[min] = r.entries[min], r.entries[i]
		i = min
	}
}

// Snapshot returns the retained samples, slowest first.
func (r *SlowRing) Snapshot() []DeliverySample {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	out := append([]DeliverySample(nil), r.entries...)
	r.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].Latency > out[j].Latency })
	return out
}

// DeliveryLatency is the delivery-latency instrument family: the
// per-tree and per-partition publish→delivery histograms, the hop-count
// histogram, the wall-latency histogram, and the slowest-events ring. A
// nil *DeliveryLatency is a valid disabled family.
type DeliveryLatency struct {
	byTree      *Vec[int64, *Histogram]
	byPartition *Vec[int64, *Histogram]
	hops        *Histogram
	wall        *Histogram
	slow        *SlowRing
}

// NewDeliveryLatency builds the family, retaining the slowCapacity slowest
// deliveries (32 when <= 0).
func NewDeliveryLatency(slowCapacity int) *DeliveryLatency {
	if slowCapacity <= 0 {
		slowCapacity = 32
	}
	latency := func() *Histogram { return NewHistogram() }
	return &DeliveryLatency{
		byTree:      NewVec[int64](latency),
		byPartition: NewVec[int64](latency),
		hops:        NewCountHistogram(),
		wall:        NewHistogram(),
		slow:        NewSlowRing(slowCapacity),
	}
}

// Attach registers the family's histograms in reg.
func (l *DeliveryLatency) Attach(reg *Registry) {
	if l == nil || reg == nil {
		return
	}
	reg.AttachVec(MDeliveryLatencyByTree,
		"Simulated publish-to-delivery latency by dissemination tree.", "tree", l.byTree)
	reg.AttachVec(MDeliveryLatencyByPartition,
		"Simulated publish-to-delivery latency by publisher partition.", "partition", l.byPartition)
	reg.Attach(MDeliveryHops, "Switch hops traversed per delivered event.", l.hops)
	reg.Attach(MDeliveryWallLatency, "Wall-clock publish-to-delivery latency for stamped publishes.", l.wall)
}

// Record files one delivery observation. Nil-safe and allocation-free
// once the sample's tree and partition have been seen.
func (l *DeliveryLatency) Record(s DeliverySample) {
	if l == nil {
		return
	}
	if s.Tree >= 0 {
		l.byTree.With(s.Tree).Observe(s.Latency)
	}
	if s.Partition >= 0 {
		l.byPartition.With(s.Partition).Observe(s.Latency)
	}
	l.hops.ObserveCount(s.Hops)
	if s.WallLatency > 0 {
		l.wall.Observe(s.WallLatency)
	}
	l.slow.Offer(s)
}

// Slowest returns the retained tail samples, slowest first. The histograms
// are read from the registry the family is attached to.
func (l *DeliveryLatency) Slowest() []DeliverySample {
	if l == nil {
		return nil
	}
	return l.slow.Snapshot()
}
