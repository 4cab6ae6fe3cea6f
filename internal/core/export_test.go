package core

import (
	"pleroma/internal/dz"
	"pleroma/internal/sortutil"
	"pleroma/internal/topo"
)

// SubscriptionSet returns the registered DZ set of a subscription.
func (c *Controller) SubscriptionSet(id string) (dz.Set, bool) {
	s, ok := c.subs[id]
	if !ok {
		return nil, false
	}
	return s.sub.Clone(), true
}

// AdvertisementSet returns the registered DZ set of an advertisement.
func (c *Controller) AdvertisementSet(id string) (dz.Set, bool) {
	p, ok := c.pubs[id]
	if !ok {
		return nil, false
	}
	return p.adv.Clone(), true
}

// InstalledFlowsOn returns the match expressions programmed on one switch,
// sorted.
func (c *Controller) InstalledFlowsOn(sw topo.NodeID) []dz.Expr {
	out := make([]dz.Expr, 0, len(c.installed[sw]))
	for _, k := range sortutil.KeysFunc(c.installed[sw], dz.Key.Compare) {
		out = append(out, k.Expr())
	}
	return out
}

// SetEpoch sets the controller's incarnation number, so a test can compare
// a takeover's state with its predecessor's modulo the epoch bump.
func (c *Controller) SetEpoch(e uint32) { c.epoch = e }

// Len returns the number of live (non-truncated) records.
func (j *Journal) Len() int {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.n
}
