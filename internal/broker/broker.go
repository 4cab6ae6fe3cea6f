// Package broker implements the baseline PLEROMA is compared against: a
// classical application-layer content-based publish/subscribe overlay in
// the style of SIENA/PADRES (references [2, 8] of the paper). Brokers run
// on every switch of the same physical topology, organised in a single
// spanning tree; subscriptions flood the tree with covering-based
// suppression, and events are matched in *software* at every broker hop.
//
// The baseline exposes the two costs the paper's introduction attributes
// to broker-based filtering: the per-hop software matching delay, and the
// detour/processing overhead compared to line-rate TCAM forwarding.
package broker

import (
	"fmt"
	"slices"
	"sort"
	"sync"
	"time"

	"pleroma/internal/dz"
	"pleroma/internal/sim"
	"pleroma/internal/space"
	"pleroma/internal/topo"
)

// Config sets the broker processing model.
type Config struct {
	// BaseHopDelay is the fixed userspace forwarding overhead per broker.
	BaseHopDelay time.Duration
	// PerFilterCost is the matching cost per subscription filter
	// evaluated at a broker.
	PerFilterCost time.Duration
}

// DefaultConfig models a tuned software broker.
var DefaultConfig = Config{
	BaseHopDelay:  100 * time.Microsecond,
	PerFilterCost: 200 * time.Nanosecond,
}

// Delivery reports one event handed to a subscriber.
type Delivery struct {
	SubID string
	Host  topo.NodeID
	Event space.Event
	At    time.Duration
}

// DeliverFunc consumes deliveries.
type DeliverFunc func(Delivery)

// Stats counts overlay activity.
type Stats struct {
	// ControlMessages counts subscription propagation messages between
	// brokers.
	ControlMessages uint64
	// EventMessages counts event transmissions over physical links.
	EventMessages uint64
	// Deliveries counts events handed to subscribers.
	Deliveries uint64
	// FilterEvaluations counts subscription filters evaluated in software.
	FilterEvaluations uint64
	// SuppressedByCovering counts subscription forwardings skipped.
	SuppressedByCovering uint64
}

// subEntry is one subscription known at a broker for one direction.
type subEntry struct {
	id   string
	rect dz.Rect
}

// broker is the per-switch state.
type broker struct {
	node topo.NodeID
	// local subscriptions of hosts attached to this broker's switch.
	local []subEntry
	// remote maps tree-neighbour broker -> subscriptions reachable through
	// it.
	remote map[topo.NodeID][]subEntry
	// sent maps tree-neighbour -> subscription rects already forwarded
	// that way (for covering suppression).
	sent map[topo.NodeID][]dz.Rect
}

// Overlay is the broker network.
//
// Like core.Controller, an Overlay is safe for concurrent use — the
// broker-vs-SDN ablation stays apples-to-apples under concurrent churn.
// One lock guards routing tables and counters; the simulated event routing
// acquires it per broker hop, mimicking a per-broker critical section.
type Overlay struct {
	g       *topo.Graph
	eng     *sim.Engine
	cfg     Config
	tree    *topo.SpanningTree
	deliver DeliverFunc

	// mu guards brokers, stats, and the subscription registry.
	mu      sync.Mutex
	brokers map[topo.NodeID]*broker
	stats   Stats
	subHome map[string]topo.NodeID
	subRect map[string]dz.Rect
	// subOrder preserves registration order for re-propagation after an
	// unsubscription.
	subOrder []string
}

// New builds a broker overlay over all switches of the topology, embedded
// in a single spanning tree rooted at the lowest-ID switch (the classical
// single-tree design of Section 3.1).
func New(g *topo.Graph, eng *sim.Engine, cfg Config, deliver DeliverFunc) (*Overlay, error) {
	switches := g.Switches()
	if len(switches) == 0 {
		return nil, fmt.Errorf("broker: topology has no switches")
	}
	tree, err := g.ShortestPathTree(switches[0], func(n topo.NodeID) bool {
		node, err := g.Node(n)
		return err == nil && node.Kind == topo.KindSwitch
	})
	if err != nil {
		return nil, fmt.Errorf("broker: spanning tree: %w", err)
	}
	o := &Overlay{
		g:       g,
		eng:     eng,
		cfg:     cfg,
		tree:    tree,
		brokers: make(map[topo.NodeID]*broker, len(switches)),
		deliver: deliver,
		subHome: make(map[string]topo.NodeID),
		subRect: make(map[string]dz.Rect),
	}
	for _, sw := range switches {
		if !tree.Contains(sw) {
			return nil, fmt.Errorf("broker: switch %d unreachable from root", sw)
		}
		o.brokers[sw] = &broker{
			node:   sw,
			remote: make(map[topo.NodeID][]subEntry),
			sent:   make(map[topo.NodeID][]dz.Rect),
		}
	}
	return o, nil
}

// Stats returns a copy of the counters.
func (o *Overlay) Stats() Stats {
	o.mu.Lock()
	defer o.mu.Unlock()
	return o.stats
}

// treeNeighbors returns the tree-adjacent brokers of sw.
func (o *Overlay) treeNeighbors(sw topo.NodeID) []topo.NodeID {
	var out []topo.NodeID
	if p, ok := o.tree.Parent(sw); ok && p != sw {
		out = append(out, p)
	}
	for _, other := range o.g.Switches() {
		if p, ok := o.tree.Parent(other); ok && p == sw && other != sw {
			out = append(out, other)
		}
	}
	return out
}

// Subscribe registers a subscription at the broker of the host's switch
// and floods it through the tree with covering-based suppression.
func (o *Overlay) Subscribe(id string, host topo.NodeID, rect dz.Rect) error {
	sw, err := o.g.AttachedSwitch(host)
	if err != nil {
		return fmt.Errorf("broker: subscribe: %w", err)
	}
	o.mu.Lock()
	defer o.mu.Unlock()
	if _, dup := o.subHome[id]; dup {
		return fmt.Errorf("broker: duplicate subscription id %q", id)
	}
	b := o.brokers[sw]
	b.local = append(b.local, subEntry{id: id, rect: rect})
	o.subHome[id] = host
	o.subRect[id] = rect
	o.subOrder = append(o.subOrder, id)
	o.propagate(sw, 0, id, rect, true)
	return nil
}

// Unsubscribe removes a subscription. Because covering-based suppression
// may have let this subscription carry finer ones, the overlay rebuilds
// the routing tables by re-propagating the surviving subscriptions — the
// "expensive maintenance of subscription summaries" the paper's related
// work discusses; the control messages are counted accordingly.
func (o *Overlay) Unsubscribe(id string) error {
	o.mu.Lock()
	defer o.mu.Unlock()
	host, ok := o.subHome[id]
	if !ok {
		return fmt.Errorf("broker: unknown subscription id %q", id)
	}
	sw, err := o.g.AttachedSwitch(host)
	if err != nil {
		return err
	}
	b := o.brokers[sw]
	b.local = slices.DeleteFunc(b.local, func(e subEntry) bool { return e.id == id })
	delete(o.subHome, id)
	delete(o.subRect, id)
	o.subOrder = slices.DeleteFunc(o.subOrder, func(s string) bool { return s == id })

	// Rebuild all inter-broker routing state.
	for _, br := range o.brokers {
		br.remote = make(map[topo.NodeID][]subEntry)
		br.sent = make(map[topo.NodeID][]dz.Rect)
	}
	for _, sid := range o.subOrder {
		h := o.subHome[sid]
		swr, err := o.g.AttachedSwitch(h)
		if err != nil {
			return err
		}
		o.propagate(swr, 0, sid, o.subRect[sid], true)
	}
	return nil
}

// propagate floods a subscription from broker sw to all tree neighbours
// except `from` (0 meaning none).
func (o *Overlay) propagate(sw, from topo.NodeID, id string, rect dz.Rect, isOrigin bool) {
	for _, nb := range o.treeNeighbors(sw) {
		if !isOrigin && nb == from {
			continue
		}
		covered := false
		for _, prev := range o.brokers[sw].sent[nb] {
			if rectCovers(prev, rect) {
				covered = true
				break
			}
		}
		if covered {
			o.stats.SuppressedByCovering++
			continue
		}
		b := o.brokers[sw]
		b.sent[nb] = append(b.sent[nb], rect)
		o.stats.ControlMessages++
		nbBroker := o.brokers[nb]
		nbBroker.remote[sw] = append(nbBroker.remote[sw], subEntry{id: id, rect: rect})
		o.propagate(nb, sw, id, rect, false)
	}
}

// Publish injects an event at the publisher's broker and routes it through
// the overlay. Deliveries fire on the configured callback with simulated
// timestamps that include per-hop software matching delay.
func (o *Overlay) Publish(host topo.NodeID, ev space.Event) error {
	sw, err := o.g.AttachedSwitch(host)
	if err != nil {
		return fmt.Errorf("broker: publish: %w", err)
	}
	access, ok := o.g.LinkBetween(host, sw)
	if !ok {
		return fmt.Errorf("broker: host %d has no access link", host)
	}
	o.mu.Lock()
	o.stats.EventMessages++
	o.mu.Unlock()
	o.eng.Schedule(access.Params.Latency, func() {
		o.route(sw, 0, ev)
	})
	return nil
}

// route processes an event at one broker: match against local and remote
// subscription tables, deliver locally, and forward towards interested
// neighbours.
func (o *Overlay) route(sw, from topo.NodeID, ev space.Event) {
	o.mu.Lock()
	b := o.brokers[sw]
	evaluated := 0

	// Local deliveries.
	type localHit struct {
		id   string
		host topo.NodeID
	}
	var hits []localHit
	for _, e := range b.local {
		evaluated++
		if dz.RectContainsPoint(e.rect, ev.Values) {
			hits = append(hits, localHit{id: e.id, host: o.subHome[e.id]})
		}
	}
	// Forwarding decisions.
	var forwards []topo.NodeID
	for nb, entries := range b.remote {
		if nb == from {
			continue
		}
		match := false
		for _, e := range entries {
			evaluated++
			if dz.RectContainsPoint(e.rect, ev.Values) {
				match = true
				break
			}
		}
		if match {
			forwards = append(forwards, nb)
		}
	}
	sortNodeIDs(forwards)
	o.stats.FilterEvaluations += uint64(evaluated)
	o.mu.Unlock()

	procDelay := o.cfg.BaseHopDelay + time.Duration(evaluated)*o.cfg.PerFilterCost
	o.eng.Schedule(procDelay, func() {
		for _, h := range hits {
			h := h
			hostLink, ok := o.g.LinkBetween(sw, h.host)
			if !ok {
				continue
			}
			o.mu.Lock()
			o.stats.EventMessages++
			o.mu.Unlock()
			o.eng.Schedule(hostLink.Params.Latency, func() {
				o.mu.Lock()
				o.stats.Deliveries++
				deliver := o.deliver
				o.mu.Unlock()
				if deliver != nil {
					deliver(Delivery{SubID: h.id, Host: h.host, Event: ev, At: o.eng.Now()})
				}
			})
		}
		for _, nb := range forwards {
			nb := nb
			link, ok := o.g.LinkBetween(sw, nb)
			if !ok {
				continue
			}
			o.mu.Lock()
			o.stats.EventMessages++
			o.mu.Unlock()
			o.eng.Schedule(link.Params.Latency, func() {
				o.route(nb, sw, ev)
			})
		}
	})
}

func sortNodeIDs(ids []topo.NodeID) {
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
}

// rectCovers reports whether a contains b in every dimension.
func rectCovers(a, b dz.Rect) bool {
	if len(a) != len(b) {
		return false
	}
	for d := range a {
		if !a[d].ContainsInterval(b[d]) {
			return false
		}
	}
	return true
}
