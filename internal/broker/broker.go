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
	// SentAt is the simulated instant the event was published.
	SentAt time.Duration
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

// Overlay is the broker network. Like core.Controller, it belongs to the
// goroutine driving it — the one running its engine — and takes no lock.
type Overlay struct {
	g       *topo.Graph
	eng     *sim.Engine
	cfg     Config
	tree    *topo.SpanningTree
	deliver DeliverFunc

	brokers map[topo.NodeID]*broker
	stats   Stats
	subHome map[string]topo.NodeID
	subRect map[string]dz.Rect
	// subOrder preserves registration order for re-propagation after an
	// unsubscription.
	subOrder []string

	// hops holds the payload of every event the overlay has scheduled (see
	// HandleEvent).
	hops sim.Slots[hop]
}

// The overlay's event kinds. A is a node, B the broker an event arrives
// from (0 at the publisher's), Ref a slot of Overlay.hops.
const (
	// evPublish: a PublishAt comes due at host A, attached to broker B.
	evPublish uint8 = iota + 1
	// evRoute: the event arrives at broker A from broker B.
	evRoute
	// evForward: broker A has matched the event; send it on.
	evForward
	// evDeliver: the event reaches a subscriber on host A.
	evDeliver
)

// hop is the payload of one overlay event.
type hop struct {
	ev     space.Event
	sentAt time.Duration
	// sub is the subscription an evDeliver delivers to.
	sub string
	// hits and forwards are what an evForward sends: local subscriptions
	// matched, and tree neighbours to forward to.
	hits     []localHit
	forwards []topo.NodeID
}

// localHit is a subscription of a host attached to the matching broker.
type localHit struct {
	id   string
	host topo.NodeID
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
func (o *Overlay) Stats() Stats { return o.stats }

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
	sw, access, err := o.access(host)
	if err != nil {
		return err
	}
	o.send(sw, access, hop{ev: ev, sentAt: o.eng.Now()})
	return nil
}

// PublishAt is Publish at the simulated instant at: the host is checked
// now, and on error nothing is scheduled.
func (o *Overlay) PublishAt(at time.Duration, host topo.NodeID, ev space.Event) error {
	sw, _, err := o.access(host)
	if err != nil {
		return err
	}
	o.eng.AtEvent(at, o, sim.Event{Kind: evPublish, A: int32(host), B: int32(sw), Ref: o.hops.Put(hop{ev: ev})})
	return nil
}

// access returns the broker a host publishes to and the link it takes.
func (o *Overlay) access(host topo.NodeID) (topo.NodeID, *topo.Link, error) {
	sw, err := o.g.AttachedSwitch(host)
	if err != nil {
		return 0, nil, fmt.Errorf("broker: publish: %w", err)
	}
	link, ok := o.g.LinkBetween(host, sw)
	if !ok {
		return 0, nil, fmt.Errorf("broker: host %d has no access link", host)
	}
	return sw, link, nil
}

// send puts a published event on the host's access link to broker sw.
func (o *Overlay) send(sw topo.NodeID, access *topo.Link, h hop) {
	o.stats.EventMessages++
	o.eng.ScheduleEvent(access.Params.Latency, o, sim.Event{Kind: evRoute, A: int32(sw), Ref: o.hops.Put(h)})
}

// HandleEvent runs one of the overlay's scheduled events (see evPublish
// and its siblings).
func (o *Overlay) HandleEvent(ev sim.Event) {
	h := o.hops.Take(ev.Ref)
	switch ev.Kind {
	case evPublish:
		host, sw := topo.NodeID(ev.A), topo.NodeID(ev.B)
		access, _ := o.g.LinkBetween(host, sw)
		h.sentAt = o.eng.Now()
		o.send(sw, access, h)
	case evRoute:
		o.route(topo.NodeID(ev.A), topo.NodeID(ev.B), h)
	case evForward:
		o.forward(topo.NodeID(ev.A), h)
	case evDeliver:
		o.stats.Deliveries++
		if o.deliver != nil {
			o.deliver(Delivery{SubID: h.sub, Host: topo.NodeID(ev.A), Event: h.ev, At: o.eng.Now(), SentAt: h.sentAt})
		}
	}
}

// route processes an event at one broker: match against local and remote
// subscription tables, and after the matching delay deliver locally and
// forward towards interested neighbours.
func (o *Overlay) route(sw, from topo.NodeID, h hop) {
	b := o.brokers[sw]
	evaluated := 0

	// Local deliveries.
	for _, e := range b.local {
		evaluated++
		if dz.RectContainsPoint(e.rect, h.ev.Values) {
			h.hits = append(h.hits, localHit{id: e.id, host: o.subHome[e.id]})
		}
	}
	// Forwarding decisions.
	for nb, entries := range b.remote {
		if nb == from {
			continue
		}
		for _, e := range entries {
			evaluated++
			if dz.RectContainsPoint(e.rect, h.ev.Values) {
				h.forwards = append(h.forwards, nb)
				break
			}
		}
	}
	sortNodeIDs(h.forwards)
	o.stats.FilterEvaluations += uint64(evaluated)

	procDelay := o.cfg.BaseHopDelay + time.Duration(evaluated)*o.cfg.PerFilterCost
	o.eng.ScheduleEvent(procDelay, o, sim.Event{Kind: evForward, A: int32(sw), Ref: o.hops.Put(h)})
}

// forward sends an event broker sw has matched to its local subscribers
// and on to the tree neighbours it chose.
func (o *Overlay) forward(sw topo.NodeID, h hop) {
	for _, hit := range h.hits {
		hostLink, ok := o.g.LinkBetween(sw, hit.host)
		if !ok {
			continue
		}
		o.stats.EventMessages++
		o.eng.ScheduleEvent(hostLink.Params.Latency, o, sim.Event{Kind: evDeliver, A: int32(hit.host),
			Ref: o.hops.Put(hop{ev: h.ev, sentAt: h.sentAt, sub: hit.id})})
	}
	for _, nb := range h.forwards {
		link, ok := o.g.LinkBetween(sw, nb)
		if !ok {
			continue
		}
		o.stats.EventMessages++
		o.eng.ScheduleEvent(link.Params.Latency, o, sim.Event{Kind: evRoute, A: int32(nb), B: int32(sw),
			Ref: o.hops.Put(hop{ev: h.ev, sentAt: h.sentAt})})
	}
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
