package netem

import (
	"pleroma/internal/obs"
	"pleroma/internal/topo"
)

// Instrument attaches the data plane's runtime metrics to reg:
// aggregate link transmission/drop counters, host delivery counters, and
// a per-switch flow-table occupancy gauge driven by the tables' size
// observers — ground truth straight from the emulated TCAMs, not the
// controller's belief about them.
//
// Call it once at setup, before the simulation runs: the counter fields
// are published to the forwarding path without synchronisation, relying
// on the happens-before edge of starting the run. Without instrumentation
// the fields stay nil and the forwarding hot path pays only nil checks.
func (dp *DataPlane) Instrument(reg *obs.Registry) {
	if reg == nil {
		return
	}
	dp.obsLinkPackets = reg.Counter(obs.MLinkPackets, "Packets transmitted over links (all directions).")
	dp.obsLinkDrops = reg.Counter(obs.MLinkDrops, "Packets dropped at links (down links and full transmit queues).")
	dp.obsHostDeliveries = reg.Counter(obs.MHostDeliveries, "Packets handed to host applications.")
	if dp.Sharded() {
		dp.obsCrossMessages = reg.Counter(obs.MShardCrossMessages, "Packet hops that crossed a shard boundary through a barrier mailbox.")
		dp.obsMailboxDrained = reg.Gauge(obs.MShardMailbox, "Cross-shard mailbox backlog drained at the most recent barrier.")
	}

	occ := obs.NewVec[topo.NodeID](obs.NewGauge)
	reg.AttachVec(obs.MFlowTableOccupancy, "Installed flows per switch (TCAM pressure), read from the emulated tables.", "switch", occ)
	for sw, table := range dp.tables {
		g := occ.With(sw)
		table.SetSizeObserver(func(n int) { g.Set(int64(n)) })
	}
}

// Instrument attaches the fault-injection counter to reg.
func (f *FaultyProgrammer) Instrument(reg *obs.Registry) {
	if reg == nil {
		return
	}
	f.obsInjected = reg.Counter(obs.MInjectedFaults, "Failures injected by the southbound fault layer.")
}
