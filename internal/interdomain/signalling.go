package interdomain

import (
	"fmt"
	"time"

	"pleroma/internal/dz"
	"pleroma/internal/ipmc"
	"pleroma/internal/netem"
	"pleroma/internal/openflow"
	"pleroma/internal/sim"
	"pleroma/internal/topo"
	"pleroma/internal/wire"
)

// SignalRequest is one control request in fabric terms: the payload of an
// in-band control packet, which hosts address to the reserved IP_vir
// (Section 2 of the paper; no switch carries a flow for that address, so
// the first switch punts the packet to its partition's controller), and
// the argument of Apply. Op is one of the four signalling ops.
type SignalRequest struct {
	Op   wire.Op
	ID   string
	Host topo.NodeID
	Set  dz.Set
}

// SignalStats counts in-band control activity.
type SignalStats struct {
	Handled uint64
	Errors  uint64
}

// EnableInBandSignalling registers the fabric as the data plane's punt
// handler: IP_vir-addressed packets become control requests, executed on
// the data plane's control engine after the given controller processing
// delay of simulated time. The fabric owns the punt handler from this
// point on.
func (f *Fabric) EnableInBandSignalling(processingDelay time.Duration) {
	f.signalDelay = processingDelay
	f.inBandEnabled = true
	f.dp.SetPuntHandler(f.handlePunt)
}

// SignalStats returns the in-band control counters.
func (f *Fabric) SignalStats() SignalStats { return f.signalStats }

// SendSignal emits an in-band control request from the request's host,
// serialised with the wire codec (package wire). The request takes effect
// only when the punted packet reaches the controller and its processing
// completes — the realistic activation latency of requirement 1.
func (f *Fabric) SendSignal(req SignalRequest) error {
	if _, err := f.homePartition(req.Host); err != nil {
		return err
	}
	payload, err := wire.EncodeSignal(wire.Signal{
		Op:   req.Op,
		ID:   req.ID,
		Host: uint32(req.Host),
		Set:  req.Set,
	})
	if err != nil {
		return fmt.Errorf("interdomain: encode signal: %w", err)
	}
	return f.dp.SendFromHost(req.Host, netem.Packet{
		Dst:       ipmc.SignalAddr,
		Publisher: req.Host,
		SizeBytes: len(payload) + 48, // payload + IPv6/UDP headers
		HopLimit:  netem.DefaultHopLimit,
		Control:   payload,
	})
}

// handlePunt dispatches punted packets: IP_vir control requests execute on
// the fabric after the processing delay, parked in f.signals until then;
// everything else (e.g. data-plane table misses) is dropped, as a
// controller without a matching subscription path would do.
func (f *Fabric) handlePunt(sw topo.NodeID, inPort openflow.PortID, pkt netem.Packet) {
	if !ipmc.IsSignal(pkt.Dst) {
		return
	}
	payload, ok := pkt.Control.([]byte)
	if !ok {
		return
	}
	decoded, err := wire.DecodeSignal(payload)
	if err != nil {
		f.signalStats.Errors++
		return
	}
	req := SignalRequest{Op: decoded.Op, ID: decoded.ID, Host: topo.NodeID(decoded.Host), Set: decoded.Set}
	f.dp.ControlEngine().ScheduleEvent(f.signalDelay, f, sim.Event{Ref: f.signals.Put(req)})
}

// HandleEvent applies the in-band request a punt parked in f.signals: the
// moment its controller processing completes.
func (f *Fabric) HandleEvent(ev sim.Event) {
	f.signalStats.Handled++
	if err := f.Apply(f.signals.Take(ev.Ref)); err != nil {
		f.signalStats.Errors++
	}
}

// Apply runs one control request against the fabric, synchronously. It is
// the only place an op is mapped to its fabric operation: the facade's
// direct path (and through it the transport backend) and the in-band punt
// path both end here.
func (f *Fabric) Apply(req SignalRequest) error {
	switch req.Op {
	case wire.OpAdvertise:
		return f.Advertise(req.ID, req.Host, req.Set)
	case wire.OpSubscribe:
		return f.Subscribe(req.ID, req.Host, req.Set)
	case wire.OpUnsubscribe:
		return f.Unsubscribe(req.ID)
	case wire.OpUnadvertise:
		return f.Unadvertise(req.ID)
	default:
		return fmt.Errorf("interdomain: unknown control op %q", req.Op)
	}
}
