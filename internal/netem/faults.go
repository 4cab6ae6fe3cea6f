package netem

import (
	"fmt"
	"math/rand"

	"pleroma/internal/obs"
	"pleroma/internal/openflow"
	"pleroma/internal/topo"
)

// This file implements the southbound fault-injection layer: a
// FaultyProgrammer wraps the DataPlane's flow-programming surface and
// injects switch unreachability, mid-batch bundle failures, and TCAM
// pressure (ErrTableFull bursts) — scripted for deterministic unit tests
// or seeded-random for soak runs. The controller's retry/quarantine/resync
// machinery (internal/core) is exercised entirely through this layer, so
// every recovery path is testable without real switch failures.

// InjectedError is the error a FaultyProgrammer returns for a fault it
// injected. It wraps the emulated cause (ErrSwitchDown or
// openflow.ErrTableFull) and reports whether a retry may succeed.
type InjectedError struct {
	// Sw is the switch the failed call addressed.
	Sw topo.NodeID
	// Err is the emulated cause.
	Err error
	// IsTransient marks faults that clear on their own (switch restarts,
	// bundle timeouts, short TCAM pressure bursts).
	IsTransient bool
}

func (e *InjectedError) Error() string {
	return fmt.Sprintf("netem: injected fault on switch %d: %v", e.Sw, e.Err)
}

func (e *InjectedError) Unwrap() error { return e.Err }

// Transient implements the core.TransientError classification.
func (e *InjectedError) Transient() bool { return e.IsTransient }

// ErrSwitchDown is the cause carried by injected unreachability faults.
var ErrSwitchDown = fmt.Errorf("switch unreachable")

// FaultConfig shapes the fault injection of a FaultyProgrammer.
type FaultConfig struct {
	// Seed drives the random fault source.
	Seed int64
	// Rate is the per-FlowMod probability of an injected fault in [0,1).
	// In a batch every operation rolls independently, so faults strike
	// mid-batch and exercise the prefix semantics.
	Rate float64
	// FailCalls scripts deterministic faults: the n-th southbound call
	// (1-based, counted across all switches) fails. Batches fail after
	// applying half their operations, so scripted faults always test the
	// partial-batch path.
	FailCalls []uint64
	// DownCalls keeps a switch unreachable for this many subsequent
	// southbound calls after an unreachability fault hits it (a transient
	// switch-down window). Zero injects isolated single-call faults.
	DownCalls int
	// TableFullEvery makes every n-th injected fault present as a
	// transient ErrTableFull burst instead of switch unreachability
	// (0 = never).
	TableFullEvery int
}

// FaultStats counts the faults a FaultyProgrammer injected.
type FaultStats struct {
	// Calls counts southbound calls that reached the layer.
	Calls uint64
	// Injected counts injected failures (including repeat failures while
	// a switch-down window is open).
	Injected uint64
	// SwitchDowns counts opened switch-down windows.
	SwitchDowns uint64
	// TableFull counts injected ErrTableFull bursts.
	TableFull uint64
}

// FaultyProgrammer interposes fault injection between a controller and the
// data plane. It implements the same programming surface as *DataPlane
// (core.FlowProgrammer, core.FlowReader); reads (Flows) are never faulted,
// modelling a controller that can always query switch state once the
// switch answers at all — the resync pass depends on that to compute
// repairs.
//
// Like the data plane under it, it belongs to the goroutine driving the
// system and takes no lock. A controller programs its switches one call at
// a time in switch order, so a seeded run against one controller is
// reproducible.
type FaultyProgrammer struct {
	dp        *DataPlane
	cfg       FaultConfig
	rng       *rand.Rand
	calls     uint64
	scripted  map[uint64]bool
	downUntil map[topo.NodeID]uint64
	oneShot   int // -1 when unarmed; otherwise op index for the next batch
	faults    uint64
	stats     FaultStats
	// obsInjected mirrors stats.Injected into an exported counter when the
	// layer is instrumented (see Instrument); nil otherwise.
	obsInjected *obs.Counter
}

// WithFaults wraps the data plane's programming surface in a
// fault-injection layer.
func WithFaults(dp *DataPlane, cfg FaultConfig) *FaultyProgrammer {
	f := &FaultyProgrammer{
		dp:        dp,
		cfg:       cfg,
		rng:       rand.New(rand.NewSource(cfg.Seed)),
		scripted:  make(map[uint64]bool),
		downUntil: make(map[topo.NodeID]uint64),
		oneShot:   -1,
	}
	for _, c := range cfg.FailCalls {
		f.scripted[c] = true
	}
	return f
}

// FailNextBatch arms a one-shot scripted fault: the next ApplyBatch call
// fails after applying exactly opIndex operations, or the whole batch when
// it is shorter (transient switch unreachability).
func (f *FaultyProgrammer) FailNextBatch(opIndex int) {
	f.oneShot = opIndex
}

// Heal closes every open switch-down window.
func (f *FaultyProgrammer) Heal() {
	f.downUntil = make(map[topo.NodeID]uint64)
}

// SetRate replaces the random fault probability (e.g. to stop injection
// before a convergence check).
func (f *FaultyProgrammer) SetRate(rate float64) {
	f.cfg.Rate = rate
}

// Stats returns a snapshot of the injection counters.
func (f *FaultyProgrammer) Stats() FaultStats { return f.stats }

// newFault builds the injected error for one fault occurrence, opening a
// switch-down window unless the fault presents as a table-full burst.
func (f *FaultyProgrammer) newFault(sw topo.NodeID) *InjectedError {
	f.faults++
	f.stats.Injected++
	f.obsInjected.Inc()
	if f.cfg.TableFullEvery > 0 && f.faults%uint64(f.cfg.TableFullEvery) == 0 {
		f.stats.TableFull++
		return &InjectedError{Sw: sw, Err: openflow.ErrTableFull, IsTransient: true}
	}
	f.stats.SwitchDowns++
	if f.cfg.DownCalls > 0 {
		f.downUntil[sw] = f.calls + uint64(f.cfg.DownCalls)
	}
	return &InjectedError{Sw: sw, Err: ErrSwitchDown, IsTransient: true}
}

// admit charges one southbound call and returns a fault if the switch is
// inside a down window.
func (f *FaultyProgrammer) admit(sw topo.NodeID) *InjectedError {
	f.calls++
	f.stats.Calls++
	if until, down := f.downUntil[sw]; down {
		if f.calls <= until {
			f.stats.Injected++
			f.obsInjected.Inc()
			return &InjectedError{Sw: sw, Err: ErrSwitchDown, IsTransient: true}
		}
		delete(f.downUntil, sw)
	}
	return nil
}

// decideBatch picks the cut position for a batch of n ops: n means no
// fault; otherwise ops[:cut] apply and the call fails.
func (f *FaultyProgrammer) decideBatch(sw topo.NodeID, n int) (int, *InjectedError) {
	if f.oneShot >= 0 {
		cut := f.oneShot
		f.oneShot = -1
		if cut > n {
			cut = n
		}
		return cut, f.newFault(sw)
	}
	if f.scripted[f.calls] {
		return n / 2, f.newFault(sw)
	}
	if f.cfg.Rate > 0 {
		for i := 0; i < n; i++ {
			if f.rng.Float64() < f.cfg.Rate {
				return i, f.newFault(sw)
			}
		}
	}
	return n, nil
}

// ApplyBatch implements core.FlowProgrammer with mid-batch fault
// injection: a fault at op i applies ops[:i] to the real table and returns
// the acknowledged prefix alongside the injected error, exactly the
// OpenFlow-bundle failure shape the controller's prefix accounting
// handles. ids passes through to the data plane.
func (f *FaultyProgrammer) ApplyBatch(sw topo.NodeID, ops []openflow.FlowOp, ids []openflow.FlowID) ([]openflow.FlowID, error) {
	injErr := f.admit(sw)
	cut := len(ops)
	if injErr == nil {
		cut, injErr = f.decideBatch(sw, len(ops))
	} else {
		cut = 0
	}
	if cut == 0 && injErr != nil {
		return ids, injErr
	}
	ids, err := f.dp.ApplyBatch(sw, ops[:cut], ids)
	if err != nil {
		return ids, err
	}
	if injErr != nil {
		return ids, injErr
	}
	return ids, nil
}

// Flows implements core.FlowReader; reads are never faulted.
func (f *FaultyProgrammer) Flows(sw topo.NodeID) ([]openflow.Flow, error) {
	return f.dp.Flows(sw)
}
