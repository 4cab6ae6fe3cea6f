package core

import (
	"errors"
	"fmt"
	"slices"
	"sort"
	"strconv"
	"sync"
	"time"

	"pleroma/internal/dz"
	"pleroma/internal/obs"
	"pleroma/internal/openflow"
	"pleroma/internal/retry"
	"pleroma/internal/sortutil"
	"pleroma/internal/topo"
)

// This file implements the controller's southbound fault-tolerance layer:
// the typed error taxonomy (SouthboundError, TransientError), the retry
// policy applied by flushOps, the degraded-switch quarantine, and the
// anti-entropy pass (Resync/ResyncAll) that recomputes each switch's
// desired table from the canonical contribution state, diffs it against
// both the controller's installed map and the switch's actual flows, and
// ships the minimal repair batch. Together they close the gap the paper's
// conclusion names as open: reacting to failures instead of assuming an
// always-healthy southbound channel.

// TransientError is implemented by programmer errors that a retry may
// resolve — an unreachable switch that restarts, a timed-out bundle, a
// short TCAM-pressure burst. Errors without this marker (or returning
// false) are permanent: retrying cannot help, so the control operation
// fails immediately.
type TransientError interface {
	error
	Transient() bool
}

// isTransient classifies a programmer error against the taxonomy.
func isTransient(err error) bool {
	var te TransientError
	return errors.As(err, &te) && te.Transient()
}

// SouthboundError wraps a programmer failure with the switch, the failing
// operation kind, the attempt count, and the transience classification.
// Control operations return it (wrapped) for permanent failures; transient
// failures that exhaust their retries are recorded in the degraded set
// instead and surface through DegradedSet.
type SouthboundError struct {
	// Sw is the switch the failing operation addressed.
	Sw topo.NodeID
	// Op is the kind of the first unacknowledged FlowMod.
	Op openflow.OpKind
	// Attempts counts southbound attempts made before giving up.
	Attempts int
	// Transient reports the taxonomy classification of Err.
	Transient bool
	// Err is the programmer's error.
	Err error
}

func (e *SouthboundError) Error() string {
	return fmt.Sprintf("core: %s flow on %d (attempt %d): %v", e.Op, e.Sw, e.Attempts, e.Err)
}

func (e *SouthboundError) Unwrap() error { return e.Err }

// RetryPolicy shapes how flushOps reacts to transient southbound errors:
// up to MaxAttempts total attempts per flush, separated by capped
// exponential backoff, with the cumulative backoff of one flush bounded by
// OpDeadline (see retry.Policy). The zero value performs a single attempt.
type RetryPolicy = retry.Policy

// DefaultRetryPolicy is a sensible production-shaped policy: four
// attempts, 2 ms → 100 ms capped backoff, half a second per operation.
var DefaultRetryPolicy = retry.Default

// DegradedSwitch describes one quarantined switch: its retries exhausted
// on a transient southbound error, its flow table lags the canonical
// state, and the next resync pass will heal it.
type DegradedSwitch struct {
	Sw topo.NodeID
	// Err is the southbound error that exhausted the retries.
	Err error
}

// DegradedSet is a controller's quarantine: the switches whose retries ran
// out on a transient southbound error and whose tables lag the canonical
// state until a resync pass heals them. It is the one part of a controller
// read off its owner's goroutine — the health endpoint polls it mid-run —
// so it keeps its own mutex, and it is handed out on its own
// (Controller.DegradedSet): a reader holds the set, never the controller a
// takeover may be replacing.
type DegradedSet struct {
	mu sync.Mutex
	m  map[topo.NodeID]error
}

// Switches returns the quarantined switches, ordered by ID. Safe from any
// goroutine.
func (q *DegradedSet) Switches() []DegradedSwitch {
	q.mu.Lock()
	defer q.mu.Unlock()
	out := make([]DegradedSwitch, 0, len(q.m))
	for sw, err := range q.m {
		out = append(out, DegradedSwitch{Sw: sw, Err: err})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Sw < out[j].Sw })
	return out
}

// put records sw as quarantined by err; it reports whether sw was not
// quarantined before.
func (q *DegradedSet) put(sw topo.NodeID, err error) bool {
	q.mu.Lock()
	defer q.mu.Unlock()
	_, already := q.m[sw]
	q.m[sw] = err
	return !already
}

// heal removes a switch from the quarantine; it reports whether the switch
// was quarantined.
func (q *DegradedSet) heal(sw topo.NodeID) bool {
	q.mu.Lock()
	defer q.mu.Unlock()
	if _, ok := q.m[sw]; !ok {
		return false
	}
	delete(q.m, sw)
	return true
}

// DegradedSet returns the controller's quarantine, for a reader on another
// goroutine (see DegradedSet).
func (c *Controller) DegradedSet() *DegradedSet { return c.degraded }

// ResyncReport summarises one anti-entropy pass.
type ResyncReport struct {
	// Switches counts the switches examined.
	Switches int
	// FlowAdds/FlowDeletes/FlowModifies count acknowledged repair ops.
	FlowAdds     int
	FlowDeletes  int
	FlowModifies int
	// Retries counts southbound retries during the repair flushes.
	Retries int
	// Healed counts switches that left the degraded set.
	Healed int
	// SouthboundCalls counts programmer invocations of the pass.
	SouthboundCalls int
	// StillDegraded lists switches that remain quarantined after the
	// pass (their repair flush failed transiently again), ordered by ID.
	StillDegraded []topo.NodeID
}

// Repaired returns the number of repair FlowMods the pass shipped.
func (r ResyncReport) Repaired() int {
	return r.FlowAdds + r.FlowDeletes + r.FlowModifies
}

// merge folds another report into r.
func (r *ResyncReport) merge(o ResyncReport) {
	r.Switches += o.Switches
	r.FlowAdds += o.FlowAdds
	r.FlowDeletes += o.FlowDeletes
	r.FlowModifies += o.FlowModifies
	r.Retries += o.Retries
	r.Healed += o.Healed
	r.SouthboundCalls += o.SouthboundCalls
	r.StillDegraded = append(r.StillDegraded, o.StillDegraded...)
}

// Resync runs the anti-entropy pass over one switch: the desired table is
// recomputed from the canonical contribution state, diffed against both
// the controller's installed map and the switch's actual flows (when the
// programmer implements FlowReader), and the minimal repair batch is
// shipped with the usual retry policy. On success the switch leaves the
// degraded set.
func (c *Controller) Resync(sw topo.NodeID) (ResyncReport, error) {
	sp, start := c.beginOp(opResync, func() string { return swLabel(sw) })
	var rr ResyncReport
	err := c.resyncSwitch(sw, &rr)
	c.endResync(opResync, sp, start, &rr, err)
	return rr, err
}

// ResyncAll runs the anti-entropy pass over every switch the controller
// has state for — switches with contributions, installed flows, or a
// quarantine entry. The pass is best-effort: a permanent error on one
// switch does not stop the others; all permanent errors are joined into
// the returned error. Transient exhaustion re-quarantines silently, and
// the report's StillDegraded names the switches a later pass must revisit.
func (c *Controller) ResyncAll() (ResyncReport, error) {
	sws := append(sortutil.Keys(c.contribs.direct), sortutil.Keys(c.installed)...)
	for _, d := range c.degraded.Switches() {
		sws = append(sws, d.Sw)
	}
	slices.Sort(sws)
	sws = slices.Compact(sws)

	sp, start := c.beginOp(opResync, func() string { return "all" })
	var rr ResyncReport
	var errs []error
	for _, sw := range sws {
		var one ResyncReport
		if err := c.resyncSwitch(sw, &one); err != nil {
			errs = append(errs, err)
		}
		rr.merge(one)
	}
	err := errors.Join(errs...)
	c.endResync(opResync, sp, start, &rr, err)
	return rr, err
}

// endResync closes the observation scope of a resync pass, mirroring
// endOp for the resync-shaped report.
func (c *Controller) endResync(op string, sp *obs.Span, start time.Time, rr *ResyncReport, err error) {
	c.span = nil
	c.inst.latency.With(op).Observe(time.Since(start))
	if sp == nil {
		return
	}
	sp.Event("report",
		"switches", strconv.Itoa(rr.Switches),
		"repaired", strconv.Itoa(rr.Repaired()),
		"healed", strconv.Itoa(rr.Healed),
		"stillDegraded", strconv.Itoa(len(rr.StillDegraded)),
	)
	sp.End(err)
}

// resyncSwitch reconciles one switch.
func (c *Controller) resyncSwitch(sw topo.NodeID, rr *ResyncReport) error {
	rr.Switches++
	c.inst.resyncs.Inc()
	desired := c.desiredTable(sw)

	// Ground truth: the switch's actual flows when the programmer can
	// report them, the controller's installed map otherwise. A flow read
	// back keeps the switch's own priority: a wrong one is repaired.
	actual := make(map[dz.Key][]openflow.Flow)
	if c.reader != nil {
		flows, err := c.reader.Flows(sw)
		if err != nil {
			rr.StillDegraded = append(rr.StillDegraded, sw)
			return fmt.Errorf("core: resync switch %d: %w", sw, err)
		}
		for _, f := range flows {
			actual[f.Key] = append(actual[f.Key], f)
		}
	} else {
		for k, fl := range c.installed[sw] {
			actual[k] = append(actual[k], openflow.Flow{ID: fl.id, Priority: k.Len(), Actions: fl.actions})
		}
	}

	// Diff actual against desired into the minimal repair batch. Entries
	// that already match are kept verbatim (their IDs seed the rebuilt
	// installed map); a duplicate-match table (which this controller never
	// produces, but a divergent switch might) is wiped and re-added.
	keys := append(sortutil.KeysFunc(actual, dz.Key.Compare), sortutil.KeysFunc(desired, dz.Key.Compare)...)
	slices.SortFunc(keys, dz.Key.Compare)

	newInst := make(map[dz.Key]installedFlow)
	var ops []openflow.FlowOp
	var metas []opMeta
	for _, k := range slices.Compact(keys) {
		want, wanted := desired[k]
		have := actual[k]
		if !wanted || len(have) > 1 {
			for _, af := range have {
				ops = append(ops, openflow.DeleteOp(af.ID))
				metas = append(metas, opMeta{key: k})
			}
			have = nil
		}
		if !wanted {
			continue
		}
		actions := c.actionsFor(sw, want)
		prio := k.Len()
		switch {
		case len(have) == 1 && have[0].Priority == prio && actionsEqual(have[0].Actions, actions):
			newInst[k] = installedFlow{id: have[0].ID, actions: actions}
		case len(have) == 1:
			ops = append(ops, openflow.ModifyOp(have[0].ID, prio, actions))
			metas = append(metas, opMeta{key: k, inst: installedFlow{id: have[0].ID, actions: actions}})
		default:
			ops = append(ops, openflow.AddOp(openflow.Flow{Key: k, Priority: prio, Actions: actions}))
			metas = append(metas, opMeta{key: k, inst: installedFlow{actions: actions}})
		}
	}

	// Reset the installed map to the verified entries, then ship the
	// repair batch through the retrying flush (which fills in the rest as
	// the switch acknowledges, and re-quarantines on exhaustion).
	c.installed[sw] = newInst
	var rep ReconfigReport
	err := c.flushOps(sw, ops, metas, newInst, &rep)
	if len(newInst) == 0 {
		delete(c.installed, sw)
	}
	rr.FlowAdds += rep.FlowAdds
	rr.FlowDeletes += rep.FlowDeletes
	rr.FlowModifies += rep.FlowModifies
	rr.Retries += rep.Retries
	rr.SouthboundCalls += rep.SouthboundCalls
	repaired := rep.FlowAdds + rep.FlowDeletes + rep.FlowModifies
	c.inst.repairedFlows.Add(uint64(repaired))

	if err != nil {
		rr.StillDegraded = append(rr.StillDegraded, sw)
		return err
	}
	if repaired == len(ops) {
		// Every repair acknowledged and no re-quarantine during the flush:
		// the switch is consistent again, so a stale degraded entry from
		// before the pass can be dropped.
		if c.degraded.heal(sw) {
			rr.Healed++
		}
	} else {
		// The repair flush itself exhausted its retries; the quarantine
		// entry now holds the fresh error and a later pass must revisit.
		rr.StillDegraded = append(rr.StillDegraded, sw)
	}
	return nil
}
