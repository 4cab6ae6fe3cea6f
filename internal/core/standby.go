package core

import (
	"fmt"

	"pleroma/internal/topo"
)

// StandbyController is a warm standby for one partition's controller. It
// holds everything needed to take over — topology, southbound programmer,
// controller options, the shared journal's read side, and the latest
// snapshot it observed — and on Promote reconstructs a live controller at
// the failed one's exact logical state: restore the snapshot (or start
// fresh), replay the journal suffix, bump the epoch past every one
// observed, and anti-entropy-resync the inherited switches so whatever the
// crashed controller actually programmed is reconciled with the canonical
// state (Resync/FlowReader are reused verbatim). Like the controller it
// promotes, a standby belongs to the goroutine driving its partition.
type StandbyController struct {
	g    *topo.Graph
	prog FlowProgrammer
	src  ReplaySource
	opts []Option
	snap []byte
}

// NewStandby builds a standby. src is the read side of the journal the
// active controller writes; opts must match the active controller's
// configuration (same partition, host-address function, policies).
func NewStandby(g *topo.Graph, prog FlowProgrammer, src ReplaySource, opts ...Option) *StandbyController {
	return &StandbyController{g: g, prog: prog, src: src, opts: opts}
}

// ObserveSnapshot hands the standby a snapshot of the active controller
// (validated before adoption). Promote restores from the most recent one
// and replays only the journal records past it.
func (s *StandbyController) ObserveSnapshot(snap []byte) error {
	if _, err := SnapshotDigest(snap); err != nil {
		return err
	}
	s.snap = append([]byte(nil), snap...)
	return nil
}

// PromoteReport summarises one takeover.
type PromoteReport struct {
	// FromSnapshot is true when the standby restored a snapshot (as
	// opposed to rebuilding purely from the journal).
	FromSnapshot bool
	// SnapshotSeq is the journal sequence the restored snapshot covered.
	SnapshotSeq uint64
	// Replayed counts journal records applied on top.
	Replayed int
	// Epoch is the promoted controller's new incarnation number.
	Epoch uint32
	// Resync reports the anti-entropy pass over the inherited switches.
	Resync ResyncReport
}

// Promote turns the standby into the partition's live controller. The
// returned controller has the journal attached (when the replay source
// implements Journal) and its switch tables reconciled; the standby's
// snapshot is consumed.
func (s *StandbyController) Promote() (*Controller, PromoteReport, error) {
	var rep PromoteReport
	snap := s.snap
	s.snap = nil

	var (
		ctl *Controller
		err error
	)
	if snap != nil {
		ctl, err = RestoreController(s.g, s.prog, snap, s.opts...)
		if err != nil {
			return nil, rep, fmt.Errorf("core: promote: %w", err)
		}
		rep.FromSnapshot = true
		rep.SnapshotSeq = ctl.JournalSeq()
	} else {
		ctl, err = NewController(s.g, s.prog, s.opts...)
		if err != nil {
			return nil, rep, fmt.Errorf("core: promote: %w", err)
		}
	}

	maxEpoch := ctl.Epoch()
	if s.src != nil {
		recs, err := s.src.Records(ctl.JournalSeq())
		if err != nil {
			return nil, rep, fmt.Errorf("core: promote: read journal: %w", err)
		}
		// A compacted journal whose first surviving record is not the
		// immediate successor of the standby's state means the snapshot
		// covering the gap was never observed: replay would silently skip
		// operations, so refuse the takeover instead.
		if len(recs) > 0 && recs[0].Seq > ctl.JournalSeq()+1 {
			return nil, rep, fmt.Errorf("core: promote: journal compacted to seq %d but standby state covers only seq %d; snapshot required",
				recs[0].Seq, ctl.JournalSeq())
		}
		for _, rec := range recs {
			if rec.Epoch > maxEpoch {
				maxEpoch = rec.Epoch
			}
		}
		rep.Replayed, err = ctl.Replay(recs)
		if err != nil {
			return nil, rep, fmt.Errorf("core: promote: %w", err)
		}
	}

	// New incarnation: strictly after every epoch seen in snapshot+journal.
	rep.Epoch = maxEpoch + 1
	ctl.SetEpoch(rep.Epoch)
	if j, ok := s.src.(Journal); ok {
		ctl.journal = j // after replay: replayed ops cannot be re-appended
	}

	// Anti-entropy over the inherited switches: the restored installed map
	// says what the crashed controller believed; the resync pass reads the
	// switches' ground truth through the FlowReader and ships the diff.
	rep.Resync, err = ctl.ResyncAll()
	if err != nil {
		return nil, rep, fmt.Errorf("core: promote: resync: %w", err)
	}
	return ctl, rep, nil
}
