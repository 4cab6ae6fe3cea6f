package experiments

import (
	"fmt"

	"pleroma/internal/core"
	"pleroma/internal/dz"
	"pleroma/internal/metrics"
	"pleroma/internal/netem"
	"pleroma/internal/sim"
	"pleroma/internal/space"
	"pleroma/internal/topo"
	"pleroma/internal/workload"
)

// RunExtHAFailover measures controller takeover along the Ravana-style
// snapshot/journal trade-off: the same seeded churn workload runs against
// a journaling controller under three checkpoint cadences (never, coarse,
// fine), the active controller then "crashes", and a warm standby
// promotes from the last snapshot plus the journal suffix. Tighter
// cadences shrink the replayed suffix at the cost of more snapshot work;
// in every configuration the promoted controller must verify clean
// against the inherited switches, and the takeover resync ships zero
// repairs because replay rebuilds exactly the crashed controller's
// canonical state.
func RunExtHAFailover(cfg Config) ([]*metrics.Table, error) {
	ops := pick(cfg, 60, 400)
	// The +1 offsets keep the cadence from dividing the op count exactly,
	// so the crash always strands a non-empty journal suffix to replay.
	cadences := []struct {
		label string
		every int // snapshot every n mutations; 0 = never
	}{
		{"never", 0},
		{"coarse", ops/2 + 1},
		{"fine", ops/8 + 1},
	}

	table := &metrics.Table{
		Title: "Extension: controller failover — snapshot cadence vs. takeover replay",
		Columns: []string{"snapshot-cadence", "mutations", "snapshots",
			"journal-at-crash", "from-snapshot", "replayed", "takeover-repairs",
			"verified", "state-digest"},
	}
	for _, c := range cadences {
		row, err := haFailoverRun(cfg.Seed, ops, c.every)
		if err != nil {
			return nil, fmt.Errorf("experiments: ha failover cadence %s: %w", c.label, err)
		}
		table.AddRow(c.label, row.mutations, row.snapshots, row.journalAtCrash,
			row.fromSnapshot, row.replayed, row.takeoverRepairs, row.verified, row.digest)
	}
	return []*metrics.Table{table}, nil
}

// haFailoverTally is one row of the failover table.
type haFailoverTally struct {
	mutations                 uint64
	snapshots, journalAtCrash int
	fromSnapshot              bool
	replayed, takeoverRepairs int
	verified                  bool
	digest                    string
}

// haFailoverRun churns one journaling controller (one seeded stream, so
// the operation sequence is a pure function of the seed), checkpoints every
// `every` mutations, crashes it, and promotes a warm standby. The
// returned digest fingerprints the promoted controller's reconstructed
// state: identical across cadences (replay converges on the same state
// no matter how it is split between snapshot and journal) and across
// runs of the same seed.
func haFailoverRun(seed int64, ops, every int) (*haFailoverTally, error) {
	g, err := topo.TestbedFatTree(topo.DefaultLinkParams)
	if err != nil {
		return nil, err
	}
	dp := netem.New(g, sim.NewEngine())
	journal := core.NewMemJournal()
	ctl, err := core.NewController(g, dp,
		core.WithHostAddr(netem.HostAddr),
		core.WithJournal(journal))
	if err != nil {
		return nil, err
	}
	sch, err := space.UniformSchema(fig7bDims)
	if err != nil {
		return nil, err
	}
	hosts := g.Hosts()
	hostFor := func(id string) topo.NodeID {
		h := 0
		for _, ch := range id {
			h = h*31 + int(ch)
		}
		if h < 0 {
			h = -h
		}
		return hosts[h%len(hosts)]
	}

	// The standby's view of the checkpoint stream: the latest snapshot it
	// observed, refreshed every `every` mutations. Snapshotting also
	// compacts the journal, so the replayed suffix shrinks with cadence.
	var (
		lastSnap  []byte
		snapshots int
		mutations int
	)
	checkpoint := func() error {
		mutations++
		if every <= 0 || mutations%every != 0 {
			return nil
		}
		snap, err := ctl.EncodeSnapshot()
		if err != nil {
			return err
		}
		lastSnap = snap
		snapshots++
		journal.Truncate(ctl.JournalSeq())
		return nil
	}
	churn, err := workload.RunChurn(sch, workload.ChurnConfig{
		Ops:  ops,
		Seed: seed,
	}, workload.ChurnOps{
		Advertise: func(id string, rect dz.Rect) error {
			set, err := sch.DecomposeRectLimited(rect, fig7bMaxDzLen, fig7bMaxSubspaces)
			if err != nil {
				return err
			}
			if _, err := ctl.Advertise(id, hostFor(id), set); err != nil {
				return err
			}
			return checkpoint()
		},
		Unadvertise: func(id string) error {
			if _, err := ctl.Unadvertise(id); err != nil {
				return err
			}
			return checkpoint()
		},
		Subscribe: func(id string, rect dz.Rect) error {
			set, err := sch.DecomposeRectLimited(rect, fig7bMaxDzLen, fig7bMaxSubspaces)
			if err != nil {
				return err
			}
			if _, err := ctl.Subscribe(id, hostFor(id), set); err != nil {
				return err
			}
			return checkpoint()
		},
		Unsubscribe: func(id string) error {
			if _, err := ctl.Unsubscribe(id); err != nil {
				return err
			}
			return checkpoint()
		},
	})
	if err != nil {
		return nil, err
	}
	journalAtCrash := journal.Len()

	// Crash and take over: the live instance is discarded unread.
	standby := core.NewStandby(g, dp, journal, core.WithHostAddr(netem.HostAddr))
	if lastSnap != nil {
		if err := standby.ObserveSnapshot(lastSnap); err != nil {
			return nil, err
		}
	}
	promoted, rep, err := standby.Promote()
	if err != nil {
		return nil, err
	}

	finalSnap, err := promoted.EncodeSnapshot()
	if err != nil {
		return nil, err
	}
	d, err := core.SnapshotDigest(finalSnap)
	if err != nil {
		return nil, err
	}
	return &haFailoverTally{
		mutations:       churn.Mutations(),
		snapshots:       snapshots,
		journalAtCrash:  journalAtCrash,
		fromSnapshot:    rep.FromSnapshot,
		replayed:        rep.Replayed,
		takeoverRepairs: rep.Resync.Repaired(),
		verified:        promoted.VerifyTables() == nil,
		digest:          fmt.Sprintf("%x", d[:8]),
	}, nil
}
