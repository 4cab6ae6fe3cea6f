package experiments

import (
	"fmt"
	"time"

	"pleroma/internal/core"
	"pleroma/internal/dz"
	"pleroma/internal/metrics"
	"pleroma/internal/netem"
	"pleroma/internal/obs"
	"pleroma/internal/sim"
	"pleroma/internal/space"
	"pleroma/internal/topo"
	"pleroma/internal/workload"
)

// RunExtFaultChurn sweeps the southbound fault rate under a churning
// workload and reports how the retry/quarantine/resync machinery absorbs
// it: how many faults were injected, how many retries and quarantines the
// controllers took, how many repair FlowMods the anti-entropy passes
// shipped, and whether the deployment converged back to a verified-clean
// flow state. The zero-rate row is the control: identical workload, no
// faults, zero repair work.
func RunExtFaultChurn(cfg Config) ([]*metrics.Table, error) {
	var rates []float64
	if cfg.Quick {
		rates = []float64{0, 0.02, 0.05}
	} else {
		rates = []float64{0, 0.01, 0.02, 0.05, 0.1}
	}
	mutations := pick(cfg, 60, 400)

	table := &metrics.Table{
		Title: "Extension: southbound fault tolerance under churn",
		Columns: []string{"fault-rate", "mutations", "injected", "retries",
			"quarantines", "resync-passes", "repaired", "converged"},
	}
	for _, rate := range rates {
		c, err := faultChurnRun(cfg.Seed, rate, mutations)
		if err != nil {
			return nil, fmt.Errorf("experiments: fault churn at rate %.2f: %w", rate, err)
		}
		table.AddRow(fmt.Sprintf("%.2f", rate), c.mutations, c.injected, c.retries,
			c.quarantines, c.resyncPasses, c.repaired, c.converged)
	}
	return []*metrics.Table{table}, nil
}

// faultChurnTally is one row of the fault-churn table.
type faultChurnTally struct {
	mutations, injected, retries, quarantines, resyncPasses, repaired uint64
	converged                                                         bool
}

// faultChurnRun drives one churn run against a single-partition controller
// behind a fault-injecting programmer and resyncs until the flow state
// verifies clean. The churn is one seeded stream and the fault stream is
// seeded too, so the seed fixes which operation a fault hits.
func faultChurnRun(seed int64, rate float64, mutations int) (*faultChurnTally, error) {
	g, err := topo.TestbedFatTree(topo.DefaultLinkParams)
	if err != nil {
		return nil, err
	}
	dp := netem.New(g, sim.NewEngine())
	faulty := netem.WithFaults(dp, netem.FaultConfig{Seed: seed, Rate: rate})
	// The run's tallies come off an obs registry instead of ad-hoc stats
	// reads, so the soak reports exactly what an operator would scrape.
	reg := obs.NewRegistry()
	faulty.Instrument(reg)
	ctl, err := core.NewController(g, faulty,
		core.WithHostAddr(netem.HostAddr),
		core.WithObservability(reg, nil),
		core.WithRetryPolicy(core.RetryPolicy{
			MaxAttempts: 3,
			BaseBackoff: time.Millisecond,
			MaxBackoff:  4 * time.Millisecond,
			Sleep:       func(time.Duration) {}, // simulated deployment: no wall-clock waits
		}))
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
	churn, err := workload.RunChurn(sch, workload.ChurnConfig{
		Ops:  mutations,
		Seed: seed,
	}, workload.ChurnOps{
		Advertise: func(id string, rect dz.Rect) error {
			set, err := sch.DecomposeRectLimited(rect, fig7bMaxDzLen, fig7bMaxSubspaces)
			if err != nil {
				return err
			}
			_, err = ctl.Advertise(id, hostFor(id), set)
			return err
		},
		Unadvertise: func(id string) error {
			_, err := ctl.Unadvertise(id)
			return err
		},
		Subscribe: func(id string, rect dz.Rect) error {
			set, err := sch.DecomposeRectLimited(rect, fig7bMaxDzLen, fig7bMaxSubspaces)
			if err != nil {
				return err
			}
			_, err = ctl.Subscribe(id, hostFor(id), set)
			return err
		},
		Unsubscribe: func(id string) error {
			_, err := ctl.Unsubscribe(id)
			return err
		},
	})
	if err != nil {
		return nil, err
	}

	// Anti-entropy until the deployment converges: with ongoing random
	// injection each pass can fail again, so the bound scales with rate.
	converged := false
	passes := 0
	for ; passes < 100; passes++ {
		if _, err := ctl.ResyncAll(); err != nil {
			return nil, err
		}
		if len(ctl.DegradedSet().Switches()) == 0 {
			converged = true
			break
		}
	}
	if converged {
		if err := ctl.VerifyTables(); err != nil {
			return nil, fmt.Errorf("converged but inconsistent: %w", err)
		}
	}

	snap := reg.Snapshot()
	return &faultChurnTally{
		mutations:    churn.Mutations(),
		injected:     uint64(snap.Total(obs.MInjectedFaults)),
		retries:      uint64(snap.Total(obs.MSouthboundRetries)),
		quarantines:  uint64(snap.Total(obs.MQuarantines)),
		resyncPasses: uint64(snap.Total(obs.MResyncs)),
		repaired:     uint64(snap.Total(obs.MResyncRepaired)),
		converged:    converged,
	}, nil
}
