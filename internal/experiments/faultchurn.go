package experiments

import (
	"fmt"
	"time"

	"pleroma"
	"pleroma/internal/metrics"
	"pleroma/internal/space"
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
	ops := pick(cfg, 60, 400)

	table := &metrics.Table{
		Title: "Extension: southbound fault tolerance under churn",
		Columns: []string{"fault-rate", "mutations", "injected", "retries",
			"quarantines", "resync-passes", "repaired", "converged"},
	}
	for _, rate := range rates {
		mutations, rep, converged, err := faultChurnRun(cfg.Seed, rate, ops)
		if err != nil {
			return nil, fmt.Errorf("experiments: fault churn at rate %.2f: %w", rate, err)
		}
		table.AddRow(fmt.Sprintf("%.2f", rate), mutations, rep.InjectedFaults, rep.Retries,
			rep.Quarantines, rep.Resyncs, rep.RepairedFlows, converged)
	}
	return []*metrics.Table{table}, nil
}

// faultChurnRun drives one churn run against a single-partition deployment
// whose southbound injects faults at rate, and resyncs until the flow state
// verifies clean. The churn is one seeded stream and the fault stream is
// seeded too, so the seed fixes which operation a fault hits.
func faultChurnRun(seed int64, rate float64, ops int) (mutations uint64, rep pleroma.SouthboundReport, converged bool, err error) {
	sch, err := space.UniformSchema(fig7bDims)
	if err != nil {
		return 0, rep, false, err
	}
	sys, err := newSystem(sch,
		pleroma.WithSouthboundFaults(pleroma.FaultConfig{Seed: seed, Rate: rate}),
		pleroma.WithRetryPolicy(pleroma.RetryPolicy{
			MaxAttempts: 3,
			BaseBackoff: time.Millisecond,
			MaxBackoff:  4 * time.Millisecond,
			Sleep:       func(time.Duration) {}, // simulated deployment: no wall-clock waits
		}))
	if err != nil {
		return 0, rep, false, err
	}
	defer sys.Close()
	stats, err := churn(sys, seed, ops, nil)
	if err != nil {
		return 0, rep, false, err
	}

	// Anti-entropy until the deployment converges: with ongoing random
	// injection each pass can fail again, so the bound scales with rate.
	if _, converged = sys.ResyncUntilHealthy(100); converged {
		if err := sys.VerifyTables(); err != nil {
			return 0, rep, false, fmt.Errorf("converged but inconsistent: %w", err)
		}
	}
	return stats.Mutations(), sys.SouthboundReport(), converged, nil
}
