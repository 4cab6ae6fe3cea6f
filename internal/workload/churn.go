package workload

import (
	"fmt"
	"math/rand"

	"pleroma/internal/dz"
	"pleroma/internal/space"
)

// ChurnOps binds the churn driver to a control plane. Subscribe and
// Unsubscribe are required; the advertisement callbacks are optional and
// are skipped when nil.
type ChurnOps struct {
	Subscribe   func(id string, rect dz.Rect) error
	Unsubscribe func(id string) error
	Advertise   func(id string, rect dz.Rect) error
	Unadvertise func(id string) error
}

// ChurnConfig shapes a churn run.
type ChurnConfig struct {
	// Ops is the number of mutating operations issued (default 50).
	Ops int
	// Seed derives the run's generator and its operation mix, so a run is
	// a pure function of the seed.
	Seed int64
	// Model selects the subscription distribution (default Uniform).
	Model Model
	// Options are forwarded to the Generator.
	Options []Option
}

// ChurnStats totals the operations a churn run completed successfully.
type ChurnStats struct {
	Subscribes   uint64
	Unsubscribes uint64
	Advertises   uint64
	Unadvertises uint64
}

// Mutations returns the total number of successful mutating operations.
func (s ChurnStats) Mutations() uint64 {
	return s.Subscribes + s.Unsubscribes + s.Advertises + s.Unadvertises
}

// RunChurn drives the callbacks with one seeded stream of operations, on
// the calling goroutine, under ids of the form "w0-s17" and "w0-a3".
// Roughly a third of the mutations retire a previously created
// subscription; when Advertise is provided, a small share of operations
// churn advertisements instead.
//
// The first callback error ends the run and is returned alongside the
// operations that completed.
func RunChurn(sch *space.Schema, cfg ChurnConfig, ops ChurnOps) (ChurnStats, error) {
	var stats ChurnStats
	if sch == nil {
		return stats, fmt.Errorf("workload: churn: nil schema")
	}
	if ops.Subscribe == nil || ops.Unsubscribe == nil {
		return stats, fmt.Errorf("workload: churn: Subscribe and Unsubscribe are required")
	}
	if cfg.Ops <= 0 {
		cfg.Ops = 50
	}
	if cfg.Model == 0 {
		cfg.Model = Uniform
	}
	gen, err := New(sch, cfg.Model, cfg.Seed, cfg.Options...)
	if err != nil {
		return stats, fmt.Errorf("workload: churn: %w", err)
	}
	// The seed mixing and the "w0-" ids are pinned: the ext-faults and
	// ext-ha tables were recorded with them.
	r := rand.New(rand.NewSource(cfg.Seed ^ 0x5851f42d4c957f2d))
	var liveSubs, liveAdvs []string
	nextSub, nextAdv := 0, 0
	for i := 0; i < cfg.Ops; i++ {
		roll := r.Intn(100)
		switch {
		case ops.Advertise != nil && roll < 10:
			id := fmt.Sprintf("w0-a%d", nextAdv)
			nextAdv++
			if err := ops.Advertise(id, gen.SubscriptionRect()); err != nil {
				return stats, fmt.Errorf("workload: churn: advertise %s: %w", id, err)
			}
			liveAdvs = append(liveAdvs, id)
			stats.Advertises++
		case ops.Unadvertise != nil && roll < 15 && len(liveAdvs) > 0:
			id := liveAdvs[r.Intn(len(liveAdvs))]
			liveAdvs = remove(liveAdvs, id)
			if err := ops.Unadvertise(id); err != nil {
				return stats, fmt.Errorf("workload: churn: unadvertise %s: %w", id, err)
			}
			stats.Unadvertises++
		case roll < 50 && len(liveSubs) > 0:
			id := liveSubs[r.Intn(len(liveSubs))]
			liveSubs = remove(liveSubs, id)
			if err := ops.Unsubscribe(id); err != nil {
				return stats, fmt.Errorf("workload: churn: unsubscribe %s: %w", id, err)
			}
			stats.Unsubscribes++
		default:
			id := fmt.Sprintf("w0-s%d", nextSub)
			nextSub++
			if err := ops.Subscribe(id, gen.SubscriptionRect()); err != nil {
				return stats, fmt.Errorf("workload: churn: subscribe %s: %w", id, err)
			}
			liveSubs = append(liveSubs, id)
			stats.Subscribes++
		}
	}
	return stats, nil
}

func remove(ids []string, id string) []string {
	out := ids[:0]
	for _, s := range ids {
		if s != id {
			out = append(out, s)
		}
	}
	return out
}
