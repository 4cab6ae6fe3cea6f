package pleroma

import (
	"cmp"
	"fmt"
	"slices"
	"time"

	"pleroma/internal/dz"
	"pleroma/internal/sim"
	"pleroma/internal/space"
)

// projection is the active dimension selection Ω_D: spatial indexing runs
// over the projected schema while ground-truth matching keeps using the
// full event space.
type projection struct {
	dims []int
	sch  *space.Schema
}

// project maps a full-space rectangle into the selected dimensions.
func (p *projection) rect(r dz.Rect) dz.Rect {
	out := make(dz.Rect, len(p.dims))
	for i, d := range p.dims {
		out[i] = r[d]
	}
	return out
}

// indexSchema returns the schema spatial indexing currently runs on.
func (s *System) indexSchema() *Schema {
	if s.proj != nil {
		return s.proj.sch
	}
	return s.sch
}

// indexRect maps a rectangle into the active index space.
func (s *System) indexRect(r dz.Rect) dz.Rect {
	if s.proj != nil {
		return s.proj.rect(r)
	}
	return r
}

// indexEvent maps an event into the active index space.
func (s *System) indexEvent(ev Event) Event {
	if s.proj != nil {
		return ev.Project(s.proj.dims)
	}
	return ev
}

// ReindexDimensions runs the Section 5 pipeline end to end: it selects the
// most informative dimensions from the current subscriptions and the
// recent event window, then re-indexes the whole deployment over Ω_D —
// regenerating the DZ sets of every advertisement and subscription,
// reinstalling the flows, and switching future publications to the
// projected encoding (the controller's "notify publishers" step).
//
// Re-indexing concentrates the L_dz address budget on the dimensions that
// actually discriminate events, cutting false positives and flow-table
// pressure (Figures 7d/7e).
func (s *System) ReindexDimensions(threshold float64) (DimensionSelection, error) {
	sel, err := s.SelectDimensions(threshold)
	if err != nil {
		return DimensionSelection{}, err
	}
	if err := s.applyProjection(sel.Selected); err != nil {
		return DimensionSelection{}, err
	}
	return sel, nil
}

// ResetDimensions restores indexing over the full attribute set.
func (s *System) ResetDimensions() error {
	return s.applyProjection(nil)
}

// applyProjection swaps the active index space and re-registers every
// client with freshly decomposed DZ sets.
func (s *System) applyProjection(dims []int) error {
	if len(dims) == 0 {
		s.proj = nil
	} else {
		proj, err := s.sch.Project(dims)
		if err != nil {
			return err
		}
		s.proj = &projection{dims: append([]int(nil), dims...), sch: proj}
	}

	// Re-register advertisements in their original order.
	pubs := make([]*Publisher, 0, len(s.pubs))
	for _, pub := range s.pubs {
		if pub.advertised {
			pubs = append(pubs, pub)
		}
	}
	slices.SortFunc(pubs, func(a, b *Publisher) int { return cmp.Compare(a.seq, b.seq) })
	for _, pub := range pubs {
		id := pub.id
		if err := s.fab.Unadvertise(id); err != nil {
			return fmt.Errorf("pleroma: reindex advertisement %q: %w", id, err)
		}
		set, err := s.decomposeRect(pub.advRect)
		if err != nil {
			return err
		}
		if err := s.fab.Advertise(id, pub.host, set); err != nil {
			return fmt.Errorf("pleroma: reindex advertisement %q: %w", id, err)
		}
	}
	// Re-register subscriptions, likewise.
	subs := make([]*subState, 0, len(s.subs))
	for _, st := range s.subs {
		subs = append(subs, st)
	}
	slices.SortFunc(subs, func(a, b *subState) int { return cmp.Compare(a.seq, b.seq) })
	for _, st := range subs {
		id := st.id
		if err := s.fab.Unsubscribe(id); err != nil {
			return fmt.Errorf("pleroma: reindex subscription %q: %w", id, err)
		}
		set, err := s.decomposeRect(s.rectOf(st))
		if err != nil {
			return err
		}
		if err := s.fab.Subscribe(id, st.host, set); err != nil {
			return fmt.Errorf("pleroma: reindex subscription %q: %w", id, err)
		}
		s.setSubSet(st, set)
	}
	return nil
}

// decomposeRect converts a full-space rectangle into the capped DZ set of
// the active index space.
func (s *System) decomposeRect(r dz.Rect) (dz.Set, error) {
	sch := s.indexSchema()
	maxLen := s.cfg.maxDzLen
	if m := sch.Geometry().MaxLen(); maxLen > m {
		maxLen = m
	}
	return sch.DecomposeRectLimited(s.indexRect(r), maxLen, s.cfg.maxSubs)
}

// WithAutoReindex makes the System repeat the Section 5 dimension
// selection periodically in simulated time: whenever events have been
// published, a timer fires after the interval and — if the window grew —
// re-runs SelectDimensions and re-indexes the deployment. This is the
// paper's "controller periodically collects information about the events
// disseminated in the recent time window and repeats the dimension
// selection process". Under WithShards the timer is a control event: the
// re-index runs with every shard idle, after every event before its
// instant and before every event at or after it.
func WithAutoReindex(interval time.Duration, threshold float64) Option {
	return func(c *config) {
		c.reindexEvery = interval
		c.reindexThresh = threshold
	}
}

// maybeArmReindex schedules the next periodic re-selection on the control
// engine; it is called on every publish so the timer only exists while
// traffic flows (keeping System.Run terminating).
func (s *System) maybeArmReindex() {
	if s.cfg.reindexEvery <= 0 || s.reindexArmed {
		return
	}
	s.reindexArmed = true
	s.dp.ControlEngine().ScheduleEvent(s.cfg.reindexEvery, (*reindexTimer)(s), sim.Event{})
}

// reindexTimer is the System as the handler of its re-selection timer.
type reindexTimer System

func (r *reindexTimer) HandleEvent(sim.Event) {
	s := (*System)(r)
	s.reindexArmed = false
	if s.winTotal == s.reindexSeen {
		return // no new traffic since the last round
	}
	s.reindexSeen = s.winTotal
	if _, err := s.ReindexDimensions(s.cfg.reindexThresh); err == nil {
		s.reindexRounds++
	}
}

// ReindexRounds reports how many automatic re-selections have run.
func (s *System) ReindexRounds() int { return s.reindexRounds }
