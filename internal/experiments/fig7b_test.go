package experiments

import (
	"testing"

	"pleroma/internal/dz"
	"pleroma/internal/space"
	"pleroma/internal/workload"
)

// TestFig7bCountsInterestedSubscriptions checks Figure 7(b)'s delivery
// count against brute force: the deliveries not flagged false positive are
// exactly the (event, subscription rectangle containing it) pairs. Fewer
// would be false negatives on the figure's path; a count per host packet
// instead of per interested subscription reads differently as well.
func TestFig7bCountsInterestedSubscriptions(t *testing.T) {
	const seed, nSubs, nEvents = 7, 80, 150
	for _, model := range []workload.Model{workload.Uniform, workload.Zipfian} {
		got, err := fig7bRun(seed, nSubs, nEvents, model)
		if err != nil {
			t.Fatal(err)
		}
		// fig7bRun draws the rectangles first, then the events, from one
		// generator of the seed.
		sch, err := space.UniformSchema(fig7bDims)
		if err != nil {
			t.Fatal(err)
		}
		gen, err := workload.New(sch, model, seed)
		if err != nil {
			t.Fatal(err)
		}
		rects := gen.SubscriptionRects(nSubs)
		var want uint64
		for _, ev := range gen.Events(nEvents) {
			for _, r := range rects {
				if dz.RectContainsPoint(r, ev.Values) {
					want++
				}
			}
		}
		if want == 0 {
			t.Fatalf("%v: no event lies in any subscription; the check is empty", model)
		}
		if got.interested != want {
			t.Errorf("%v: %d deliveries to interested subscriptions, brute force counts %d",
				model, got.interested, want)
		}
	}
}
