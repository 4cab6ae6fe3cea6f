package experiments

import (
	"reflect"
	"slices"
	"strconv"
	"strings"
	"testing"
	"time"
)

func parseDuration(t *testing.T, s string) time.Duration {
	t.Helper()
	d, err := time.ParseDuration(s)
	if err != nil {
		t.Fatalf("parse duration %q: %v", s, err)
	}
	return d
}

func parseFloat(t *testing.T, s string) float64 {
	t.Helper()
	f, err := strconv.ParseFloat(s, 64)
	if err != nil {
		t.Fatalf("parse float %q: %v", s, err)
	}
	return f
}

func TestRegistry(t *testing.T) {
	ids := IDs()
	if len(ids) != 16 {
		t.Errorf("IDs=%v, want 16 experiments", ids)
	}
	for _, id := range ids {
		if desc, ok := Describe(id); !ok || desc == "" {
			t.Errorf("Describe(%s)=%q,%v", id, desc, ok)
		}
	}
	if _, ok := Describe("nope"); ok {
		t.Error("unknown experiment described")
	}
	if _, err := Run("nope", DefaultConfig); err == nil {
		t.Error("unknown experiment must fail")
	}
}

func TestRunAndPrint(t *testing.T) {
	var sb strings.Builder
	if err := RunAndPrint("fig7d", DefaultConfig, &sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	if !strings.Contains(out, "Figure 7(d)") || !strings.Contains(out, "dz-length") {
		t.Errorf("unexpected output:\n%s", out)
	}
}

func TestFig7aDelayIsFlat(t *testing.T) {
	tables, err := RunFig7aDelayVsFlows(DefaultConfig)
	if err != nil {
		t.Fatal(err)
	}
	tab := tables[0]
	if len(tab.Rows) < 2 {
		t.Fatalf("rows=%d", len(tab.Rows))
	}
	var min, max time.Duration
	for i, row := range tab.Rows {
		d := parseDuration(t, row[1]) // uniform-mean
		if i == 0 || d < min {
			min = d
		}
		if d > max {
			max = d
		}
	}
	// TCAM lookups are constant time: the delay curve must be flat.
	if float64(max) > 1.05*float64(min) {
		t.Errorf("fig7a delay not flat: min=%v max=%v", min, max)
	}
	// The software-switch contrast series must grow with the table size.
	softFirst := parseDuration(t, tab.Rows[0][5])
	softLast := parseDuration(t, tab.Rows[len(tab.Rows)-1][5])
	if softLast <= softFirst {
		t.Errorf("software switch must slow down with table size: %v -> %v", softFirst, softLast)
	}
}

func TestFig7bDelayNearlyConstant(t *testing.T) {
	tables, err := RunFig7bDelayVsSubscriptions(DefaultConfig)
	if err != nil {
		t.Fatal(err)
	}
	tab := tables[0]
	var min, max time.Duration
	for i, row := range tab.Rows {
		d := parseDuration(t, row[1])
		if i == 0 || d < min {
			min = d
		}
		if d > max {
			max = d
		}
		// Deliveries must actually happen.
		if n, err := strconv.Atoi(row[3]); err != nil || n == 0 {
			t.Errorf("row %v has no uniform deliveries", row)
		}
	}
	if float64(max) > 2.0*float64(min) {
		t.Errorf("fig7b delay varies too much: min=%v max=%v", min, max)
	}
}

func TestFig7cSaturation(t *testing.T) {
	tables, err := RunFig7cThroughput(DefaultConfig)
	if err != nil {
		t.Fatal(err)
	}
	tab := tables[0]
	// At the lowest rate everything is received; at the highest rate the
	// standard hosts saturate below the publish rate while the fabric
	// still forwards everything.
	first := tab.Rows[0]
	last := tab.Rows[len(tab.Rows)-1]

	lowSent := parseFloat(t, first[0])
	lowRecv := parseFloat(t, first[1])
	if lowRecv < 0.95*lowSent {
		t.Errorf("low rate: received %.0f of %.0f", lowRecv, lowSent)
	}
	hiSent := parseFloat(t, last[0])
	hiRecv := parseFloat(t, last[1])
	hiFast := parseFloat(t, last[2])
	hiFwd := parseFloat(t, last[3])
	if hiRecv >= 0.95*hiSent {
		t.Errorf("high rate must saturate: received %.0f of %.0f", hiRecv, hiSent)
	}
	if hiFast <= hiRecv {
		t.Errorf("fast hosts must ingest more: %.0f vs %.0f", hiFast, hiRecv)
	}
	if hiFwd < 0.95*hiSent {
		t.Errorf("fabric must forward everything: %.0f of %.0f", hiFwd, hiSent)
	}
	if drop := parseFloat(t, last[4]); drop <= 0 {
		t.Error("saturation must come from host drops")
	}
}

func TestFig7dFPRDecreasesWithLength(t *testing.T) {
	tables, err := RunFig7dFPRVsDzLength(DefaultConfig)
	if err != nil {
		t.Fatal(err)
	}
	tab := tables[0]
	if len(tab.Rows) < 2 {
		t.Fatal("too few rows")
	}
	for col := 1; col < len(tab.Columns); col++ {
		first := parseFloat(t, tab.Rows[0][col])
		last := parseFloat(t, tab.Rows[len(tab.Rows)-1][col])
		if last > first {
			t.Errorf("column %s: FPR rose from %.1f to %.1f with longer dz",
				tab.Columns[col], first, last)
		}
		if first <= 0 {
			t.Errorf("column %s: FPR at shortest dz must be positive", tab.Columns[col])
		}
	}
}

func TestFig7eDimensionSelectionHelps(t *testing.T) {
	tables, err := RunFig7eFPRDimSelection(DefaultConfig)
	if err != nil {
		t.Fatal(err)
	}
	tab := tables[0]
	if len(tab.Rows) != fig7eDims {
		t.Fatalf("rows=%d, want %d", len(tab.Rows), fig7eDims)
	}
	// For the restricted workloads, some k < 7 must beat (or match) using
	// all 7 dimensions: the budget concentrates on informative dimensions.
	for col := 2; col < len(tab.Columns); col++ { // restricted workloads
		all7 := parseFloat(t, tab.Rows[fig7eDims-1][col])
		best := all7
		for k := 0; k < fig7eDims-1; k++ {
			if v := parseFloat(t, tab.Rows[k][col]); v < best {
				best = v
			}
		}
		if best > all7 {
			t.Errorf("column %s: no k<7 beats all-dims FPR %.2f", tab.Columns[col], all7)
		}
	}
}

func TestFig7fReconfigThroughput(t *testing.T) {
	tables, err := RunFig7fReconfigDelay(DefaultConfig)
	if err != nil {
		t.Fatal(err)
	}
	tab := tables[0]
	for _, row := range tab.Rows {
		subsPerSec := parseFloat(t, row[5])
		if subsPerSec < 20 {
			t.Errorf("deployed=%s: %.1f subs/sec is below the paper's ballpark", row[0], subsPerSec)
		}
		if fm := parseFloat(t, row[4]); fm <= 0 {
			t.Errorf("deployed=%s: no flow mods measured", row[0])
		}
		if proc := parseDuration(t, row[1]); proc <= 0 {
			t.Errorf("deployed=%s: processing time not measured", row[0])
		}
	}
}

func TestFig7gOverheadDropsWithPartitioning(t *testing.T) {
	tables, err := RunFig7gControllerOverhead(DefaultConfig)
	if err != nil {
		t.Fatal(err)
	}
	tab := tables[0]
	first := tab.Rows[0]
	last := tab.Rows[len(tab.Rows)-1]
	for col := 1; col < len(tab.Columns); col++ {
		base := parseFloat(t, first[col])
		if base < 99 || base > 101 {
			t.Errorf("column %s: baseline not normalised to 100: %.1f", tab.Columns[col], base)
		}
		end := parseFloat(t, last[col])
		if end >= base {
			t.Errorf("column %s: overhead must drop with partitioning (%.1f -> %.1f)",
				tab.Columns[col], base, end)
		}
	}
}

func TestFig7hTrafficGrowsWithPartitioning(t *testing.T) {
	tables, err := RunFig7hControlTraffic(DefaultConfig)
	if err != nil {
		t.Fatal(err)
	}
	tab := tables[0]
	first := tab.Rows[0]
	last := tab.Rows[len(tab.Rows)-1]
	for _, col := range []int{1, 3, 5} { // totals per subscription count
		base := parseFloat(t, first[col])
		end := parseFloat(t, last[col])
		if end <= base {
			t.Errorf("column %s: traffic must grow with partitions (%.0f -> %.0f)",
				tab.Columns[col], base, end)
		}
	}
	// Relative growth must shrink as the workload grows (covering).
	growth := func(col int) float64 {
		return parseFloat(t, last[col]) / parseFloat(t, first[col])
	}
	if growth(5) > growth(1) {
		t.Errorf("relative traffic growth must shrink with more subscriptions: 100subs=%.2f 400subs=%.2f",
			growth(1), growth(5))
	}
}

func TestAblationBrokerSlower(t *testing.T) {
	tables, err := RunAblationBrokerVsSDN(DefaultConfig)
	if err != nil {
		t.Fatal(err)
	}
	tab := tables[0]
	if len(tab.Rows) != 2 {
		t.Fatalf("rows=%d", len(tab.Rows))
	}
	pleroma := parseDuration(t, tab.Rows[0][1])
	brokerD := parseDuration(t, tab.Rows[1][1])
	if brokerD <= pleroma {
		t.Errorf("broker overlay must be slower: pleroma=%v broker=%v", pleroma, brokerD)
	}
}

func TestAblationTreeStrategyBalancesLoad(t *testing.T) {
	tables, err := RunAblationTreeStrategy(DefaultConfig)
	if err != nil {
		t.Fatal(err)
	}
	tab := tables[0]
	if len(tab.Rows) != 2 {
		t.Fatalf("rows=%d", len(tab.Rows))
	}
	singleMax := parseFloat(t, tab.Rows[0][2])
	multiMax := parseFloat(t, tab.Rows[1][2])
	if multiMax > singleMax {
		t.Errorf("multi-tree must not concentrate more load: single=%v multi=%v", singleMax, multiMax)
	}
	singleTrees := parseFloat(t, tab.Rows[0][1])
	multiTrees := parseFloat(t, tab.Rows[1][1])
	if singleTrees != 1 || multiTrees <= 1 {
		t.Errorf("tree counts wrong: single=%v multi=%v", singleTrees, multiTrees)
	}
}

func TestAblationCoveringSavesMessages(t *testing.T) {
	tables, err := RunAblationCoveringForwarding(DefaultConfig)
	if err != nil {
		t.Fatal(err)
	}
	tab := tables[0]
	onMsgs := parseFloat(t, tab.Rows[0][1])
	offMsgs := parseFloat(t, tab.Rows[1][1])
	if onMsgs >= offMsgs {
		t.Errorf("covering must save messages: on=%v off=%v", onMsgs, offMsgs)
	}
	if suppressed := parseFloat(t, tab.Rows[0][2]); suppressed <= 0 {
		t.Error("covering run must suppress something")
	}
}

func TestAblationMergeThreshold(t *testing.T) {
	tables, err := RunAblationMergeThreshold(DefaultConfig)
	if err != nil {
		t.Fatal(err)
	}
	tab := tables[0]
	if len(tab.Rows) != 5 {
		t.Fatalf("rows=%d", len(tab.Rows))
	}
	// max-trees=1 collapses to a single tree; unlimited keeps more.
	single := parseFloat(t, tab.Rows[0][1])
	unlimited := parseFloat(t, tab.Rows[len(tab.Rows)-1][1])
	if single != 1 {
		t.Errorf("max-trees=1 yielded %v trees", single)
	}
	if unlimited <= single {
		t.Errorf("unlimited must keep more trees: %v vs %v", unlimited, single)
	}
	// Merging must actually have happened for the tight thresholds.
	if m := parseFloat(t, tab.Rows[0][2]); m == 0 {
		t.Error("max-trees=1 must merge")
	}
	if m := parseFloat(t, tab.Rows[len(tab.Rows)-1][2]); m != 0 {
		t.Error("unlimited must not merge")
	}
	// Deliveries must flow in every configuration.
	for _, row := range tab.Rows {
		if d := parseDuration(t, row[5]); d <= 0 {
			t.Errorf("max-trees=%s: no deliveries measured", row[0])
		}
	}
}

func TestAblationFlowBudget(t *testing.T) {
	tables, err := RunAblationFlowBudget(DefaultConfig)
	if err != nil {
		t.Fatal(err)
	}
	tab := tables[0]
	if len(tab.Rows) != 5 {
		t.Fatalf("rows=%d", len(tab.Rows))
	}
	// Flows grow and FPR shrinks as the budget loosens.
	firstFlows := parseFloat(t, tab.Rows[0][2])
	lastFlows := parseFloat(t, tab.Rows[len(tab.Rows)-1][2])
	if lastFlows <= firstFlows {
		t.Errorf("flows must grow with precision: %v -> %v", firstFlows, lastFlows)
	}
	firstFPR := parseFloat(t, tab.Rows[0][4])
	lastFPR := parseFloat(t, tab.Rows[len(tab.Rows)-1][4])
	if lastFPR >= firstFPR {
		t.Errorf("FPR must fall with precision: %v -> %v", firstFPR, lastFPR)
	}
	for _, row := range tab.Rows {
		if mps := parseFloat(t, row[3]); mps <= 0 {
			t.Errorf("L_dz=%s: max-flows/switch must be positive", row[0])
		}
	}
}

func TestExtFaultChurnConverges(t *testing.T) {
	tables, err := RunExtFaultChurn(DefaultConfig)
	if err != nil {
		t.Fatal(err)
	}
	tab := tables[0]
	if len(tab.Rows) == 0 {
		t.Fatal("fault churn produced no rows")
	}
	sawInjection := false
	for _, row := range tab.Rows {
		rate := parseFloat(t, row[0])
		injected := parseFloat(t, row[2])
		repaired := parseFloat(t, row[6])
		converged := row[7]
		if converged != "true" {
			t.Errorf("rate=%s: converged=%s, want true", row[0], converged)
		}
		if rate == 0 {
			if injected != 0 || repaired != 0 {
				t.Errorf("control row: injected=%v repaired=%v, want 0/0",
					injected, repaired)
			}
		}
		if injected > 0 {
			sawInjection = true
		}
	}
	if !sawInjection {
		t.Error("no row injected any faults; the sweep exercised nothing")
	}
}

func TestExtHAFailover(t *testing.T) {
	tables, err := RunExtHAFailover(DefaultConfig)
	if err != nil {
		t.Fatal(err)
	}
	tab := tables[0]
	if len(tab.Rows) != 3 {
		t.Fatalf("rows=%d, want 3 cadences", len(tab.Rows))
	}
	replayed := make(map[string]float64)
	for _, row := range tab.Rows {
		cadence := row[0]
		replayed[cadence] = parseFloat(t, row[5])
		// Replay reconstructs the crashed controller's exact canonical
		// state, so the takeover resync must find nothing to repair.
		if repairs := parseFloat(t, row[6]); repairs != 0 {
			t.Errorf("cadence=%s: takeover shipped %v repairs, want 0", cadence, repairs)
		}
		if row[7] != "true" {
			t.Errorf("cadence=%s: promoted controller failed verification", cadence)
		}
		fromSnap := row[4] == "true"
		if cadence == "never" && fromSnap {
			t.Error("cadence=never must promote from the journal alone")
		}
		if cadence != "never" && !fromSnap {
			t.Errorf("cadence=%s must promote from a snapshot", cadence)
		}
	}
	// Tighter checkpointing must shrink the replayed suffix.
	if !(replayed["fine"] < replayed["coarse"] && replayed["coarse"] < replayed["never"]) {
		t.Errorf("replay must shrink with cadence: never=%v coarse=%v fine=%v",
			replayed["never"], replayed["coarse"], replayed["fine"])
	}
	// Every cadence must converge on the same reconstructed state: the
	// split between snapshot and journal is an implementation detail.
	for _, row := range tab.Rows[1:] {
		if row[8] != tab.Rows[0][8] {
			t.Errorf("cadence=%s: state digest %s differs from %s", row[0], row[8], tab.Rows[0][8])
		}
	}
}

// TestExperimentSameSeedDeterministic pins the seeded-randomness audit:
// an experiment run is a pure function of its Config. ext-ha drives the
// full churn → journal → snapshot → failover pipeline single-threaded,
// so its tables must be bit-identical across runs.
func TestExperimentSameSeedDeterministic(t *testing.T) {
	a, err := RunExtHAFailover(DefaultConfig)
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunExtHAFailover(DefaultConfig)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Errorf("same seed produced different tables:\n%+v\nvs\n%+v", a, b)
	}
	c, err := RunExtHAFailover(Config{Seed: 43, Quick: true})
	if err != nil {
		t.Fatal(err)
	}
	if reflect.DeepEqual(a, c) {
		t.Error("different seeds produced identical tables")
	}
}

// wallClockColumns names the columns that measure real time rather than
// simulated outcomes (fig7f times the controller with time.Since), keyed by
// experiment id.
var wallClockColumns = map[string][]string{
	"fig7f": {"proc-mean", "total-mean", "subs/sec"},
}

// renderSimulated runs one experiment and renders its tables with the
// wall-clock columns blanked: what a seed must fix.
func renderSimulated(t *testing.T, id string, cfg Config) string {
	t.Helper()
	tables, err := Run(id, cfg)
	if err != nil {
		t.Fatalf("%s: %v", id, err)
	}
	var sb strings.Builder
	for _, tab := range tables {
		for c, name := range tab.Columns {
			if !slices.Contains(wallClockColumns[id], name) {
				continue
			}
			for _, row := range tab.Rows {
				if c < len(row) {
					row[c] = "-"
				}
			}
		}
		if err := tab.Fprint(&sb); err != nil {
			t.Fatal(err)
		}
	}
	return sb.String()
}

// TestExperimentsDeterministic extends the seeding contract to every
// registered experiment: two quick runs at one seed render byte-identical
// tables, wall-clock columns aside. It is what keeps EXPERIMENTS.md and
// benchmarks/full_results.txt reproducible from the seed alone.
func TestExperimentsDeterministic(t *testing.T) {
	for _, id := range IDs() {
		a := renderSimulated(t, id, DefaultConfig)
		b := renderSimulated(t, id, DefaultConfig)
		if a != b {
			t.Errorf("%s: two runs at seed %d differ:\n%s\nvs\n%s", id, DefaultConfig.Seed, a, b)
		}
	}
}

func TestExtActivationLatency(t *testing.T) {
	tables, err := RunExtActivationLatency(DefaultConfig)
	if err != nil {
		t.Fatal(err)
	}
	tab := tables[0]
	for _, row := range tab.Rows {
		mean := parseDuration(t, row[1])
		if mean < activationProcessingDelay {
			t.Errorf("deployed=%s: activation %v below the processing delay %v",
				row[0], mean, activationProcessingDelay)
		}
		if mean > 100*time.Millisecond {
			t.Errorf("deployed=%s: activation %v implausibly high", row[0], mean)
		}
	}
	// The distribution table buckets every trial of the largest deployment
	// exactly once, overflow row last.
	dist := tables[1]
	if n := len(dist.Rows); n != 6 || dist.Rows[0][0] != "<1ms" || dist.Rows[n-1][0] != "+inf" {
		t.Fatalf("distribution rows = %v", dist.Rows)
	}
	total := 0
	for _, row := range dist.Rows {
		n, err := strconv.Atoi(row[1])
		if err != nil {
			t.Fatal(err)
		}
		total += n
	}
	if total != 10 { // quick mode runs ten trials
		t.Errorf("distribution counts %d samples, want 10", total)
	}
}
