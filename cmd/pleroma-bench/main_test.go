package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"reflect"
	"regexp"
	"sort"
	"testing"
	"time"
)

// benchmarkJSON mirrors the root BENCHMARK.json.
type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []decl `json:"end_to_end"`
	PerLayer []decl `json:"per_layer"`
}

func readBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	b, err := os.ReadFile("../../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bj benchmarkJSON
	if err := json.Unmarshal(b, &bj); err != nil {
		t.Fatal(err)
	}
	return bj
}

// TestDeclaration: BENCHMARK.json declares exactly the workloads and
// metrics of the in-code tables, within the contract's limits.
func TestDeclaration(t *testing.T) {
	bj := readBenchmarkJSON(t)
	var names []string
	for _, w := range bj.Workloads {
		names = append(names, w.Name)
	}
	if !reflect.DeepEqual(names, workloadNames) {
		t.Errorf("workloads: BENCHMARK.json has %v, the code %v", names, workloadNames)
	}
	if !reflect.DeepEqual(bj.EndToEnd, endToEnd) {
		t.Errorf("end_to_end: BENCHMARK.json has %v, the code %v", bj.EndToEnd, endToEnd)
	}
	if !reflect.DeepEqual(bj.PerLayer, perLayer) {
		t.Errorf("per_layer differs between BENCHMARK.json and the code")
	}
	if len(names) > 8 || len(endToEnd) > 16 || len(perLayer) > 128 {
		t.Errorf("too many: %d workloads, %d end-to-end, %d per-layer", len(names), len(endToEnd), len(perLayer))
	}
	valid := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	seen := make(map[string]bool)
	hasSetup := false
	for _, d := range append(append([]decl{}, endToEnd...), perLayer...) {
		if !valid.MatchString(d.Name) || seen[d.Name] {
			t.Errorf("metric name %q is invalid or repeated", d.Name)
		}
		seen[d.Name] = true
		if d.Better != "lower" && d.Better != "higher" {
			t.Errorf("%s: better = %q", d.Name, d.Better)
		}
		hasSetup = hasSetup || d == decl{"setup_s", "s", "lower", d.Bound}
	}
	for _, d := range endToEnd {
		if d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", d.Name, d.Bound)
		}
	}
	if !hasSetup {
		t.Error("no setup_s metric in seconds, lower is better")
	}
}

// TestSmoke runs every workload in the -smoke configuration, end-to-end
// and traced, and checks that the outputs verify and that the emitted
// metric names and units are exactly the declared ones.
func TestSmoke(t *testing.T) {
	o := options{
		seed: defaultSeed, window: 200 * time.Millisecond, sz: smokeSizes,
		e2e: true, traced: true, tmpDir: t.TempDir(), reps: 1,
	}
	for _, name := range workloadNames {
		res, err := runWorkload(name, o)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
			t.Errorf("%s: correct=%v attempted=%d failed=%d", name, res.Correct, res.Attempted, res.Failed)
		}
		checkEmitted(t, name, "end-to-end", res.EndToEnd, endToEnd)
		checkEmitted(t, name, "per-layer", res.PerLayer, perLayer)
		for _, d := range endToEnd {
			if v := res.EndToEnd[d.Name].Value; !(v > 0) {
				t.Errorf("%s: end-to-end %s = %v, must never be 0", name, d.Name, v)
			}
		}
		if len(res.spans) == 0 {
			t.Errorf("%s: the traced run recorded no spans", name)
		}
	}
}

func checkEmitted(t *testing.T, workload, kind string, got map[string]metric, want []decl) {
	t.Helper()
	var gotNames, wantNames []string
	for n := range got {
		gotNames = append(gotNames, n)
	}
	for _, d := range want {
		wantNames = append(wantNames, d.Name)
		if m, ok := got[d.Name]; ok {
			if m.Unit != d.Unit {
				t.Errorf("%s: %s emitted in %q, declared in %q", workload, d.Name, m.Unit, d.Unit)
			}
			if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
				t.Errorf("%s: %s = %v", workload, d.Name, m.Value)
			}
		}
	}
	sort.Strings(gotNames)
	sort.Strings(wantNames)
	if !reflect.DeepEqual(gotNames, wantNames) {
		t.Errorf("%s: %s metrics emitted %v, declared %v", workload, kind, gotNames, wantNames)
	}
}

// TestQuartiles pins the spread computation to Python's
// statistics.quantiles(values, n=4).
func TestQuartiles(t *testing.T) {
	s := quartiles([]float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5})
	if s.q1 != 2.75 || s.median != 5.5 || s.q3 != 8.25 {
		t.Errorf("quartiles of 1..10 = %v %v %v, want 2.75 5.5 8.25", s.q1, s.median, s.q3)
	}
	if got := s.spread(); math.Abs(got-1) > 1e-12 {
		t.Errorf("spread = %v, want 1", got)
	}
}

// TestSelfTimes: a span's self time excludes its children.
func TestSelfTimes(t *testing.T) {
	self := selfTimes([]span{
		{Name: "step", Parent: -1, Start: 0, End: 100},
		{Name: "run", Parent: 0, Start: 10, End: 70},
		{Name: "handler", Parent: 1, Start: 20, End: 50},
	})
	want := map[string]int64{"step": 40, "run": 30, "handler": 30}
	if !reflect.DeepEqual(self, want) {
		t.Errorf("self times %v, want %v", self, want)
	}
}

// TestCompare: a metric worse by more than its bound is "regressed", a
// spread wider than the bound makes the row "unresolved".
func TestCompare(t *testing.T) {
	doc := func(values ...float64) string {
		var d document
		for _, v := range values {
			d.Sets = append(d.Sets, runSet{Workloads: []result{{
				Workload: "tcp-pipe",
				EndToEnd: map[string]metric{"ops_per_s": {Value: v, Unit: "1/s"}},
			}}})
		}
		path := t.TempDir() + "/doc.json"
		if err := writeJSON(path, d, true); err != nil {
			t.Fatal(err)
		}
		return path
	}
	base := doc(100, 101, 99)
	for want, other := range map[string]string{
		"ok":         doc(90, 91, 89),
		"regressed":  doc(70, 71, 69),
		"unresolved": doc(40, 100, 160),
	} {
		var out bytes.Buffer
		if err := compareFiles(&out, base, other); err != nil {
			t.Fatal(err)
		}
		if !regexp.MustCompile(`ops_per_s.*\s` + want + `\n`).Match(out.Bytes()) {
			t.Errorf("want verdict %q, got:\n%s", want, out.String())
		}
	}
}
