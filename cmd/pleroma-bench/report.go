package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
)

// document is what -out writes: the environment, the configuration and
// one set of workload results per -repeat round.
type document struct {
	Env     env      `json:"env"`
	Seconds float64  `json:"seconds"`
	Smoke   bool     `json:"smoke,omitempty"`
	Sets    []runSet `json:"sets"`
}

type runSet struct {
	Seed      int64    `json:"seed"`
	Workloads []result `json:"workloads"`
}

// env records where and how the numbers were taken.
type env struct {
	Commit     string `json:"commit"`
	GoVersion  string `json:"go_version"`
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	CPUModel   string `json:"cpu_model"`
	Load       string `json:"load"`
}

func environment() env {
	e := env{
		Commit:     "unknown",
		GoVersion:  runtime.Version(),
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		CPUModel:   "unknown",
		Load:       "loopback, closed loop",
	}
	if c := os.Getenv("PLEROMA_BENCH_COMMIT"); c != "" {
		e.Commit = c // run.sh builds unstamped and passes the commit along
	} else if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			switch {
			case s.Key == "vcs.revision":
				e.Commit = s.Value
			case s.Key == "vcs.modified" && s.Value == "true":
				e.Commit += "+dirty"
			}
		}
	}
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				e.CPUModel = strings.TrimSpace(v)
				break
			}
		}
	}
	return e
}

func printResult(w io.Writer, r result) {
	fmt.Fprintf(w, "== %s: attempted %d, failed %d\n", r.Workload, r.Attempted, r.Failed)
	for _, group := range []map[string]metric{r.EndToEnd, r.PerLayer} {
		names := make([]string, 0, len(group))
		for n := range group {
			names = append(names, n)
		}
		sort.Strings(names)
		for _, n := range names {
			m := group[n]
			fmt.Fprintf(w, "  %-44s %16.4f %-6s", n, m.Value, m.Unit)
			if m.Samples > 0 {
				fmt.Fprintf(w, " n=%d", m.Samples)
			}
			fmt.Fprintln(w)
		}
	}
}

// summary is one end-to-end metric of one workload over a document's
// sets: its median and quartiles, and the spread the acceptance check
// uses — the interquartile distance as a share of the median.
type summary struct {
	n              int
	q1, median, q3 float64
}

func (s summary) spread() float64 {
	if s.median == 0 {
		return 0
	}
	return (s.q3 - s.q1) / s.median
}

// quartiles follows Python's statistics.quantiles(values, n=4), which is
// what the acceptance check computes. One value is its own quartiles.
func quartiles(values []float64) summary {
	v := sortedCopy(values)
	if len(v) < 2 {
		s := summary{n: len(v)}
		if len(v) == 1 {
			s.q1, s.median, s.q3 = v[0], v[0], v[0]
		}
		return s
	}
	cut := func(i int) float64 {
		m := len(v) + 1
		j := i * m / 4
		if j < 1 {
			j = 1
		}
		if j > len(v)-1 {
			j = len(v) - 1
		}
		delta := float64(i*m - j*4)
		return (v[j-1]*(4-delta) + v[j]*delta) / 4
	}
	return summary{n: len(v), q1: cut(1), median: cut(2), q3: cut(3)}
}

// summarize reduces a document to workload → end-to-end metric → summary.
func summarize(doc document) map[string]map[string]summary {
	values := make(map[string]map[string][]float64)
	for _, set := range doc.Sets {
		for _, r := range set.Workloads {
			if values[r.Workload] == nil {
				values[r.Workload] = make(map[string][]float64)
			}
			for name, m := range r.EndToEnd {
				values[r.Workload][name] = append(values[r.Workload][name], m.Value)
			}
		}
	}
	out := make(map[string]map[string]summary)
	for wl, metrics := range values {
		out[wl] = make(map[string]summary)
		for name, v := range metrics {
			out[wl][name] = quartiles(v)
		}
	}
	return out
}

// printSpread prints, after -repeat, each end-to-end metric's median,
// quartiles and spread next to its bound.
func printSpread(w io.Writer, doc document) {
	sum := summarize(doc)
	fmt.Fprintf(w, "\n%-14s %-14s %3s %14s %14s %14s %8s %6s\n", "workload", "metric", "n", "q1", "median", "q3", "spread", "bound")
	for _, wl := range workloadNames {
		for _, d := range endToEnd {
			s, ok := sum[wl][d.Name]
			if !ok {
				continue
			}
			fmt.Fprintf(w, "%-14s %-14s %3d %14.4f %14.4f %14.4f %7.2f%% %5.0f%%\n",
				wl, d.Name, s.n, s.q1, s.median, s.q3, 100*s.spread(), 100*d.Bound)
		}
	}
}

func readDocument(path string) (document, error) {
	var doc document
	b, err := os.ReadFile(path)
	if err != nil {
		return doc, err
	}
	if err := json.Unmarshal(b, &doc); err != nil {
		return doc, fmt.Errorf("%s: %w", path, err)
	}
	return doc, nil
}

// compareFiles prints one row per workload and end-to-end metric: both
// medians, B relative to A, the metric's bound and a verdict — regressed
// when B is worse than A by more than the bound, unresolved when either
// side's own spread exceeds the bound, ok otherwise.
func compareFiles(w io.Writer, pathA, pathB string) error {
	docA, err := readDocument(pathA)
	if err != nil {
		return err
	}
	docB, err := readDocument(pathB)
	if err != nil {
		return err
	}
	a, b := summarize(docA), summarize(docB)
	fmt.Fprintf(w, "A = %s (%d sets), B = %s (%d sets)\n", pathA, len(docA.Sets), pathB, len(docB.Sets))
	fmt.Fprintf(w, "%-14s %-14s %14s %14s %9s %6s  %s\n", "workload", "metric", "A median", "B median", "B/A", "bound", "verdict")
	for _, wl := range workloadNames {
		for _, d := range endToEnd {
			sa, okA := a[wl][d.Name]
			sb, okB := b[wl][d.Name]
			if !okA || !okB || sa.median == 0 {
				continue
			}
			ratio := sb.median / sa.median
			worse := ratio - 1
			if d.Better == "higher" {
				worse = 1 - ratio
			}
			verdict := "ok"
			switch {
			case sa.spread() > d.Bound || sb.spread() > d.Bound:
				verdict = "unresolved"
			case worse > d.Bound:
				verdict = "regressed"
			}
			fmt.Fprintf(w, "%-14s %-14s %14.4f %14.4f %8.4fx %5.0f%%  %s\n", wl, d.Name, sa.median, sb.median, ratio, 100*d.Bound, verdict)
		}
	}
	return nil
}
