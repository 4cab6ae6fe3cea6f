package metrics

import (
	"strings"
	"testing"
	"time"
)

func TestLatencyEmpty(t *testing.T) {
	var l Latency
	if l.Count() != 0 || l.Mean() != 0 || l.Min() != 0 || l.Max() != 0 ||
		l.Percentile(0.5) != 0 {
		t.Error("empty collector must return zeros")
	}
}

func TestLatencyStats(t *testing.T) {
	var l Latency
	for _, d := range []time.Duration{30, 10, 20, 40, 50} {
		l.Add(d * time.Millisecond)
	}
	if l.Count() != 5 {
		t.Errorf("Count=%d", l.Count())
	}
	if l.Mean() != 30*time.Millisecond {
		t.Errorf("Mean=%v", l.Mean())
	}
	if l.Min() != 10*time.Millisecond || l.Max() != 50*time.Millisecond {
		t.Errorf("Min/Max=%v/%v", l.Min(), l.Max())
	}
	if got := l.Percentile(0.5); got != 30*time.Millisecond {
		t.Errorf("P50=%v", got)
	}
	if got := l.Percentile(1.0); got != 50*time.Millisecond {
		t.Errorf("P100=%v", got)
	}
	if got := l.Percentile(-1); got != 10*time.Millisecond {
		t.Errorf("P<0=%v", got)
	}
	if got := l.Percentile(2); got != 50*time.Millisecond {
		t.Errorf("P>1=%v", got)
	}
	// Adding after sorting keeps stats correct.
	l.Add(time.Millisecond)
	if l.Min() != time.Millisecond {
		t.Errorf("Min after re-add=%v", l.Min())
	}
}

func TestFalsePositives(t *testing.T) {
	var f FalsePositives
	if f.Rate() != 0 {
		t.Error("empty rate must be 0")
	}
	f.Record(true)
	f.Record(true)
	f.Record(true)
	f.Record(false)
	if f.truePos != 3 || f.falsePos != 1 || f.Total() != 4 {
		t.Errorf("counts wrong: %+v", f)
	}
	if got := f.Rate(); got != 25 {
		t.Errorf("Rate=%v, want 25", got)
	}
}

func TestTableRendering(t *testing.T) {
	tab := Table{
		Title:   "Fig X",
		Columns: []string{"n", "delay"},
	}
	tab.AddRow(10, 5*time.Millisecond)
	tab.AddRow("many", 1.5)
	out := tab.String()
	if !strings.Contains(out, "## Fig X") {
		t.Errorf("missing title:\n%s", out)
	}
	if !strings.Contains(out, "delay") || !strings.Contains(out, "5ms") {
		t.Errorf("missing cells:\n%s", out)
	}
	if !strings.Contains(out, "1.500") {
		t.Errorf("float formatting wrong:\n%s", out)
	}
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 5 { // title, header, separator, 2 rows
		t.Errorf("lines=%d:\n%s", len(lines), out)
	}
}

func TestPercentileEdges(t *testing.T) {
	var l Latency
	for _, d := range []time.Duration{30, 10, 20} {
		l.Add(d)
	}
	if got := l.Percentile(0); got != 10 {
		t.Errorf("p0 = %v, want 10 (smallest sample)", got)
	}
	if got := l.Percentile(1); got != 30 {
		t.Errorf("p1 = %v, want 30 (largest sample)", got)
	}
	if got := l.Percentile(-0.5); got != 10 {
		t.Errorf("p<0 clamps to p0: got %v", got)
	}
	if got := l.Percentile(2); got != 30 {
		t.Errorf("p>1 clamps to p1: got %v", got)
	}

	var one Latency
	one.Add(7)
	for _, p := range []float64{0, 0.5, 1} {
		if got := one.Percentile(p); got != 7 {
			t.Errorf("single-sample p%.1f = %v, want 7", p, got)
		}
	}
}

func TestTableFprintRaggedRows(t *testing.T) {
	tbl := &Table{Title: "ragged", Columns: []string{"a", "bb"}}
	tbl.AddRow("1")                  // short row
	tbl.AddRow("1", "2", "3", "444") // long row
	out := tbl.String()
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 5 { // title, header, separator, two rows
		t.Fatalf("line count = %d, want 5:\n%s", len(lines), out)
	}
	if !strings.Contains(lines[4], "444") {
		t.Errorf("extra cells dropped: %q", lines[4])
	}
	if strings.HasSuffix(lines[3], " ") {
		t.Errorf("trailing padding not trimmed: %q", lines[3])
	}
}
