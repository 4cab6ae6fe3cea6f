// Package metrics provides the measurement primitives shared by the
// experiment harness: latency sample collectors with summary statistics,
// false-positive accounting, and a small table abstraction that renders
// experiment results as the rows/series of the paper's figures.
package metrics

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strings"
	"time"
)

// Latency collects duration samples.
type Latency struct {
	samples []time.Duration
	sorted  bool
}

// Add records one sample.
func (l *Latency) Add(d time.Duration) {
	l.samples = append(l.samples, d)
	l.sorted = false
}

// Count returns the number of samples.
func (l *Latency) Count() int { return len(l.samples) }

// Mean returns the arithmetic mean (0 with no samples).
func (l *Latency) Mean() time.Duration {
	if len(l.samples) == 0 {
		return 0
	}
	var sum time.Duration
	for _, s := range l.samples {
		sum += s
	}
	return sum / time.Duration(len(l.samples))
}

// Min returns the smallest sample (0 with no samples).
func (l *Latency) Min() time.Duration {
	if len(l.samples) == 0 {
		return 0
	}
	l.ensureSorted()
	return l.samples[0]
}

// Max returns the largest sample (0 with no samples).
func (l *Latency) Max() time.Duration {
	if len(l.samples) == 0 {
		return 0
	}
	l.ensureSorted()
	return l.samples[len(l.samples)-1]
}

// Percentile returns the p-quantile (p in [0,1]) using nearest-rank.
func (l *Latency) Percentile(p float64) time.Duration {
	if len(l.samples) == 0 {
		return 0
	}
	if p < 0 {
		p = 0
	}
	if p > 1 {
		p = 1
	}
	l.ensureSorted()
	idx := int(math.Ceil(p*float64(len(l.samples)))) - 1
	if idx < 0 {
		idx = 0
	}
	return l.samples[idx]
}

func (l *Latency) ensureSorted() {
	if !l.sorted {
		sort.Slice(l.samples, func(i, j int) bool { return l.samples[i] < l.samples[j] })
		l.sorted = true
	}
}

// FalsePositives accounts deliveries against ground truth: a delivery is a
// true positive when the receiving subscriber's filter matches the event,
// a false positive otherwise (Section 6.4's FPR definition).
type FalsePositives struct {
	truePos  uint64
	falsePos uint64
}

// Record adds one delivery outcome.
func (f *FalsePositives) Record(matched bool) {
	if matched {
		f.truePos++
	} else {
		f.falsePos++
	}
}

// Total returns all recorded deliveries.
func (f *FalsePositives) Total() uint64 { return f.truePos + f.falsePos }

// Rate returns the false positive rate as a percentage of all received
// events (the paper's FPR metric).
func (f *FalsePositives) Rate() float64 {
	total := f.Total()
	if total == 0 {
		return 0
	}
	return 100 * float64(f.falsePos) / float64(total)
}

// Table is a printable experiment result: one column header set and a list
// of rows, mirroring the series of one paper figure.
type Table struct {
	Title   string     `json:"title"`
	Columns []string   `json:"columns"`
	Rows    [][]string `json:"rows"`
}

// AddRow appends a formatted row.
func (t *Table) AddRow(cells ...any) {
	row := make([]string, len(cells))
	for i, c := range cells {
		switch v := c.(type) {
		case string:
			row[i] = v
		case float64:
			row[i] = fmt.Sprintf("%.3f", v)
		case time.Duration:
			row[i] = v.String()
		default:
			row[i] = fmt.Sprint(v)
		}
	}
	t.Rows = append(t.Rows, row)
}

// Fprint renders the table with aligned columns.
func (t *Table) Fprint(w io.Writer) error {
	widths := make([]int, len(t.Columns))
	for i, c := range t.Columns {
		widths[i] = len(c)
	}
	for _, row := range t.Rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	if t.Title != "" {
		if _, err := fmt.Fprintf(w, "## %s\n", t.Title); err != nil {
			return err
		}
	}
	line := func(cells []string) error {
		parts := make([]string, len(cells))
		for i, cell := range cells {
			if i < len(widths) {
				parts[i] = pad(cell, widths[i])
			} else {
				parts[i] = cell
			}
		}
		_, err := fmt.Fprintln(w, strings.TrimRight(strings.Join(parts, "  "), " "))
		return err
	}
	if err := line(t.Columns); err != nil {
		return err
	}
	seps := make([]string, len(t.Columns))
	for i := range seps {
		seps[i] = strings.Repeat("-", widths[i])
	}
	if err := line(seps); err != nil {
		return err
	}
	for _, row := range t.Rows {
		if err := line(row); err != nil {
			return err
		}
	}
	return nil
}

// String renders the table to a string.
func (t *Table) String() string {
	var b strings.Builder
	_ = t.Fprint(&b)
	return b.String()
}

func pad(s string, w int) string {
	if len(s) >= w {
		return s
	}
	return s + strings.Repeat(" ", w-len(s))
}
