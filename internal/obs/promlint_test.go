package obs

import (
	"bufio"
	"regexp"
	"strconv"
	"strings"
	"testing"
	"time"
)

// lintExposition is a promlint-style validator for the text exposition
// format (version 0.0.4): every series must be announced by a # HELP and
// # TYPE pair in that order, metric and label names must be legal,
// counters must end in _total, histograms must emit monotonically
// non-decreasing cumulative _bucket series ending in le="+Inf" whose count
// equals _count, plus a _sum — and label values must be properly escaped
// (an unescaped quote or newline corrupts the line structure this parser
// enforces).
func lintExposition(t *testing.T, text string) {
	t.Helper()
	var (
		metricName = regexp.MustCompile(`^[a-zA-Z_:][a-zA-Z0-9_:]*$`)
		sampleRe   = regexp.MustCompile(`^([a-zA-Z_:][a-zA-Z0-9_:]*)(?:\{([^}]*)\})? (\S+)$`)
		labelRe    = regexp.MustCompile(`^([a-zA-Z_][a-zA-Z0-9_]*)="((?:[^"\\]|\\["\\n])*)"$`)
	)
	type fam struct {
		help, typ string
		samples   int
		// histogram accounting keyed by the non-le label signature
		buckets map[string][]float64 // le values in order of appearance
		cum     map[string][]uint64
		inf     map[string]uint64
		sum     map[string]bool
		count   map[string]uint64
	}
	fams := map[string]*fam{}
	order := []string{}
	get := func(name string) *fam {
		f := fams[name]
		if f == nil {
			f = &fam{buckets: map[string][]float64{}, cum: map[string][]uint64{},
				inf: map[string]uint64{}, sum: map[string]bool{}, count: map[string]uint64{}}
			fams[name] = f
			order = append(order, name)
		}
		return f
	}
	base := func(name string) (string, string) {
		for _, suf := range []string{"_bucket", "_sum", "_count"} {
			if b, ok := strings.CutSuffix(name, suf); ok && fams[b] != nil && fams[b].typ == "histogram" {
				return b, suf
			}
		}
		return name, ""
	}

	var current string // family the last HELP/TYPE announced
	sc := bufio.NewScanner(strings.NewReader(text))
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	line := 0
	for sc.Scan() {
		line++
		l := sc.Text()
		fail := func(format string, args ...any) {
			t.Helper()
			t.Fatalf("line %d: "+format+"\n%s", append([]any{line}, append(args, l)...)...)
		}
		switch {
		case strings.HasPrefix(l, "# HELP "):
			parts := strings.SplitN(l[len("# HELP "):], " ", 2)
			if len(parts) != 2 || !metricName.MatchString(parts[0]) || parts[1] == "" {
				fail("malformed HELP")
			}
			f := get(parts[0])
			if f.help != "" {
				fail("duplicate HELP for %s", parts[0])
			}
			f.help = parts[1]
			current = parts[0]
		case strings.HasPrefix(l, "# TYPE "):
			parts := strings.Fields(l[len("# TYPE "):])
			if len(parts) != 2 {
				fail("malformed TYPE")
			}
			name, typ := parts[0], parts[1]
			if typ != "counter" && typ != "gauge" && typ != "histogram" {
				fail("unknown type %q", typ)
			}
			f := get(name)
			if f.help == "" {
				fail("TYPE before HELP for %s", name)
			}
			if f.typ != "" {
				fail("duplicate TYPE for %s", name)
			}
			if name != current {
				fail("TYPE %s does not follow its HELP (current family %s)", name, current)
			}
			f.typ = typ
			if typ == "counter" && !strings.HasSuffix(name, "_total") {
				fail("counter %s does not end in _total", name)
			}
		case strings.HasPrefix(l, "#"):
			fail("unknown comment")
		case strings.TrimSpace(l) == "":
			fail("blank line")
		default:
			m := sampleRe.FindStringSubmatch(l)
			if m == nil {
				fail("malformed sample")
			}
			name, labels, valStr := m[1], m[2], m[3]
			famName, suffix := base(name)
			f := fams[famName]
			if f == nil || f.typ == "" {
				fail("sample for unannounced family %s", famName)
			}
			if famName != current {
				fail("sample for %s interleaved into family %s", famName, current)
			}
			if f.typ == "histogram" && suffix == "" {
				fail("bare sample %s under histogram family", name)
			}
			if f.typ != "histogram" && suffix != "" {
				fail("histogram suffix on %s family", f.typ)
			}
			val, err := strconv.ParseFloat(valStr, 64)
			if err != nil {
				fail("bad value %q", valStr)
			}
			var le string
			var rest []string
			if labels != "" {
				for _, lp := range splitLabels(labels) {
					lm := labelRe.FindStringSubmatch(lp)
					if lm == nil {
						fail("malformed or unescaped label %q", lp)
					}
					if lm[1] == "le" {
						le = lm[2]
					} else {
						rest = append(rest, lp)
					}
				}
			}
			sig := strings.Join(rest, ",")
			switch suffix {
			case "_bucket":
				if le == "" {
					fail("bucket without le")
				}
				leV := float64(0)
				if le == "+Inf" {
					f.inf[sig] = uint64(val)
					leV = 1e308
				} else if leV, err = strconv.ParseFloat(le, 64); err != nil {
					fail("bad le %q", le)
				}
				bs := f.buckets[sig]
				if len(bs) > 0 && leV <= bs[len(bs)-1] {
					fail("le %q not increasing", le)
				}
				cs := f.cum[sig]
				if len(cs) > 0 && uint64(val) < cs[len(cs)-1] {
					fail("bucket counts not cumulative")
				}
				f.buckets[sig] = append(bs, leV)
				f.cum[sig] = append(cs, uint64(val))
			case "_sum":
				f.sum[sig] = true
			case "_count":
				f.count[sig] = uint64(val)
			default:
				if f.typ == "counter" && val < 0 {
					fail("negative counter")
				}
			}
			f.samples++
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	for _, name := range order {
		f := fams[name]
		if f.typ == "" {
			t.Fatalf("family %s announced HELP but no TYPE", name)
		}
		if f.typ != "histogram" {
			continue
		}
		if len(f.count) == 0 {
			t.Fatalf("histogram %s has no _count", name)
		}
		for sig, n := range f.count {
			inf, ok := f.inf[sig]
			if !ok {
				t.Fatalf("histogram %s{%s} missing +Inf bucket", name, sig)
			}
			if inf != n {
				t.Fatalf("histogram %s{%s}: +Inf bucket %d != count %d", name, sig, inf, n)
			}
			if !f.sum[sig] {
				t.Fatalf("histogram %s{%s} missing _sum", name, sig)
			}
		}
	}
}

// splitLabels splits a label body on commas outside quoted values.
func splitLabels(s string) []string {
	var out []string
	depth := false
	start := 0
	for i := 0; i < len(s); i++ {
		switch s[i] {
		case '\\':
			i++
		case '"':
			depth = !depth
		case ',':
			if !depth {
				out = append(out, s[start:i])
				start = i + 1
			}
		}
	}
	return append(out, s[start:])
}

func TestPrometheusExpositionConformance(t *testing.T) {
	reg := NewRegistry()

	c := NewCounter()
	c.Add(3)
	reg.Attach(MDeliveries, "Deliveries.", c)

	g := NewVec[string](NewGauge)
	g.With("sw-1").Set(-4)
	reg.AttachVec(MFlowTableOccupancy, "Flows per switch.", "switch", g)

	// A label value exercising every escapeLabel case.
	hostile := NewVec[string](NewCounter)
	hostile.With("quote\" back\\slash\nnewline").Inc()
	reg.AttachVec(MRequests, "Requests.", "op", hostile)

	h := NewHistogram(time.Millisecond, 10*time.Millisecond)
	h.Observe(500 * time.Microsecond)
	h.Observe(5 * time.Millisecond)
	h.Observe(50 * time.Millisecond)
	reg.Attach(MDeliveryLatency, "Latency.", h)

	hv := NewVec[string](func() *Histogram { return NewHistogram(time.Millisecond) })
	hv.With("t1").Observe(2 * time.Millisecond)
	hv.With("t2").Observe(time.Microsecond)
	reg.AttachVec(MDeliveryLatencyByTree, "Latency by tree.", "tree", hv)

	hops := NewCountHistogram(1, 2, 4)
	hops.ObserveCount(3)
	reg.Attach(MDeliveryHops, "Hops.", hops)

	var b strings.Builder
	if err := reg.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	lintExposition(t, b.String())

	// The validator must actually reject drift, or this test proves
	// nothing: feed it known-bad documents and expect failures.
	for name, bad := range map[string]string{
		"sample-before-type": "pleroma_x_total 1\n",
		"type-before-help":   "# TYPE pleroma_x_total counter\n# HELP pleroma_x_total x\npleroma_x_total 1\n",
		"counter-suffix":     "# HELP pleroma_x x\n# TYPE pleroma_x counter\npleroma_x 1\n",
		"unescaped-quote":    "# HELP pleroma_x_total x\n# TYPE pleroma_x_total counter\npleroma_x_total{op=\"a\"b\"} 1\n",
		"non-cumulative": "# HELP pleroma_h h\n# TYPE pleroma_h histogram\n" +
			"pleroma_h_bucket{le=\"1\"} 5\npleroma_h_bucket{le=\"2\"} 3\npleroma_h_bucket{le=\"+Inf\"} 5\npleroma_h_sum 9\npleroma_h_count 5\n",
		"missing-inf": "# HELP pleroma_h h\n# TYPE pleroma_h histogram\n" +
			"pleroma_h_bucket{le=\"1\"} 5\npleroma_h_sum 9\npleroma_h_count 5\n",
	} {
		rejected := didFail(func(ft *testing.T) { lintExposition(ft, bad) })
		if !rejected {
			t.Errorf("validator accepted known-bad document %q", name)
		}
	}
}

// didFail runs fn against a throwaway *testing.T in a goroutine (Fatalf
// calls runtime.Goexit) and reports whether it failed.
func didFail(fn func(*testing.T)) bool {
	sub := &testing.T{}
	done := make(chan struct{})
	go func() {
		defer close(done)
		fn(sub)
	}()
	<-done
	return sub.Failed()
}
