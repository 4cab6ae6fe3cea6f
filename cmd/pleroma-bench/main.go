// Command pleroma-bench is the repository's benchmark: four named
// closed-loop workloads, each reporting the end-to-end and per-layer
// metrics declared in BENCHMARK.json, with every output verified. See
// README.md in this directory.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"strings"
	"time"
)

// Seeds: defaultSeed is what a bare run uses; holdoutSeed is reserved for
// confirming a later performance claim on inputs nobody tuned against.
const (
	defaultSeed = 12
	holdoutSeed = 1212
)

// maxConnections bounds the TCP connections one workload may open.
const maxConnections = 2

// metric is one reported number. Samples is the number of timed samples
// behind a percentile (0 for ratios and counts).
type metric struct {
	Value   float64 `json:"value"`
	Unit    string  `json:"unit"`
	Samples int     `json:"samples,omitempty"`
}

// result is one workload's outcome. Attempted and Failed count ops and
// wrong outputs; Correct is Failed == 0.
type result struct {
	Workload   string            `json:"workload"`
	GOMAXPROCS int               `json:"gomaxprocs"`
	Correct    bool              `json:"correct"`
	Attempted  int               `json:"attempted"`
	Failed     int               `json:"failed"`
	EndToEnd   map[string]metric `json:"end_to_end,omitempty"`
	PerLayer   map[string]metric `json:"per_layer,omitempty"`
	spans      []span
}

// tracedRun is one traced run's spans as -trace-out writes them; Parent
// indexes into Spans.
type tracedRun struct {
	Workload string `json:"workload"`
	Seed     int64  `json:"seed"`
	Spans    []span `json:"spans"`
}

// options is one invocation's configuration.
type options struct {
	seed   int64
	window time.Duration // measured window; warm-up and traced window derive from it
	sz     sizes
	e2e    bool // run the untraced measured window
	traced bool // run the traced window and the layer probes
	tmpDir string
	reps   int // set-ups per run; setup_s is their median
}

func (o options) warmup() time.Duration       { return o.window / 10 }
func (o options) tracedWindow() time.Duration { return o.window / 2 }

func main() {
	var (
		workloads = flag.String("workload", "all", "comma-separated workloads to run, or all: "+strings.Join(workloadNames, ", "))
		seed      = flag.Int64("seed", defaultSeed, fmt.Sprintf("input seed (hold-out seed for later claims: %d)", holdoutSeed))
		seconds   = flag.Float64("seconds", 10, "measured window per workload; warm-up is a tenth, the traced window half of it")
		trace     = flag.String("trace", "", "run one part only: 0 = the untraced window (end-to-end metrics), 1 = the traced window and probes (per-layer metrics); with one workload the last stdout line is the driver's result object")
		out       = flag.String("out", "", "write the JSON document here")
		traceOut  = flag.String("trace-out", "", "write the traced run's spans here (JSON)")
		smoke     = flag.Bool("smoke", false, "tiny configuration: 200 ms windows, 200 deployed subscriptions")
		compare   = flag.Bool("compare", false, "compare two documents: pleroma-bench -compare A.json B.json")
		repeat    = flag.Int("repeat", 1, "run this many sets (seed, seed+1, ...) and print median and quartiles")
		tmpDir    = flag.String("tmp", ".bench_build/tmp", "scratch directory for the file-journal probe")
	)
	flag.Parse()
	if *compare {
		if flag.NArg() != 2 {
			fatal(fmt.Errorf("-compare wants two documents"))
		}
		if err := compareFiles(os.Stdout, flag.Arg(0), flag.Arg(1)); err != nil {
			fatal(err)
		}
		return
	}
	// One generator goroutine drives every workload; the cap matters for
	// the connections, and guards later edits.
	if maxConnections > runtime.NumCPU() {
		fatal(fmt.Errorf("%d connections wanted but only %d CPUs: the load generator would measure itself", maxConnections, runtime.NumCPU()))
	}
	names := workloadNames
	if *workloads != "all" {
		names = strings.Split(*workloads, ",")
	}
	if *trace != "" && *trace != "0" && *trace != "1" {
		fatal(fmt.Errorf("-trace is 0 or 1, not %q", *trace))
	}
	if *seconds <= 0 || *repeat < 1 {
		fatal(fmt.Errorf("-seconds and -repeat must be positive"))
	}
	o := options{
		seed:   *seed,
		window: time.Duration(*seconds * float64(time.Second)),
		sz:     fullSizes,
		e2e:    *trace != "1",
		traced: *trace != "0",
		tmpDir: *tmpDir,
		reps:   3,
	}
	if *smoke {
		o.window, o.sz, o.reps = 200*time.Millisecond, smokeSizes, 1
	}
	doc := document{Env: environment(), Seconds: o.window.Seconds(), Smoke: *smoke}
	failed := 0
	var traces []tracedRun
	for i := 0; i < *repeat; i++ {
		o.seed = *seed + int64(i)
		set := runSet{Seed: o.seed}
		for _, name := range names {
			res, err := runWorkload(name, o)
			if err != nil {
				fatal(fmt.Errorf("%s: %w", name, err))
			}
			failed += res.Failed
			if len(res.spans) > 0 {
				traces = append(traces, tracedRun{Workload: name, Seed: o.seed, Spans: res.spans})
			}
			set.Workloads = append(set.Workloads, res)
			printResult(os.Stdout, res)
		}
		doc.Sets = append(doc.Sets, set)
	}
	if *repeat > 1 {
		printSpread(os.Stdout, doc)
	}
	if *out != "" {
		if err := writeJSON(*out, doc, true); err != nil {
			fatal(err)
		}
	}
	if *traceOut != "" {
		if err := writeJSON(*traceOut, traces, false); err != nil {
			fatal(err)
		}
	}
	if *trace != "" && len(names) == 1 && *repeat == 1 {
		printContractLine(doc.Sets[0].Workloads[0], *trace == "1")
	}
	if failed > 0 {
		fmt.Fprintf(os.Stderr, "pleroma-bench: %d wrong outputs\n", failed)
		os.Exit(1)
	}
}

// printContractLine prints the driver's result object: exactly the keys
// correct, attempted, failed and metrics.
func printContractLine(r result, perLayer bool) {
	src := r.EndToEnd
	if perLayer {
		src = r.PerLayer
	}
	metrics := make(map[string]metric, len(src))
	for k, m := range src {
		metrics[k] = metric{Value: m.Value, Unit: m.Unit}
	}
	line, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{r.Correct, r.Attempted, r.Failed, metrics})
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(line))
}

// writeJSON writes v to path, indented for the documents people read and
// compact for the span lists (hundreds of thousands of entries).
func writeJSON(path string, v any, indent bool) error {
	var (
		b   []byte
		err error
	)
	if indent {
		b, err = json.MarshalIndent(v, "", " ")
	} else {
		b, err = json.Marshal(v)
	}
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "pleroma-bench:", err)
	os.Exit(2)
}
