package main

import (
	"fmt"
	"runtime"
	"time"
)

// workloadDeadline bounds one workload's run, under the driver's 180 s.
const workloadDeadline = 170 * time.Second

// runWorkload runs the requested parts of one workload: the untraced
// measured window (end-to-end metrics) and the traced window plus layer
// probes (per-layer metrics). End-to-end numbers never come from the
// traced run.
func runWorkload(name string, o options) (result, error) {
	res := result{Workload: name}
	// A lost event would block a closed loop forever; end the run instead.
	guard := time.AfterFunc(workloadDeadline, func() {
		fatal(fmt.Errorf("%s: no result after %v", name, workloadDeadline))
	})
	defer guard.Stop()
	res.GOMAXPROCS = runtime.GOMAXPROCS(0)
	if n := maxProcs(name); n < res.GOMAXPROCS {
		res.GOMAXPROCS = n
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(n))
	}
	var untraced *window // the untraced window, if this invocation measures one
	if o.e2e {
		win, err := endToEndRun(name, o, &res)
		if err != nil {
			return res, err
		}
		untraced = &win
	}
	if o.traced {
		if err := perLayerRun(name, o, untraced, &res); err != nil {
			return res, err
		}
	}
	res.Correct = res.Failed == 0
	return res, nil
}

// fresh sets a workload up on a new deployment after a forced GC and
// returns the set-up's duration.
func fresh(name string, o options, rec *recorder) (workload, time.Duration, error) {
	runtime.GC()
	w, err := newWorkload(name, o.seed, o.sz, rec)
	if err != nil {
		return nil, 0, err
	}
	took, err := unstolen(w.setup)
	if err != nil {
		w.close()
		return nil, 0, err
	}
	return w, took, nil
}

// warmAndMeasure runs the warm-up and then the timed window on a set-up
// workload, verifies the outputs and books ops and failures.
func warmAndMeasure(w workload, o options, d time.Duration, res *result) (window, float64, error) {
	warm, err := runWindow(w, o.warmup())
	if err != nil {
		return window{}, 0, err
	}
	warmOps := warm.ranOps
	warm = window{} // its latency samples must not count as live heap
	runtime.GC()
	win, err := runWindow(w, d)
	if err != nil {
		return window{}, 0, err
	}
	// Nor must the window's: they are the benchmark's, not the system's.
	heap := heapLive() - float64(win.sampleBytes())/(1<<20)
	if err := w.verify(); err != nil {
		return window{}, 0, err
	}
	res.Attempted += warmOps + win.ranOps
	res.Failed += w.failures()
	return win, heap, nil
}

func endToEndRun(name string, o options, res *result) (window, error) {
	// setup_s is the median of several set-ups: at least o.reps, and more
	// while they are cheap. The last one is measured on.
	var (
		w      workload
		setups []float64
		total  time.Duration
	)
	for i := 0; i < o.reps || (i < 30 && total < 500*time.Millisecond); i++ {
		if w != nil {
			w.close()
		}
		next, took, err := fresh(name, o, nil)
		if err != nil {
			return window{}, err
		}
		w = next
		setups = append(setups, took.Seconds())
		total += took
	}
	defer w.close()
	win, heap, err := warmAndMeasure(w, o, o.window, res)
	if err != nil {
		return window{}, err
	}
	ops := float64(win.ops)
	res.EndToEnd = map[string]metric{
		"setup_s":       {Value: median(setups), Unit: "s", Samples: len(setups)},
		"ops_per_s":     {Value: win.rate(), Unit: "1/s", Samples: len(win.slices)},
		"step_p50_us":   {Value: win.p50(), Unit: "us", Samples: len(win.slices)},
		"allocs_per_op": {Value: float64(win.mallocs()) / ops, Unit: "count"},
		"heap_live_mb":  {Value: heap, Unit: "MiB"},
	}
	return win, nil
}
