package main

import (
	"math"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// A window is cut into keptSlices equal slices, and every timing is taken
// per slice in unstolen time: on a shared host the hypervisor withholds a
// varying part of the CPU time this VM asks for ("steal" in /proc/stat),
// which slows the program down without being a property of it. A slice's
// speed is the share of the demanded CPU time the VM received; wall times
// are multiplied by it. When a slice is not clean the window runs up to
// maxSlices and keeps the keptSlices least-disturbed ones; if any of those
// is clean, only the clean ones count (scaling is exact for a step much
// longer than the hypervisor's time slice and wrong for a much shorter
// one, so it is the fallback for a host that is never quiet).
const (
	keptSlices = 10
	maxSlices  = 15
	cleanSpeed = 0.98
)

// slice is one measured stretch of a closed loop.
type slice struct {
	ops            int
	wall           time.Duration
	speed          float64       // 1 = nothing stolen
	cpu            time.Duration // process CPU time (the kernel books no stolen time to a task)
	mallocs, bytes uint64
	lat            []float64 // per-step latency in µs of unstolen time
}

func (s slice) rate() float64 { return float64(s.ops) / (s.wall.Seconds() * s.speed) }

// window is the kept slices of one run of a closed loop.
type window struct {
	slices []slice
	ops    int // in the kept slices
	ranOps int // in every slice run: dropped ones are verified all the same
}

// Interference only ever slows a slice down, so the window's timings are
// those of its least-disturbed slice: the best of the kept ones.

// rate is the fastest slice's ops per unstolen second.
func (w window) rate() float64 {
	best := 0.0
	for _, s := range w.slices {
		best = math.Max(best, s.rate())
	}
	return best
}

// p50 is the lowest slice median of the step latency.
func (w window) p50() float64 {
	best := math.Inf(1)
	for _, s := range w.slices {
		best = math.Min(best, quantile(sortedCopy(s.lat), 0.5))
	}
	return best
}

// cpuPerOp is the lowest slice's process CPU time per op, in µs.
func (w window) cpuPerOp() float64 {
	best := math.Inf(1)
	for _, s := range w.slices {
		best = math.Min(best, float64(s.cpu)/1e3/float64(s.ops))
	}
	return best
}

// lat returns the kept slices' step latencies, sorted.
func (w window) lat() []float64 {
	var all []float64
	for _, s := range w.slices {
		all = append(all, s.lat...)
	}
	sort.Float64s(all)
	return all
}

func (w window) mallocs() (n uint64) {
	for _, s := range w.slices {
		n += s.mallocs
	}
	return n
}

func (w window) bytes() (n uint64) {
	for _, s := range w.slices {
		n += s.bytes
	}
	return n
}

// sampleBytes is the memory the latency samples hold: the benchmark's own,
// subtracted from heap_live_mb.
func (w window) sampleBytes() (n int) {
	for _, s := range w.slices {
		n += 8 * cap(s.lat)
	}
	return n
}

// runWindow drives the closed loop for d of kept slices.
func runWindow(w workload, d time.Duration) (window, error) {
	var (
		all   []slice
		clean int
		per   = w.opsPerStep()
	)
	for len(all) < maxSlices && clean < keptSlices {
		s := slice{lat: make([]float64, 0, 1024)}
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		cpu0, st0, start := cpuTime(), readCPUStat(), time.Now()
		for time.Since(start) < d/keptSlices {
			lat, err := w.step()
			if err != nil {
				return window{}, err
			}
			s.ops += per
			s.lat = append(s.lat, float64(lat)/1e3)
		}
		s.wall = time.Since(start)
		st := readCPUStat().sub(st0)
		s.speed = st.speed()
		s.cpu = cpuTime() - cpu0
		runtime.ReadMemStats(&m1)
		s.mallocs, s.bytes = m1.Mallocs-m0.Mallocs, m1.TotalAlloc-m0.TotalAlloc
		for i := range s.lat {
			s.lat[i] *= s.speed
		}
		if s.speed >= cleanSpeed {
			clean++
		}
		all = append(all, s)
	}
	var win window
	for _, s := range all {
		win.ranOps += s.ops
	}
	sort.SliceStable(all, func(i, j int) bool { return all[i].speed > all[j].speed })
	if len(all) > keptSlices {
		all = all[:keptSlices]
	}
	if clean > 0 && clean < len(all) {
		all = all[:clean]
	}
	win.slices = all
	for _, s := range all {
		win.ops += s.ops
	}
	return win, nil
}

// cpuTime is the process's user+system CPU time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// cpuStat is the machine's cumulative non-idle and stolen CPU time, in
// clock ticks summed over CPUs (the first line of /proc/stat). The
// benchmark is the only load, so all of it is the benchmark's.
type cpuStat struct{ busy, steal float64 }

func readCPUStat() cpuStat {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return cpuStat{} // not Linux: no steal, nothing to correct
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line) // cpu user nice system idle iowait irq softirq steal ...
	if len(f) < 9 || f[0] != "cpu" {
		return cpuStat{}
	}
	var v [9]float64
	for i := 1; i < 9; i++ {
		v[i], _ = strconv.ParseFloat(f[i], 64)
	}
	return cpuStat{busy: v[1] + v[2] + v[3] + v[6] + v[7] + v[8], steal: v[8]}
}

func (a cpuStat) sub(b cpuStat) cpuStat { return cpuStat{a.busy - b.busy, a.steal - b.steal} }

// speed is the share of the demanded CPU time that was received.
func (d cpuStat) speed() float64 {
	if d.busy <= 0 || d.steal <= 0 {
		return 1
	}
	return 1 - d.steal/d.busy
}

// unstolen times fn and returns its wall time scaled by the speed of the
// machine over that stretch (meaningful from some tens of ticks upwards;
// shorter stretches come back unscaled).
func unstolen(fn func() error) (time.Duration, error) {
	st0, t0 := readCPUStat(), time.Now()
	err := fn()
	took := time.Since(t0)
	return time.Duration(float64(took) * readCPUStat().sub(st0).speed()), err
}

// heapLive is HeapAlloc after two forced collections (the second empties
// the sync.Pool victim caches).
func heapLive() float64 {
	runtime.GC()
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return float64(m.HeapAlloc) / (1 << 20)
}

// quantile is the nearest-rank q-quantile of sorted values.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	return sorted[i]
}

func sortedCopy(v []float64) []float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return s
}

func median(v []float64) float64 {
	s := sortedCopy(v)
	if len(s) == 0 {
		return 0
	}
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}
