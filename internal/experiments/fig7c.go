package experiments

import (
	"fmt"
	"time"

	"pleroma/internal/core"
	"pleroma/internal/metrics"
	"pleroma/internal/netem"
	"pleroma/internal/sim"
	"pleroma/internal/space"
	"pleroma/internal/topo"
	"pleroma/internal/workload"
)

// Host ingestion capacities observed in the paper's Section 6.3: the
// standard end hosts saturate around 70–80k events/s; faster machines
// reach about 170k events/s.
const (
	fig7cStdCapacity  = 70000
	fig7cFastCapacity = 170000
)

// RunFig7cThroughput reproduces Figure 7(c): events received per second at
// the end hosts versus publish rate. Beyond the hosts' processing
// capacity the received rate saturates while the switch fabric keeps
// forwarding every event — the bottleneck is the end host, not the
// network.
func RunFig7cThroughput(cfg Config) ([]*metrics.Table, error) {
	rates := pickInts(cfg,
		[]int{10000, 40000, 80000},
		[]int{10000, 20000, 30000, 40000, 50000, 60000, 70000, 80000})
	duration := 200 * time.Millisecond
	if !cfg.Quick {
		duration = time.Second
	}

	table := &metrics.Table{
		Title: "Figure 7(c): received event rate vs. publish rate (4 subscriber hosts)",
		Columns: []string{"sent/s", "received/s", "received/s-fast",
			"fabric-forwarded/s", "host-dropped/s"},
	}
	for _, rate := range rates {
		std, fwd, dropped, err := fig7cRun(cfg.Seed, rate, duration, fig7cStdCapacity)
		if err != nil {
			return nil, err
		}
		fast, _, _, err := fig7cRun(cfg.Seed, rate, duration, fig7cFastCapacity)
		if err != nil {
			return nil, err
		}
		table.AddRow(rate, std, fast, fwd, dropped)
	}
	return []*metrics.Table{table}, nil
}

// fig7cRun pushes events at the given rate for the duration and returns
// per-second received, fabric-forwarded (at the last hop), and dropped
// rates, normalised per subscriber host.
func fig7cRun(seed int64, rate int, duration time.Duration, capacity int) (received, forwarded, dropped float64, err error) {
	g, err := topo.TestbedFatTree(topo.DefaultLinkParams)
	if err != nil {
		return 0, 0, 0, err
	}
	eng := sim.NewEngine()
	dp := netem.New(g, eng)
	ctl, err := core.NewController(g, dp, core.WithHostAddr(netem.HostAddr))
	if err != nil {
		return 0, 0, 0, err
	}
	sch, err := space.UniformSchema(2)
	if err != nil {
		return 0, 0, 0, err
	}
	gen, err := workload.New(sch, workload.Zipfian, seed)
	if err != nil {
		return 0, 0, 0, err
	}

	hosts := g.Hosts()
	pub := hosts[0]
	subscribers := hosts[1:5] // 4 end hosts as in the paper

	whole, err := sch.DecomposeLimited(space.NewFilter(), fig7bMaxDzLen, fig7bMaxSubspaces)
	if err != nil {
		return 0, 0, 0, err
	}
	if _, err := ctl.Advertise("pub", pub, whole); err != nil {
		return 0, 0, 0, err
	}
	// Every subscriber host takes the full event stream: the experiment
	// stresses the ingestion path, so all events must reach all hosts.
	for i, h := range subscribers {
		if _, err := ctl.Subscribe(fmt.Sprintf("s%d", i), h, whole); err != nil {
			return 0, 0, 0, err
		}
		if err := dp.ConfigureHost(h, netem.HostConfig{CapacityPerSec: capacity}, nil); err != nil {
			return 0, 0, 0, err
		}
	}

	total := int(float64(rate) * duration.Seconds())
	interval := time.Duration(int64(time.Second) / int64(rate))
	maxLen := sch.Geometry().MaxLen()
	for i, ev := range gen.Events(total) {
		expr, encErr := sch.Encode(ev, maxLen)
		if encErr != nil {
			return 0, 0, 0, encErr
		}
		at := time.Duration(i) * interval
		if err := dp.PublishAt(at, pub, expr, ev, netem.DefaultPacketSize); err != nil {
			return 0, 0, 0, err
		}
	}
	// Let queued work drain fully.
	eng.Run()

	var recv, drop uint64
	for _, h := range subscribers {
		recv += dp.HostReceived(h)
		drop += dp.HostDropped(h)
	}
	// Fabric-forwarded: packets handed to subscriber access links.
	var fwd uint64
	for _, h := range subscribers {
		sw, err := g.AttachedSwitch(h)
		if err != nil {
			return 0, 0, 0, err
		}
		link, ok := g.LinkBetween(sw, h)
		if !ok {
			return 0, 0, 0, fmt.Errorf("fig7c: missing access link")
		}
		if ls := dp.LinkStatsFor(link); ls != nil {
			fwd += ls.Packets[sw]
		}
	}
	secs := duration.Seconds()
	n := float64(len(subscribers))
	return float64(recv) / secs / n, float64(fwd) / secs / n, float64(drop) / secs / n, nil
}
