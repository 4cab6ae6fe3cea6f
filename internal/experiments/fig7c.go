package experiments

import (
	"fmt"
	"time"

	"pleroma"
	"pleroma/internal/metrics"
	"pleroma/internal/space"
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
// per-second received, fabric-forwarded (handed to the subscriber hosts)
// and host-dropped rates, normalised per subscriber host.
func fig7cRun(seed int64, rate int, duration time.Duration, capacity int) (received, forwarded, dropped float64, err error) {
	sch, err := space.UniformSchema(2)
	if err != nil {
		return 0, 0, 0, err
	}
	gen, err := workload.New(sch, workload.Zipfian, seed)
	if err != nil {
		return 0, 0, 0, err
	}
	sys, err := newSystem(sch, pleroma.WithHostCapacity(capacity))
	if err != nil {
		return 0, 0, 0, err
	}
	defer sys.Close()

	hosts := sys.Hosts()
	subscribers := hosts[1:5] // 4 end hosts as in the paper
	pub, err := advertise(sys, "pub", hosts[0], pleroma.NewFilter())
	if err != nil {
		return 0, 0, 0, err
	}
	// Every subscriber host takes the full event stream: the experiment
	// stresses the ingestion path, so all events must reach all hosts.
	for i, h := range subscribers {
		if err := sys.Subscribe(fmt.Sprintf("s%d", i), h, pleroma.NewFilter(), nil); err != nil {
			return 0, 0, 0, err
		}
	}
	total := int(float64(rate) * duration.Seconds())
	interval := time.Duration(int64(time.Second) / int64(rate))
	if err := publishEvery(sys, pub, gen.Events(total), interval); err != nil {
		return 0, 0, 0, err
	}

	// One whole-space subscription per subscriber host: a delivery is an
	// event a host ingested, and what the fabric handed a host it either
	// ingested or dropped.
	recv := sys.Stats().Deliveries
	var drop uint64
	for _, h := range sys.OverloadReport().OverloadedHosts {
		drop += h.Dropped
	}
	secs := duration.Seconds()
	n := float64(len(subscribers))
	return float64(recv) / secs / n, float64(recv+drop) / secs / n, float64(drop) / secs / n, nil
}
