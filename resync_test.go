package pleroma_test

import (
	"reflect"
	"runtime"
	"strconv"
	"testing"

	"pleroma"
)

// TestSeededSouthboundFaultsReproducible pins what a FaultConfig seed
// promises: the same subscribe/unsubscribe script against the same seeded
// fault injector lands every fault on the same FlowMod of the same switch,
// on a multi-core process too. A controller programs the switches an
// operation touched one after the other in switch order, so the injector's
// random source is consumed in one order only.
func TestSeededSouthboundFaultsReproducible(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	type outcome struct {
		faults pleroma.FaultStats
		report pleroma.SouthboundReport
		digest []byte
	}
	run := func() outcome {
		sch, err := pleroma.NewSchema(
			pleroma.Attribute{Name: "a", Bits: 10},
			pleroma.Attribute{Name: "b", Bits: 10},
		)
		if err != nil {
			t.Fatal(err)
		}
		// No retry policy: every injected fault quarantines its switch, so
		// the degraded set records where each one struck.
		sys, err := pleroma.NewSystem(sch, pleroma.WithFatTree(4, 4, 2),
			pleroma.WithMaxDzLen(24), pleroma.WithMaxSubspaces(16),
			pleroma.WithSouthboundFaults(pleroma.FaultConfig{Seed: 7, Rate: 0.05}))
		if err != nil {
			t.Fatal(err)
		}
		defer sys.Close()
		hosts := sys.Hosts()
		pub, err := sys.NewPublisher("p", hosts[0])
		if err != nil {
			t.Fatal(err)
		}
		if err := pub.Advertise(pleroma.NewFilter()); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 60; i++ {
			lo := uint32(i * 16)
			f := pleroma.NewFilter().Range("a", lo, lo+63).Range("b", 1023-lo-63, 1023-lo)
			if err := sys.Subscribe("s"+strconv.Itoa(i), hosts[1+i%(len(hosts)-1)], f, func(pleroma.Delivery) {}); err != nil {
				t.Fatal(err)
			}
			if i%3 == 2 {
				if err := sys.Unsubscribe("s" + strconv.Itoa(i-2)); err != nil {
					t.Fatal(err)
				}
			}
		}
		digest, err := sys.StateDigest()
		if err != nil {
			t.Fatal(err)
		}
		out := outcome{sys.FaultStats(), sys.SouthboundReport(), digest}
		if out.report.Healthy() {
			t.Errorf("SouthboundReport().Healthy() with %d degraded switches", len(out.report.Degraded))
		}
		// With the faults off, one resync pass repairs every switch.
		sys.SetFaultRate(0)
		sys.HealFaults()
		if _, err := sys.Resync(); err != nil {
			t.Fatal(err)
		}
		if rep := sys.SouthboundReport(); !rep.Healthy() {
			t.Errorf("SouthboundReport().Healthy() false after the repairing resync: %d degraded", len(rep.Degraded))
		}
		return out
	}
	a, b := run(), run()
	if a.faults.Injected == 0 || len(a.report.Degraded) < 2 {
		t.Fatalf("script too tame to tell runs apart: %+v, %d degraded", a.faults, len(a.report.Degraded))
	}
	if a.faults != b.faults {
		t.Errorf("FaultStats differ between identically seeded runs:\n%+v\n%+v", a.faults, b.faults)
	}
	if !reflect.DeepEqual(a.report, b.report) {
		t.Errorf("SouthboundReport differs between identically seeded runs:\n%+v\n%+v", a.report, b.report)
	}
	if !reflect.DeepEqual(a.digest, b.digest) {
		t.Error("StateDigest differs between identically seeded runs")
	}
}
