package core_test

import (
	"fmt"
	"sort"
	"testing"

	"pleroma/internal/core"
	"pleroma/internal/dz"
	"pleroma/internal/netem"
	"pleroma/internal/openflow"
	"pleroma/internal/sim"
	"pleroma/internal/space"
	"pleroma/internal/topo"
)

// figure4 builds the scenario of the paper's Figure 4: publisher p1 with
// DZ(p1)={1}, subscribers s1 with {1} and s2 with {100}; then s3 arrives
// with {10}. The switch layout mirrors the figure's roles:
//
//	p1—R1—R3—R2—s1
//	        |
//	        R4—R5—s2
//	        |
//	        R6—s3
type figure4 struct {
	g                      *topo.Graph
	dp                     *netem.DataPlane
	ctl                    *core.Controller
	r1, r2, r3, r4, r5, r6 topo.NodeID
	p1, s1, s2, s3         topo.NodeID
}

func buildFigure4(t *testing.T) *figure4 {
	t.Helper()
	g := topo.NewGraph()
	f := &figure4{g: g}
	f.r1 = g.AddSwitch("R1")
	f.r2 = g.AddSwitch("R2")
	f.r3 = g.AddSwitch("R3")
	f.r4 = g.AddSwitch("R4")
	f.r5 = g.AddSwitch("R5")
	f.r6 = g.AddSwitch("R6")
	links := [][2]topo.NodeID{
		{f.r1, f.r3}, {f.r2, f.r3}, {f.r3, f.r4}, {f.r4, f.r5}, {f.r4, f.r6},
	}
	for _, l := range links {
		if _, _, err := g.Connect(l[0], l[1], topo.DefaultLinkParams); err != nil {
			t.Fatal(err)
		}
	}
	f.p1 = g.AddHost("p1")
	f.s1 = g.AddHost("s1")
	f.s2 = g.AddHost("s2")
	f.s3 = g.AddHost("s3")
	hostLinks := [][2]topo.NodeID{
		{f.p1, f.r1}, {f.s1, f.r2}, {f.s2, f.r5}, {f.s3, f.r6},
	}
	for _, l := range hostLinks {
		if _, _, err := g.Connect(l[0], l[1], topo.DefaultLinkParams); err != nil {
			t.Fatal(err)
		}
	}
	eng := sim.NewEngine()
	f.dp = netem.New(g, eng)
	ctl, err := core.NewController(g, f.dp, core.WithHostAddr(netem.HostAddr))
	if err != nil {
		t.Fatal(err)
	}
	f.ctl = ctl

	if _, err := ctl.Advertise("p1", f.p1, dz.NewSet("1")); err != nil {
		t.Fatal(err)
	}
	if _, err := ctl.Subscribe("s1", f.s1, dz.NewSet("1")); err != nil {
		t.Fatal(err)
	}
	if _, err := ctl.Subscribe("s2", f.s2, dz.NewSet("100")); err != nil {
		t.Fatal(err)
	}
	return f
}

// flowSummary renders a switch table as "expr>ports" lines for assertions.
func (f *figure4) flowSummary(t *testing.T, sw topo.NodeID) map[string][]openflow.PortID {
	t.Helper()
	flows, err := f.dp.Flows(sw)
	if err != nil {
		t.Fatal(err)
	}
	out := make(map[string][]openflow.PortID, len(flows))
	for _, fl := range flows {
		out[string(fl.Expr())] = fl.OutPorts()
	}
	return out
}

func (f *figure4) port(t *testing.T, from, to topo.NodeID) openflow.PortID {
	t.Helper()
	p, ok := f.g.PortTowards(from, to)
	if !ok {
		t.Fatalf("no port %d->%d", from, to)
	}
	return p
}

func portsEqual(a, b []openflow.PortID) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func TestFigure4InitialTables(t *testing.T) {
	f := buildFigure4(t)

	// R1 carries a single coarse flow 1* towards R3: the finer 100 flow of
	// the s2 path is fully covered (case 2) and never installed.
	r1 := f.flowSummary(t, f.r1)
	if len(r1) != 1 || !portsEqual(r1["1"], []openflow.PortID{f.port(t, f.r1, f.r3)}) {
		t.Errorf("R1=%v", r1)
	}
	// R3 splits: 1* to s1's branch, 100* additionally to R4 (priority via
	// the longer dz, paper Figure 3 semantics).
	r3 := f.flowSummary(t, f.r3)
	want100 := []openflow.PortID{f.port(t, f.r3, f.r2), f.port(t, f.r3, f.r4)}
	sortPorts(want100)
	if !portsEqual(r3["1"], []openflow.PortID{f.port(t, f.r3, f.r2)}) {
		t.Errorf("R3[1]=%v", r3["1"])
	}
	if !portsEqual(r3["100"], want100) {
		t.Errorf("R3[100]=%v, want %v", r3["100"], want100)
	}
	// R4 and R5 forward the 100 branch only.
	r4 := f.flowSummary(t, f.r4)
	if len(r4) != 1 || !portsEqual(r4["100"], []openflow.PortID{f.port(t, f.r4, f.r5)}) {
		t.Errorf("R4=%v", r4)
	}
	r5 := f.flowSummary(t, f.r5)
	if len(r5) != 1 || !portsEqual(r5["100"], []openflow.PortID{f.port(t, f.r5, f.s2)}) {
		t.Errorf("R5=%v", r5)
	}
	// R6 has no flows yet (case 1 happens when s3 arrives).
	if r6 := f.flowSummary(t, f.r6); len(r6) != 0 {
		t.Errorf("R6=%v, want empty", r6)
	}
}

func TestFigure4ArrivalOfS3(t *testing.T) {
	f := buildFigure4(t)
	if _, err := f.ctl.Subscribe("s3", f.s3, dz.NewSet("10")); err != nil {
		t.Fatal(err)
	}

	// Case 2 — R1: existing 1* flow covers the new 10 flow; table unchanged.
	r1 := f.flowSummary(t, f.r1)
	if len(r1) != 1 || !portsEqual(r1["1"], []openflow.PortID{f.port(t, f.r1, f.r3)}) {
		t.Errorf("case 2 violated, R1=%v", r1)
	}
	// Case 3 — R3: the 100 flow is replaced by the covering 10 flow.
	r3 := f.flowSummary(t, f.r3)
	if _, still := r3["100"]; still {
		t.Errorf("case 3 violated: R3 still has 100 flow: %v", r3)
	}
	want10 := []openflow.PortID{f.port(t, f.r3, f.r2), f.port(t, f.r3, f.r4)}
	sortPorts(want10)
	if !portsEqual(r3["10"], want10) {
		t.Errorf("R3[10]=%v, want %v", r3["10"], want10)
	}
	// Case 5 — R4: the new 10 flow is added and the existing finer 100
	// flow is updated to include the new out-port with higher priority.
	r4 := f.flowSummary(t, f.r4)
	if !portsEqual(r4["10"], []openflow.PortID{f.port(t, f.r4, f.r6)}) {
		t.Errorf("R4[10]=%v", r4["10"])
	}
	want100 := []openflow.PortID{f.port(t, f.r4, f.r5), f.port(t, f.r4, f.r6)}
	sortPorts(want100)
	if !portsEqual(r4["100"], want100) {
		t.Errorf("case 5 violated: R4[100]=%v, want %v", r4["100"], want100)
	}
	flows, err := f.dp.Flows(f.r4)
	if err != nil {
		t.Fatal(err)
	}
	var p10, p100 int
	for _, fl := range flows {
		switch fl.Expr() {
		case "10":
			p10 = fl.Priority
		case "100":
			p100 = fl.Priority
		}
	}
	if p100 <= p10 {
		t.Errorf("longer dz must hold higher priority: PO(100)=%d PO(10)=%d", p100, p10)
	}
	// Case 1 — R6: fresh flow 10 towards s3.
	r6 := f.flowSummary(t, f.r6)
	if len(r6) != 1 || !portsEqual(r6["10"], []openflow.PortID{f.port(t, f.r6, f.s3)}) {
		t.Errorf("case 1 violated, R6=%v", r6)
	}
}

func TestFigure4UnsubscriptionDowngrade(t *testing.T) {
	// Section 3.3.3's example: when s3 leaves, the flow on R6 is deleted
	// and the flows on R3 (and the extra port on R4) are downgraded back
	// to dz=100 because s2's path still passes through them.
	f := buildFigure4(t)
	before := map[topo.NodeID]map[string][]openflow.PortID{
		f.r1: f.flowSummary(t, f.r1),
		f.r3: f.flowSummary(t, f.r3),
		f.r4: f.flowSummary(t, f.r4),
		f.r5: f.flowSummary(t, f.r5),
		f.r6: f.flowSummary(t, f.r6),
	}
	if _, err := f.ctl.Subscribe("s3", f.s3, dz.NewSet("10")); err != nil {
		t.Fatal(err)
	}
	if _, err := f.ctl.Unsubscribe("s3"); err != nil {
		t.Fatal(err)
	}
	if err := f.ctl.VerifyTables(); err != nil {
		t.Fatal(err)
	}
	for sw, want := range before {
		got := f.flowSummary(t, sw)
		if len(got) != len(want) {
			t.Errorf("switch %d: table size %d, want %d (%v vs %v)", sw, len(got), len(want), got, want)
			continue
		}
		for expr, ports := range want {
			if !portsEqual(got[expr], ports) {
				t.Errorf("switch %d flow %s: ports=%v, want %v", sw, expr, got[expr], ports)
			}
		}
	}
}

func TestFigure4EndToEnd(t *testing.T) {
	f := buildFigure4(t)
	if _, err := f.ctl.Subscribe("s3", f.s3, dz.NewSet("10")); err != nil {
		t.Fatal(err)
	}
	recv := make(map[topo.NodeID]int)
	for _, h := range []topo.NodeID{f.s1, f.s2, f.s3} {
		h := h
		if err := f.dp.ConfigureHost(h, netem.HostConfig{}, func(netem.Delivery) {
			recv[h]++
		}); err != nil {
			t.Fatal(err)
		}
	}
	// Event dz=1001…: matches s1 ({1}) and s2 ({100}) and s3 ({10}).
	if err := f.dp.Publish(f.p1, "1001", space.Event{}, 64); err != nil {
		t.Fatal(err)
	}
	// Event dz=1100…: matches s1 and s3... 11 vs 10: no — only s1.
	if err := f.dp.Publish(f.p1, "1100", space.Event{}, 64); err != nil {
		t.Fatal(err)
	}
	// Event dz=1010…: matches s1 and s3.
	if err := f.dp.Publish(f.p1, "1010", space.Event{}, 64); err != nil {
		t.Fatal(err)
	}
	f.dp.Engine().Run()
	if recv[f.s1] != 3 {
		t.Errorf("s1 received %d, want 3", recv[f.s1])
	}
	if recv[f.s2] != 1 {
		t.Errorf("s2 received %d, want 1", recv[f.s2])
	}
	if recv[f.s3] != 2 {
		t.Errorf("s3 received %d, want 2", recv[f.s3])
	}
}

func sortPorts(p []openflow.PortID) {
	sort.Slice(p, func(i, j int) bool { return p[i] < p[j] })
}

func TestFigure4FlowModAccounting(t *testing.T) {
	f := buildFigure4(t)
	rep, err := f.ctl.Subscribe("s3", f.s3, dz.NewSet("10"))
	if err != nil {
		t.Fatal(err)
	}
	// R3: add 10, delete 100 → 2 ops; R4: add 10, modify 100 → 2 ops;
	// R6: add 10 → 1 op; R1, R5: untouched.
	if rep.FlowAdds != 3 {
		t.Errorf("FlowAdds=%d, want 3", rep.FlowAdds)
	}
	if rep.FlowDeletes != 1 {
		t.Errorf("FlowDeletes=%d, want 1", rep.FlowDeletes)
	}
	if rep.FlowModifies != 1 {
		t.Errorf("FlowModifies=%d, want 1", rep.FlowModifies)
	}
	if rep.FlowOps() != 5 {
		t.Errorf("FlowOps=%d, want 5", rep.FlowOps())
	}
}

func TestFigure4TreeInfo(t *testing.T) {
	f := buildFigure4(t)
	trees := f.ctl.Trees()
	if len(trees) != 1 {
		t.Fatalf("trees=%d", len(trees))
	}
	tr := trees[0]
	if !tr.DZ.Equal(dz.NewSet("1")) {
		t.Errorf("DZ=%v", tr.DZ)
	}
	if tr.Root != f.p1 {
		t.Errorf("root=%d, want publisher host %d", tr.Root, f.p1)
	}
	if len(tr.Publishers) != 1 || tr.Publishers[0] != "p1" {
		t.Errorf("publishers=%v", tr.Publishers)
	}
	if len(tr.Subscribers) != 2 {
		t.Errorf("subscribers=%v", tr.Subscribers)
	}
	if set, ok := f.ctl.SubscriptionSet("s2"); !ok || !set.Equal(dz.NewSet("100")) {
		t.Errorf("SubscriptionSet(s2)=%v,%v", set, ok)
	}
	if set, ok := f.ctl.AdvertisementSet("p1"); !ok || !set.Equal(dz.NewSet("1")) {
		t.Errorf("AdvertisementSet(p1)=%v,%v", set, ok)
	}
	if _, ok := f.ctl.SubscriptionSet("nope"); ok {
		t.Error("unknown subscription found")
	}
	if _, ok := f.ctl.AdvertisementSet("nope"); ok {
		t.Error("unknown advertisement found")
	}
}

func TestInstalledFlowsOn(t *testing.T) {
	f := buildFigure4(t)
	exprs := f.ctl.InstalledFlowsOn(f.r3)
	if len(exprs) != 2 {
		t.Fatalf("exprs=%v", exprs)
	}
	if fmt.Sprint(exprs) != "[1 100]" {
		t.Errorf("exprs=%v, want [1 100]", exprs)
	}
	if got := f.ctl.InstalledFlowCount(); got != 6 {
		// R1:1, R2:1, R3:2, R4:1, R5:1
		t.Errorf("InstalledFlowCount=%d, want 6", got)
	}
}
