package core

import (
	"fmt"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"sync"
	"time"

	"pleroma/internal/dz"
	"pleroma/internal/openflow"
	"pleroma/internal/sortutil"
	"pleroma/internal/topo"
)

// touchedSet records, per switch, the match expressions whose direct
// contributions changed during one control operation. Only the prefix
// family (ancestors are implicit, descendants are found by range scan) of
// these expressions can need flow updates — the locality that the paper's
// incremental cases (1)–(5) exploit.
type touchedSet map[topo.NodeID]map[dz.Expr]bool

func (t touchedSet) mark(sw topo.NodeID, e dz.Expr) {
	m := t[sw]
	if m == nil {
		m = make(map[dz.Expr]bool)
		t[sw] = m
	}
	m[e] = true
}

// pathKey identifies one established path: publisher → subscriber on tree.
type pathKey struct {
	pub, sub string
	tree     TreeID
}

// path is one established path: its route along the tree and the subspaces
// forwarded over it. Its contributions are the cross product exprs × hops.
type path struct {
	hops []topo.Hop
	// exprs lists the subspaces as they were added, de-duplicated and never
	// canonicalised: flows are derived per contributed expression, so
	// merging siblings here would change the FlowMods.
	exprs []dz.Expr
}

// contribState is the controller's view of all established paths: one
// record per path, and the per-switch aggregates flow derivation reads.
type contribState struct {
	paths map[pathKey]*path
	// refs aggregates per switch: expr -> port -> number of live
	// (path, expr) contributions.
	refs map[topo.NodeID]map[dz.Expr]map[openflow.PortID]int
	// sorted keeps each switch's direct expressions in lexicographic
	// order; descendants of a prefix form a contiguous range.
	sorted map[topo.NodeID][]dz.Expr
}

func newContribState() *contribState {
	return &contribState{
		paths:  make(map[pathKey]*path),
		refs:   make(map[topo.NodeID]map[dz.Expr]map[openflow.PortID]int),
		sorted: make(map[topo.NodeID][]dz.Expr),
	}
}

// incr counts one contribution of e on hop, marking the expression as
// touched when the (expr, port) pair became newly visible on the switch.
func (cs *contribState) incr(hop topo.Hop, e dz.Expr, touched touchedSet) {
	exprs := cs.refs[hop.Switch]
	if exprs == nil {
		exprs = make(map[dz.Expr]map[openflow.PortID]int)
		cs.refs[hop.Switch] = exprs
	}
	ports := exprs[e]
	if ports == nil {
		ports = make(map[openflow.PortID]int)
		exprs[e] = ports
		cs.insertSorted(hop.Switch, e)
	}
	if ports[hop.OutPort]++; ports[hop.OutPort] == 1 {
		touched.mark(hop.Switch, e)
	}
}

// decr drops one contribution counted by incr.
func (cs *contribState) decr(hop topo.Hop, e dz.Expr, touched touchedSet) {
	exprs := cs.refs[hop.Switch]
	ports := exprs[e]
	if ports[hop.OutPort]--; ports[hop.OutPort] <= 0 {
		delete(ports, hop.OutPort)
		touched.mark(hop.Switch, e)
	}
	if len(ports) == 0 {
		delete(exprs, e)
		cs.deleteSorted(hop.Switch, e)
	}
	if len(exprs) == 0 {
		delete(cs.refs, hop.Switch)
	}
}

// removePath tears down one path if it is established.
func (cs *contribState) removePath(key pathKey, touched touchedSet) {
	p := cs.paths[key]
	if p == nil {
		return
	}
	delete(cs.paths, key)
	for _, e := range p.exprs {
		for _, hop := range p.hops {
			cs.decr(hop, e, touched)
		}
	}
}

func (cs *contribState) insertSorted(sw topo.NodeID, e dz.Expr) {
	i, _ := slices.BinarySearch(cs.sorted[sw], e)
	cs.sorted[sw] = slices.Insert(cs.sorted[sw], i, e)
}

func (cs *contribState) deleteSorted(sw topo.NodeID, e dz.Expr) {
	if i, ok := slices.BinarySearch(cs.sorted[sw], e); ok {
		cs.sorted[sw] = slices.Delete(cs.sorted[sw], i, i+1)
	}
}

// descendants appends to out every direct expression of sw that e strictly
// or non-strictly covers.
func (cs *contribState) descendants(sw topo.NodeID, e dz.Expr, out map[dz.Expr]bool) {
	s := cs.sorted[sw]
	for i, _ := slices.BinarySearch(s, e); i < len(s); i++ {
		if !strings.HasPrefix(string(s[i]), string(e)) {
			break
		}
		out[s[i]] = true
	}
}

// addPathContributions adds exprs to the (publisher, subscriber, tree) path,
// establishing it along the tree route on first use. The route is fixed
// while the record lives: t.span only changes in mergeTrees and
// RebuildTrees, which drop the tree's paths first.
func (c *Controller) addPathContributions(t *tree, pub *publisher, sub *subscriber,
	exprs dz.Set, touched touchedSet, rep *ReconfigReport) error {
	if exprs.IsEmpty() {
		return nil
	}
	key := pathKey{pub: pub.id, sub: sub.id, tree: t.id}
	p := c.contribs.paths[key]
	if p == nil {
		hops, err := c.routeHops(t, pub.ep, sub.ep)
		if err != nil {
			return err
		}
		p = &path{hops: hops}
		c.contribs.paths[key] = p
	}
	rep.RoutesComputed++
	had := p.exprs // members of one set are distinct: only earlier calls can repeat
	for _, e := range exprs {
		if slices.Contains(had, e) {
			continue
		}
		p.exprs = append(p.exprs, e)
		for _, hop := range p.hops {
			c.contribs.incr(hop, e, touched)
		}
	}
	return nil
}

// routeHops computes the (switch, out-port) sequence between two endpoints
// along the tree. Virtual endpoints sit on a border switch and extend the
// route with the cross-partition exit port.
func (c *Controller) routeHops(t *tree, from, to endpoint) ([]topo.Hop, error) {
	if from.node == to.node && !from.virtual() && !to.virtual() {
		// Publisher and subscriber share a host: the spanning-tree path
		// degenerates to the host alone, but the packet still crosses the
		// access link, so program the access switch to hairpin it back down
		// the same port. Without this hop a colocated subscriber never
		// receives anything.
		sw, err := c.g.AttachedSwitch(from.node)
		if err != nil {
			return nil, fmt.Errorf("core: route on tree %d: %w", t.id, err)
		}
		port, ok := c.g.PortTowards(sw, from.node)
		if !ok {
			return nil, fmt.Errorf("core: no port from switch %d towards host %d", sw, from.node)
		}
		return []topo.Hop{{Switch: sw, OutPort: port}}, nil
	}
	path, err := t.span.PathBetween(from.node, to.node)
	if err != nil {
		return nil, fmt.Errorf("core: route on tree %d: %w", t.id, err)
	}
	hops, err := c.g.RouteHops(path)
	if err != nil {
		return nil, fmt.Errorf("core: route hops: %w", err)
	}
	if to.virtual() {
		hops = append(hops, topo.Hop{Switch: to.node, OutPort: to.viaPort})
	}
	return hops, nil
}

// portSet is a small set of out-ports.
type portSet map[openflow.PortID]bool

func (p portSet) equal(o portSet) bool {
	if len(p) != len(o) {
		return false
	}
	for port := range p {
		if !o[port] {
			return false
		}
	}
	return true
}

// desiredEntry derives the canonical flow entry of one expression: the
// union of the direct ports of every covering (prefix) contribution
// including itself; nil when the expression has no direct contribution or
// when the entry duplicates its nearest strictly-coarser entry (pruned,
// cf. case (2) of Section 3.3.2).
func desiredEntry(direct map[dz.Expr]map[openflow.PortID]int, x dz.Expr,
	memo map[dz.Expr]portSet) portSet {
	if _, present := direct[x]; !present {
		return nil
	}
	want := unionOfPrefixes(direct, x, memo)
	for l := x.Len() - 1; l >= 0; l-- {
		if _, ok := direct[x[:l]]; !ok {
			continue
		}
		if unionOfPrefixes(direct, x[:l], memo).equal(want) {
			return nil // redundant: the coarser entry forwards identically
		}
		break
	}
	return want
}

// unionOfPrefixes unions the direct port sets of every prefix of x
// (including x itself).
func unionOfPrefixes(direct map[dz.Expr]map[openflow.PortID]int, x dz.Expr,
	memo map[dz.Expr]portSet) portSet {
	if u, ok := memo[x]; ok {
		return u
	}
	u := make(portSet)
	for l := 0; l <= x.Len(); l++ {
		if ports, ok := direct[x[:l]]; ok {
			for p := range ports {
				u[p] = true
			}
		}
	}
	memo[x] = u
	return u
}

// desiredTable derives the full canonical flow table of one switch. It is
// the oracle the incremental refresh is verified against (VerifyTables);
// the hot path uses refreshSwitch instead.
func (c *Controller) desiredTable(sw topo.NodeID) map[dz.Expr]portSet {
	direct := c.contribs.refs[sw]
	if len(direct) == 0 {
		return nil
	}
	memo := make(map[dz.Expr]portSet, len(direct))
	entries := make(map[dz.Expr]portSet, len(direct))
	for e := range direct {
		if want := desiredEntry(direct, e, memo); want != nil {
			entries[e] = want
		}
	}
	return entries
}

// actionsFor converts a port set into an OpenFlow instruction set, adding
// the terminal destination rewrite on host-facing ports.
func (c *Controller) actionsFor(sw topo.NodeID, ports portSet) []openflow.Action {
	actions := make([]openflow.Action, 0, len(ports))
	for _, port := range sortutil.Keys(ports) {
		a := openflow.Action{OutPort: port}
		if peer, ok := c.g.PortToPeer(sw, port); ok {
			if n, err := c.g.Node(peer); err == nil && n.Kind == topo.KindHost {
				a.SetDest = c.hostAddr(peer)
			}
		}
		actions = append(actions, a)
	}
	return actions
}

func actionsEqual(a, b []openflow.Action) bool {
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

// refreshSwitch reconciles the flows of one switch for the expressions
// whose contributions changed. Affected entries are exactly the changed
// expressions and their direct descendants: an entry's port union depends
// only on its prefixes, and its pruning decision on its nearest coarser
// entry, so changes never propagate outside the prefix family.
//
// All FlowMods the switch owes are collected into one batch and flushed in
// a single southbound call when the programmer supports batching. It only
// reads shared controller state (contribs, graph) and writes the
// per-switch inst map and the caller's report, so refresh may run it
// concurrently for distinct switches.
func (c *Controller) refreshSwitch(sw topo.NodeID, changed map[dz.Expr]bool,
	inst map[dz.Expr]installedFlow, rep *ReconfigReport) error {
	direct := c.contribs.refs[sw]
	affected := make(map[dz.Expr]bool, len(changed)*2)
	for e := range changed {
		affected[e] = true
		c.contribs.descendants(sw, e, affected)
	}
	memo := make(map[dz.Expr]portSet, len(affected))
	exprs := sortutil.Keys(affected)

	ops := make([]openflow.FlowOp, 0, len(exprs))
	metas := make([]opMeta, 0, len(exprs))
	for _, e := range exprs {
		want := desiredEntry(direct, e, memo)
		fl, installed := inst[e]
		switch {
		case want == nil && installed:
			// Distinguish the Algorithm-1 outcome: an entry whose direct
			// contributions vanished is a plain delete; one that still has
			// direct contributions was pruned because a coarser entry now
			// forwards identically (the paper's containment case).
			if _, hasDirect := direct[e]; hasDirect {
				c.inst.caseCovered.Inc()
			} else {
				c.inst.caseDelete.Inc()
			}
			ops = append(ops, openflow.DeleteOp(fl.id))
			metas = append(metas, opMeta{expr: e})
		case want != nil && !installed:
			c.inst.caseInstall.Inc()
			actions := c.actionsFor(sw, want)
			prio := e.Len()
			f, err := openflow.NewFlow(e, prio, actions...)
			if err != nil {
				return fmt.Errorf("core: build flow: %w", err)
			}
			ops = append(ops, openflow.AddOp(f))
			metas = append(metas, opMeta{expr: e, inst: installedFlow{priority: prio, actions: actions}})
		case want != nil && installed:
			actions := c.actionsFor(sw, want)
			prio := e.Len()
			if fl.priority != prio || !actionsEqual(fl.actions, actions) {
				// A grown instruction set extends the entry to more ports;
				// a shrunken one is the downgrade of Section 3.3.3.
				switch {
				case len(actions) > len(fl.actions):
					c.inst.caseExtend.Inc()
				case len(actions) < len(fl.actions):
					c.inst.caseDowngrade.Inc()
				default:
					c.inst.caseModify.Inc()
				}
				ops = append(ops, openflow.ModifyOp(fl.id, prio, actions))
				metas = append(metas, opMeta{expr: e, inst: installedFlow{id: fl.id, priority: prio, actions: actions}})
			}
		}
	}
	return c.flushOps(sw, ops, metas, inst, rep)
}

// opMeta pairs one batch op with the installed-state update to apply once
// the op is known to have taken effect on the switch.
type opMeta struct {
	expr dz.Expr
	// inst is the entry to store for adds/modifies (the add's flow ID is
	// filled in from the programmer's result); unused for deletes.
	inst installedFlow
}

// ackedOp is one southbound operation the switch acknowledged: its kind,
// the installed-state update it implies, and — for adds only — the
// switch-assigned flow ID. Carrying the outcome in a typed record (instead
// of a parallel []FlowID with placeholder zeros for deletes/modifies)
// makes the acknowledged prefix unambiguous: an add of real FlowID 0 can
// never be confused with a delete's placeholder.
type ackedOp struct {
	kind openflow.OpKind
	meta opMeta
	id   openflow.FlowID // valid only for adds
}

// flushOps ships the FlowMods of one switch southbound — as a single batch
// when the programmer supports it, one call per op otherwise — retrying
// transient failures per the controller's RetryPolicy, and applies the
// corresponding installed-state updates for every op that took effect.
//
// Error semantics: permanent programmer errors surface as a
// *SouthboundError (the acknowledged prefix is still recorded). Transient
// errors that survive every retry do NOT fail the control operation;
// instead the switch is quarantined in the degraded set — its table now
// lags the canonical state — and the next resync pass heals it.
func (c *Controller) flushOps(sw topo.NodeID, ops []openflow.FlowOp, metas []opMeta,
	inst map[dz.Expr]installedFlow, rep *ReconfigReport) error {
	if len(ops) == 0 {
		return nil
	}
	if c.replaying {
		// Journal replay rebuilds desired state only. The switches the
		// standby inherits already executed the dead controller's FlowMods
		// (with switch-assigned flow IDs this incarnation never saw), so
		// replay ships nothing southbound and leaves the installed view
		// stale; the takeover resync rebuilds it from the switches' actual
		// flows, adopting their IDs.
		return nil
	}
	acked := make([]ackedOp, 0, len(ops))
	err := c.programWithRetry(sw, ops, metas, &acked, rep)
	// Record exactly the ops the switch acknowledged. The lifetime FlowMod
	// counters move here too — per acknowledged op, in both the refresh and
	// the resync path — so they stay the single source the Stats view and
	// the metrics exposition read.
	for _, a := range acked {
		switch a.kind {
		case openflow.OpAdd:
			m := a.meta.inst
			m.id = a.id
			inst[a.meta.expr] = m
			rep.FlowAdds++
			c.inst.flowAdds.Inc()
		case openflow.OpDelete:
			delete(inst, a.meta.expr)
			rep.FlowDeletes++
			c.inst.flowDeletes.Inc()
		case openflow.OpModify:
			inst[a.meta.expr] = a.meta.inst
			rep.FlowModifies++
			c.inst.flowModifies.Inc()
		}
	}
	if len(acked) > 0 {
		c.inst.swFlowMods.With(swLabel(sw)).Add(uint64(len(acked)))
		if sp := c.span; sp != nil {
			sp.Event("programmed", "switch", swLabel(sw), "ops", strconv.Itoa(len(acked)))
		}
	}
	return err
}

// programWithRetry drives the southbound attempts of one flush: each
// attempt ships the still-pending suffix, acknowledged ops accumulate in
// acked, and transient failures back off exponentially (capped, within
// the per-operation deadline) before retrying. On exhaustion the switch
// is quarantined and nil is returned; permanent errors return immediately
// as a *SouthboundError.
func (c *Controller) programWithRetry(sw topo.NodeID, ops []openflow.FlowOp, metas []opMeta,
	acked *[]ackedOp, rep *ReconfigReport) error {
	pol := c.retry.normalized()
	attempts := 0
	var waited time.Duration
	for {
		n, err := c.programOnce(sw, ops, metas, acked, rep)
		attempts++
		ops, metas = ops[n:], metas[n:]
		if err == nil || len(ops) == 0 {
			// A programmer that errors after acknowledging every op has
			// still applied the whole flush; treat it as success.
			return nil
		}
		serr := &SouthboundError{
			Sw:        sw,
			Op:        ops[0].Kind,
			Attempts:  attempts,
			Transient: isTransient(err),
			Err:       err,
		}
		if !serr.Transient {
			return serr
		}
		if attempts < pol.MaxAttempts {
			d := pol.backoff(attempts - 1)
			if pol.OpDeadline <= 0 || waited+d <= pol.OpDeadline {
				waited += d
				if d > 0 {
					pol.sleep(d)
				}
				rep.Retries++
				c.inst.retries.Inc()
				c.inst.swRetries.With(swLabel(sw)).Inc()
				continue
			}
		}
		// Retries exhausted (attempt budget or deadline): quarantine the
		// switch instead of failing the whole control operation. The
		// unacknowledged remainder counts as abandoned FlowMods.
		c.inst.swFailures.With(swLabel(sw)).Add(uint64(len(ops)))
		c.quarantine(sw, serr, rep)
		return nil
	}
}

// programOnce ships the pending ops once — one batch call or a sequence of
// per-op calls — and appends one typed ackedOp per acknowledged operation.
// It returns how many ops the switch acknowledged in this attempt.
func (c *Controller) programOnce(sw topo.NodeID, ops []openflow.FlowOp, metas []opMeta,
	acked *[]ackedOp, rep *ReconfigReport) (int, error) {
	if c.batch != nil {
		rep.SouthboundCalls++
		c.inst.southboundCalls.Inc()
		ids, err := c.batch.ApplyBatch(sw, ops)
		for i := range ids {
			a := ackedOp{kind: ops[i].Kind, meta: metas[i]}
			if ops[i].Kind == openflow.OpAdd {
				a.id = ids[i]
			}
			*acked = append(*acked, a)
		}
		return len(ids), err
	}
	for i, op := range ops {
		rep.SouthboundCalls++
		c.inst.southboundCalls.Inc()
		var (
			id  openflow.FlowID
			err error
		)
		switch op.Kind {
		case openflow.OpAdd:
			id, err = c.prog.AddFlow(sw, op.Flow)
		case openflow.OpDelete:
			err = c.prog.DeleteFlow(sw, op.ID)
		case openflow.OpModify:
			err = c.prog.ModifyFlow(sw, op.ID, op.Priority, op.Actions)
		}
		if err != nil {
			return i, err
		}
		*acked = append(*acked, ackedOp{kind: op.Kind, meta: metas[i], id: id})
	}
	return len(ops), nil
}

// quarantine moves a switch into the degraded set. Safe to call from
// concurrent refresh workers (distinct switches).
func (c *Controller) quarantine(sw topo.NodeID, err error, rep *ReconfigReport) {
	c.degradedMu.Lock()
	if _, already := c.degraded[sw]; !already {
		rep.Quarantined++
		c.inst.quarantines.Inc()
	}
	c.degraded[sw] = err
	c.degradedMu.Unlock()
	if sp := c.span; sp != nil {
		sp.Event("quarantined", "switch", swLabel(sw), "err", err.Error())
	}
	if c.log != nil {
		c.log.Warn("switch quarantined", "switch", int(sw), "err", err)
	}
}

// refresh reconciles every touched switch. The per-switch work is disjoint
// — refreshSwitch only reads shared state and owns its switch's installed
// map — so it fans out across a bounded worker pool; per-worker reports
// merge into rep (and the lifetime stats) afterwards, keeping counters
// deterministic regardless of interleaving. On failure the error of the
// lowest-numbered switch is returned, matching the serial order.
func (c *Controller) refresh(touched touchedSet, rep *ReconfigReport) error {
	if len(touched) == 0 {
		return nil
	}
	sws := sortutil.Keys(touched)

	// Pre-create the per-switch installed maps serially: map writes on
	// c.installed must not race with the fan-out below.
	insts := make([]map[dz.Expr]installedFlow, len(sws))
	for i, sw := range sws {
		inst := c.installed[sw]
		if inst == nil {
			inst = make(map[dz.Expr]installedFlow)
			c.installed[sw] = inst
		}
		insts[i] = inst
	}

	workers := c.refreshWorkers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(sws) {
		workers = len(sws)
	}

	var err error
	var agg ReconfigReport
	if workers <= 1 {
		for i, sw := range sws {
			if err = c.refreshSwitch(sw, touched[sw], insts[i], &agg); err != nil {
				break
			}
		}
	} else {
		reps := make([]ReconfigReport, len(sws))
		errs := make([]error, len(sws))
		sem := make(chan struct{}, workers)
		var wg sync.WaitGroup
		for i := range sws {
			wg.Add(1)
			sem <- struct{}{}
			go func(i int) {
				defer wg.Done()
				defer func() { <-sem }()
				errs[i] = c.refreshSwitch(sws[i], touched[sws[i]], insts[i], &reps[i])
			}(i)
		}
		wg.Wait()
		for i := range sws {
			agg.FlowAdds += reps[i].FlowAdds
			agg.FlowDeletes += reps[i].FlowDeletes
			agg.FlowModifies += reps[i].FlowModifies
			agg.SouthboundCalls += reps[i].SouthboundCalls
			agg.Retries += reps[i].Retries
			agg.Quarantined += reps[i].Quarantined
			if err == nil && errs[i] != nil {
				err = errs[i]
			}
		}
	}

	// Merge the (possibly partial) refresh outcome into the operation
	// report (the lifetime counters were already incremented at the flush
	// sites), then drop empty table entries.
	rep.FlowAdds += agg.FlowAdds
	rep.FlowDeletes += agg.FlowDeletes
	rep.FlowModifies += agg.FlowModifies
	rep.SouthboundCalls += agg.SouthboundCalls
	rep.Retries += agg.Retries
	rep.Quarantined += agg.Quarantined
	for _, sw := range sws {
		if len(c.installed[sw]) == 0 {
			delete(c.installed, sw)
		}
	}
	return err
}

// VerifyTables cross-checks the incrementally maintained flow state
// against the full canonical derivation; it is used by tests and returns
// the first inconsistency found. It takes the read lock, so it sees a
// consistent snapshot even while control operations churn concurrently.
func (c *Controller) VerifyTables() error {
	c.mu.RLock()
	defer c.mu.RUnlock()
	// Every switch with installed flows or contributions must agree.
	seen := make(map[topo.NodeID]bool)
	for sw := range c.installed {
		seen[sw] = true
	}
	for sw := range c.contribs.refs {
		seen[sw] = true
	}
	for _, sw := range sortutil.Keys(seen) {
		want := c.desiredTable(sw)
		have := c.installed[sw]
		if len(want) != len(have) {
			return fmt.Errorf("core: switch %d has %d flows, canonical says %d", sw, len(have), len(want))
		}
		for e, ports := range want {
			fl, ok := have[e]
			if !ok {
				return fmt.Errorf("core: switch %d misses flow %s", sw, e)
			}
			actions := c.actionsFor(sw, ports)
			if fl.priority != e.Len() || !actionsEqual(fl.actions, actions) {
				return fmt.Errorf("core: switch %d flow %s diverges from canonical", sw, e)
			}
		}
		// When the programmer can report ground truth, extend the check
		// down to the switch's actual table: every installed entry must be
		// present there unchanged, with no stray extras.
		if c.reader == nil {
			continue
		}
		flows, err := c.reader.Flows(sw)
		if err != nil {
			return fmt.Errorf("core: switch %d: read flows: %w", sw, err)
		}
		if len(flows) != len(have) {
			return fmt.Errorf("core: switch %d table has %d flows, controller installed %d", sw, len(flows), len(have))
		}
		for _, f := range flows {
			fl, ok := have[f.Expr]
			if !ok {
				return fmt.Errorf("core: switch %d has stray flow %s", sw, f.Expr)
			}
			if fl.id != f.ID || fl.priority != f.Priority || !actionsEqual(fl.actions, f.Actions) {
				return fmt.Errorf("core: switch %d flow %s diverges from installed state", sw, f.Expr)
			}
		}
	}
	return nil
}

// InstalledFlowCount returns the number of flows the controller currently
// has programmed across all switches (the TCAM budget of requirement 3).
func (c *Controller) InstalledFlowCount() int {
	c.mu.RLock()
	defer c.mu.RUnlock()
	total := 0
	for _, m := range c.installed {
		total += len(m)
	}
	return total
}

// InstalledFlowsOn returns the match expressions programmed on one switch,
// sorted — used by tests and the dzcalc tool.
func (c *Controller) InstalledFlowsOn(sw topo.NodeID) []dz.Expr {
	c.mu.RLock()
	defer c.mu.RUnlock()
	m := c.installed[sw]
	return sortutil.Keys(m)
}
