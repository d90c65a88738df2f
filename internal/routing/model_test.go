package routing

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/cluster"
	"repro/internal/faults"
	"repro/internal/mobility"
	"repro/internal/netsim"
)

// modelIntraDV is the reference form of IntraDV: the same DSDV protocol
// with one hash map of entries and one of soft-state leases per node,
// so every lookup is by key and no code depends on row order. The
// differential test holds IntraDV's Dest-sorted tables and merge-join
// fold to it.
type modelIntraDV struct {
	cl        *cluster.Maintainer
	entryBits float64

	env      netsim.Env
	tables   []map[netsim.NodeID]Entry
	ownSeq   []uint32
	dirty    []bool
	prevHead []netsim.NodeID
	advSeq   []uint32
	filter   *netsim.SeqFilter

	softTTL     float64
	softRefresh float64
	refreshed   []map[netsim.NodeID]float64
	lastAdv     []float64
}

func (dv *modelIntraDV) Name() string { return "routing/intra-dv-model" }

func (dv *modelIntraDV) Start(env netsim.Env) error {
	dv.env = env
	n := env.NumNodes()
	dv.tables = make([]map[netsim.NodeID]Entry, n)
	dv.ownSeq = make([]uint32, n)
	dv.dirty = make([]bool, n)
	dv.prevHead = make([]netsim.NodeID, n)
	dv.advSeq = make([]uint32, n)
	dv.filter = netsim.NewSeqFilter(n)
	if dv.softTTL > 0 {
		dv.refreshed = make([]map[netsim.NodeID]float64, n)
		dv.lastAdv = make([]float64, n)
		for i := range dv.refreshed {
			dv.refreshed[i] = make(map[netsim.NodeID]float64)
		}
	}
	for i := 0; i < n; i++ {
		dv.prevHead[i] = dv.cl.HeadOf(netsim.NodeID(i))
		id := netsim.NodeID(i)
		dv.tables[i] = map[netsim.NodeID]Entry{
			id: {Dest: id, NextHop: id, Metric: 0, Seq: 0},
		}
		dv.advertise(id)
	}
	return nil
}

func (dv *modelIntraDV) OnLinkEvent(ev netsim.LinkEvent) {
	if !ev.Up {
		dv.poison(ev.A, ev.B)
		dv.poison(ev.B, ev.A)
	}
	dv.dirty[ev.A] = true
	dv.dirty[ev.B] = true
}

func (dv *modelIntraDV) poison(at, lost netsim.NodeID) {
	tbl := dv.tables[at]
	for dest, e := range tbl {
		if dest != at && e.NextHop == lost && e.Metric < InfMetric {
			e.Metric = InfMetric
			e.Seq++
			tbl[dest] = e
		}
	}
}

func (dv *modelIntraDV) OnMessage(rcv netsim.NodeID, msg netsim.Message) {
	if msg.Kind != netsim.MsgRoute {
		return
	}
	ad, ok := msg.Payload.(vectorAd)
	if !ok {
		return
	}
	if !dv.filter.Fresh(rcv, msg.From, msg.Seq) {
		return
	}
	if !dv.env.IsNeighbor(rcv, msg.From) {
		return
	}
	if dv.cl.HeadOf(rcv) != ad.Cluster || dv.cl.HeadOf(msg.From) != ad.Cluster {
		return
	}
	changed := false
	tbl := dv.tables[rcv]
	for _, row := range ad.Rows {
		if row.Dest == rcv {
			if row.Seq > dv.ownSeq[rcv] {
				dv.ownSeq[rcv] = row.Seq + 2 - row.Seq%2
				tbl[rcv] = Entry{Dest: rcv, NextHop: rcv, Metric: 0, Seq: dv.ownSeq[rcv]}
				changed = true
			}
			continue
		}
		cand := Entry{Dest: row.Dest, NextHop: msg.From, Metric: row.Metric + 1, Seq: row.Seq}
		if cand.Metric > InfMetric {
			cand.Metric = InfMetric
		}
		cur, exists := tbl[row.Dest]
		if !exists || cand.Seq > cur.Seq || (cand.Seq == cur.Seq && cand.Metric < cur.Metric) {
			tbl[row.Dest] = cand
			if cand != cur {
				changed = true
			}
		}
		if dv.softTTL > 0 {
			if e := tbl[row.Dest]; e.NextHop == msg.From && e.Metric < InfMetric {
				dv.refreshed[rcv][row.Dest] = dv.env.Now()
			}
		}
	}
	if changed {
		dv.advertise(rcv)
	}
}

func (dv *modelIntraDV) OnTick(now float64) {
	n := dv.env.NumNodes()
	for i := 0; i < n; i++ {
		id := netsim.NodeID(i)
		own := dv.cl.HeadOf(id)
		if own != dv.prevHead[i] {
			dv.prevHead[i] = own
			dv.dirty[i] = true
		}
		tbl := dv.tables[i]
		for dest := range tbl {
			if dest != id && dv.cl.HeadOf(dest) != own {
				delete(tbl, dest)
				if dv.softTTL > 0 {
					delete(dv.refreshed[i], dest)
				}
				dv.dirty[i] = true
			}
		}
		if dv.softTTL > 0 {
			dv.expireStale(id, now)
			if now-dv.lastAdv[i] >= dv.softRefresh {
				dv.dirty[i] = true
			}
		}
		if dv.dirty[i] {
			dv.dirty[i] = false
			dv.ownSeq[i] += 2
			tbl[id] = Entry{Dest: id, NextHop: id, Metric: 0, Seq: dv.ownSeq[i]}
			dv.advertise(id)
		}
	}
}

func (dv *modelIntraDV) expireStale(at netsim.NodeID, now float64) {
	tbl := dv.tables[at]
	for dest, e := range tbl {
		if dest == at || e.Metric >= InfMetric {
			continue
		}
		if now-dv.refreshed[at][dest] > dv.softTTL {
			e.Metric = InfMetric
			if e.Seq%2 == 0 {
				e.Seq++
			}
			tbl[dest] = e
			delete(dv.refreshed[at], dest)
			dv.dirty[at] = true
		}
	}
}

// advertise sends the rows in map order, so an adoption rule that
// depended on row order would make the two implementations diverge.
func (dv *modelIntraDV) advertise(from netsim.NodeID) {
	if dv.softTTL > 0 {
		dv.lastAdv[from] = dv.env.Now()
	}
	tbl := dv.tables[from]
	rows := make([]Entry, 0, len(tbl))
	for _, e := range tbl {
		rows = append(rows, e)
	}
	dv.advSeq[from]++
	dv.env.Broadcast(netsim.Message{
		Kind:    netsim.MsgRoute,
		From:    from,
		Bits:    dv.entryBits * float64(len(rows)),
		Seq:     dv.advSeq[from],
		Payload: vectorAd{Cluster: dv.cl.HeadOf(from), Rows: rows},
	})
}

func (dv *modelIntraDV) Lookup(at, dest netsim.NodeID) (Entry, bool) {
	e, ok := dv.tables[at][dest]
	if !ok || e.Metric >= InfMetric {
		return Entry{}, false
	}
	return e, true
}

func (dv *modelIntraDV) TableSize(at netsim.NodeID) int {
	count := 0
	for _, e := range dv.tables[at] {
		if e.Metric < InfMetric {
			count++
		}
	}
	return count
}

// modelHello is the reference form of Hello: one hash map per node from
// heard neighbor to the time its beacon was last heard.
type modelHello struct {
	mode     HelloMode
	bits     float64
	interval float64
	timeout  float64

	env      netsim.Env
	lastSent float64
	heard    []map[netsim.NodeID]float64
	seqOut   []uint32
	filter   *netsim.SeqFilter
}

func (h *modelHello) Name() string { return "hello-model" }

func (h *modelHello) Start(env netsim.Env) error {
	h.env = env
	h.heard = make([]map[netsim.NodeID]float64, env.NumNodes())
	for i := range h.heard {
		h.heard[i] = make(map[netsim.NodeID]float64)
	}
	h.seqOut = make([]uint32, env.NumNodes())
	h.filter = netsim.NewSeqFilter(env.NumNodes())
	for i := 0; i < env.NumNodes(); i++ {
		h.beacon(netsim.NodeID(i), false)
	}
	return nil
}

func (h *modelHello) OnLinkEvent(ev netsim.LinkEvent) {
	if h.mode != HelloOnLinkGen {
		return
	}
	if ev.Up {
		h.beacon(ev.A, ev.Border)
		h.beacon(ev.B, ev.Border)
	} else {
		delete(h.heard[ev.A], ev.B)
		delete(h.heard[ev.B], ev.A)
	}
}

func (h *modelHello) OnMessage(rcv netsim.NodeID, msg netsim.Message) {
	if msg.Kind != netsim.MsgHello {
		return
	}
	if !h.filter.Fresh(rcv, msg.From, msg.Seq) {
		return
	}
	if !h.env.IsNeighbor(rcv, msg.From) {
		return
	}
	h.heard[rcv][msg.From] = h.env.Now()
}

func (h *modelHello) OnTick(now float64) {
	if h.mode != HelloPeriodic {
		return
	}
	if now-h.lastSent >= h.interval {
		h.lastSent = now
		for i := 0; i < h.env.NumNodes(); i++ {
			h.beacon(netsim.NodeID(i), false)
		}
	}
	for _, tbl := range h.heard {
		for nb, t := range tbl {
			if now-t > h.timeout {
				delete(tbl, nb)
			}
		}
	}
}

func (h *modelHello) beacon(from netsim.NodeID, border bool) {
	h.seqOut[from]++
	h.env.Broadcast(netsim.Message{
		Kind:   netsim.MsgHello,
		From:   from,
		Bits:   h.bits,
		Border: border,
		Seq:    h.seqOut[from],
	})
}

func (h *modelHello) Knows(a, b netsim.NodeID) bool {
	_, ok := h.heard[a][b]
	return ok
}

func (h *modelHello) TableSize(id netsim.NodeID) int { return len(h.heard[id]) }

// routeTables and neighborTables are the observable surfaces the
// differential test compares.
type routeTables interface {
	netsim.Protocol
	Lookup(at, dest netsim.NodeID) (Entry, bool)
	TableSize(at netsim.NodeID) int
}

type neighborTables interface {
	netsim.Protocol
	Knows(a, b netsim.NodeID) bool
	TableSize(id netsim.NodeID) int
}

// dvProbe runs an IntraDV and records which of its table-mutating paths
// fired, by comparing the tables around each callback. It also checks,
// through the Env it hands the protocol, that every advert it
// broadcasts lists its rows in strictly increasing Dest order.
type dvProbe struct {
	*IntraDV
	t      *testing.T
	fired  map[string]int
	before [][]dvRow
}

// adTap is the Env an IntraDV under dvProbe broadcasts through.
type adTap struct {
	netsim.Env
	p *dvProbe
}

func (a adTap) Broadcast(msg netsim.Message) {
	if ad, ok := msg.Payload.(vectorAd); ok {
		for k := 1; k < len(ad.Rows); k++ {
			if ad.Rows[k-1].Dest >= ad.Rows[k].Dest {
				a.p.t.Fatalf("advert from %d not strictly Dest-increasing at row %d: %v", msg.From, k, ad.Rows)
			}
		}
		a.p.fired["sorted advert"]++
	}
	a.Env.Broadcast(msg)
}

func (p *dvProbe) Start(env netsim.Env) error {
	return p.IntraDV.Start(adTap{Env: env, p: p})
}

// snap copies the tables of the given nodes into p.before.
func (p *dvProbe) snap(ids ...netsim.NodeID) {
	if p.before == nil {
		p.before = make([][]dvRow, len(p.tables))
	}
	for _, id := range ids {
		p.before[id] = append(p.before[id][:0], p.tables[id]...)
	}
}

func (p *dvProbe) OnLinkEvent(ev netsim.LinkEvent) {
	p.snap(ev.A, ev.B)
	p.IntraDV.OnLinkEvent(ev)
	p.countPoisoned("poison", ev.A, ev.B)
}

// countPoisoned counts rows of the given nodes that were live in the
// snapshot and are at InfMetric now.
func (p *dvProbe) countPoisoned(path string, ids ...netsim.NodeID) {
	for _, id := range ids {
		for _, r := range p.before[id] {
			if k, ok := findRow(p.tables[id], r.Dest); ok && r.Metric < InfMetric && p.tables[id][k].Metric >= InfMetric {
				p.fired[path]++
			}
		}
	}
}

func (p *dvProbe) OnMessage(rcv netsim.NodeID, msg netsim.Message) {
	p.snap(rcv)
	own := p.ownSeq[rcv]
	p.IntraDV.OnMessage(rcv, msg)
	if p.ownSeq[rcv] != own {
		p.fired["self row"]++
	}
	before, after := p.before[rcv], p.tables[rcv]
	last := before[len(before)-1].Dest
	for _, r := range after {
		if _, ok := findRow(before, r.Dest); !ok && r.Dest < last {
			p.fired["mid-table insert"]++
		}
	}
}

func (p *dvProbe) OnTick(now float64) {
	ids := make([]netsim.NodeID, len(p.tables))
	for i := range ids {
		ids[i] = netsim.NodeID(i)
	}
	p.snap(ids...)
	p.IntraDV.OnTick(now)
	for _, id := range ids {
		for _, r := range p.before[id] {
			if _, ok := findRow(p.tables[id], r.Dest); !ok {
				p.fired["cluster purge"]++
			}
		}
	}
	// Within OnTick only soft-state expiry turns a live row infinite.
	p.countPoisoned("soft-state expiry", ids...)
}

// diffRegime is one medium and protocol configuration of the
// differential test. A fault medium brings handshake maintenance and
// soft-state IntraDV with it, as in experiments.MeasureFaulty.
type diffRegime struct {
	name         string
	medium       *faults.Config // nil: the ideal medium
	refresh, ttl int            // soft-state periods in ticks, with a medium
	periodic     bool           // periodic rather than event-driven HELLO
	speed        float64        // node speed; 0 keeps mobileConfig's
	ticks        int            // lockstep ticks after Start (halved by -short)
}

var diffRegimes = []diffRegime{
	{name: "ideal", ticks: 400},
	// Slow nodes re-advertise mostly on the refresh timer, and a TTL of
	// 2.5 refresh periods expires a route after two lost refreshes in a
	// row, so the expiry path fires often.
	{name: "loss-churn", refresh: 4, ttl: 10, periodic: true, speed: 0.05, ticks: 400,
		medium: &faults.Config{Loss: 0.2, Churn: faults.Churn{MeanUpTicks: 600, MeanDownTicks: 60}}},
	// Delayed adverts cascade across ticks and keep every table busy, so
	// fewer ticks cover this regime.
	{name: "pipeline", refresh: 8, ttl: 32, ticks: 120,
		medium: &faults.Config{Loss: 0.05, Delay: faults.Delay{BaseTicks: 1, JitterTicks: 2}, DupProb: 0.05}},
}

// diffStack is one engine with its cluster maintainer, HELLO and
// IntraDV (the fast form or the model).
type diffStack struct {
	sim   *netsim.Sim
	cl    *cluster.Maintainer
	hello neighborTables
	dv    routeTables
}

// build wires a stack for the regime; model selects the map-based
// protocols, otherwise the fast ones (IntraDV under a probe).
func (r diffRegime) build(t *testing.T, seed uint64, model bool, probe *dvProbe) diffStack {
	t.Helper()
	cfg := mobileConfig(seed)
	if r.speed > 0 {
		cfg.Model = mobility.EpochRWP{Speed: r.speed, Epoch: 2}
	}
	dt := cfg.Dt
	retry := 0
	if r.medium != nil {
		inj, err := faults.New(*r.medium)
		if err != nil {
			t.Fatal(err)
		}
		cfg.Medium = inj
		retry = 2 + 2*int(math.Ceil(r.medium.Delay.BaseTicks+r.medium.Delay.JitterTicks))
	}
	s := newSim(t, cfg)
	cl, err := cluster.NewMaintainer(cluster.LID{}, 128)
	if err != nil {
		t.Fatal(err)
	}
	if r.medium != nil {
		if err := cl.EnableHandshake(retry); err != nil {
			t.Fatal(err)
		}
	}
	st := diffStack{sim: s, cl: cl}
	switch {
	case model && r.periodic:
		st.hello = &modelHello{mode: HelloPeriodic, bits: 64, interval: 4 * dt, timeout: 10 * dt}
	case model:
		st.hello = &modelHello{mode: HelloOnLinkGen, bits: 64}
	case r.periodic:
		st.hello, err = NewPeriodicHello(64, 4*dt)
	default:
		st.hello, err = NewHello(64)
	}
	if err != nil {
		t.Fatal(err)
	}
	if model {
		m := &modelIntraDV{cl: cl, entryBits: 32}
		if r.medium != nil {
			m.softRefresh, m.softTTL = float64(r.refresh)*dt, float64(r.ttl)*dt
		}
		st.dv = m
	} else {
		dv, err := NewIntraDV(cl, 32)
		if err != nil {
			t.Fatal(err)
		}
		if r.medium != nil {
			if err := dv.EnableSoftState(float64(r.refresh)*dt, float64(r.ttl)*dt); err != nil {
				t.Fatal(err)
			}
		}
		probe.IntraDV = dv
		st.dv = probe
	}
	if err := s.Register(st.hello, cl, st.dv); err != nil {
		t.Fatal(err)
	}
	return st
}

// diverge reports the first observable difference between the fast
// stack and the model stack, or "" if there is none.
func diverge(fast, model diffStack) string {
	if a, b := fast.sim.Tallies(), model.sim.Tallies(); a != b {
		return fmt.Sprintf("tallies %+v vs model %+v", a, b)
	}
	n := fast.sim.NumNodes()
	for i := 0; i < n; i++ {
		a := netsim.NodeID(i)
		if x, y := fast.cl.HeadOf(a), model.cl.HeadOf(a); x != y {
			return fmt.Sprintf("head of %d: %d vs model %d", a, x, y)
		}
		if x, y := fast.dv.TableSize(a), model.dv.TableSize(a); x != y {
			return fmt.Sprintf("route table size at %d: %d vs model %d", a, x, y)
		}
		if x, y := fast.hello.TableSize(a), model.hello.TableSize(a); x != y {
			return fmt.Sprintf("neighbor table size at %d: %d vs model %d", a, x, y)
		}
		for j := 0; j < n; j++ {
			b := netsim.NodeID(j)
			e1, ok1 := fast.dv.Lookup(a, b)
			e2, ok2 := model.dv.Lookup(a, b)
			if e1 != e2 || ok1 != ok2 {
				return fmt.Sprintf("Lookup(%d, %d): %+v %v vs model %+v %v", a, b, e1, ok1, e2, ok2)
			}
			if x, y := fast.hello.Knows(a, b), model.hello.Knows(a, b); x != y {
				return fmt.Sprintf("Knows(%d, %d): %v vs model %v", a, b, x, y)
			}
		}
	}
	return ""
}

// TestIntraDVMatchesMapModel is the differential oracle for the sorted
// route and neighbor tables: IntraDV and Hello run beside their
// map-based models on identical simulations (ideal medium; loss 0.2
// with churn, soft state and periodic HELLO; the delay/jitter/dup
// pipeline with soft state), and after every tick every Lookup,
// TableSize, Knows, cluster head and traffic tally must agree. Every
// advert the fast IntraDV broadcasts must list its rows in strictly
// increasing Dest order, the invariant its merge-join fold relies on.
// Across the regimes each table-mutating path of the fold must fire:
// an insert before an existing row, poisoning on a link break,
// soft-state expiry, the cluster purge and the self-row adoption.
func TestIntraDVMatchesMapModel(t *testing.T) {
	fired := map[string]int{}
	for k, r := range diffRegimes {
		t.Run(r.name, func(t *testing.T) {
			seed := uint64(41 + k)
			probe := &dvProbe{t: t, fired: map[string]int{}}
			fast := r.build(t, seed, false, probe)
			model := r.build(t, seed, true, nil)
			for _, st := range []diffStack{fast, model} {
				if err := st.sim.Start(); err != nil {
					t.Fatal(err)
				}
			}
			if d := diverge(fast, model); d != "" {
				t.Fatalf("after Start: %s", d)
			}
			ticks := r.ticks
			if testing.Short() {
				ticks /= 2
			}
			for tick := 1; tick <= ticks; tick++ {
				for _, st := range []diffStack{fast, model} {
					if err := st.sim.Step(); err != nil {
						t.Fatal(err)
					}
				}
				if d := diverge(fast, model); d != "" {
					t.Fatalf("tick %d: %s", tick, d)
				}
			}
			t.Logf("paths fired: %v", probe.fired)
			for path, n := range probe.fired {
				fired[path] += n
			}
		})
	}
	for _, path := range []string{"sorted advert", "mid-table insert", "poison", "soft-state expiry", "cluster purge", "self row"} {
		if fired[path] == 0 {
			t.Errorf("no %s in any regime", path)
		}
	}
}

// TestIntraDVNoOpFoldAllocs pins the merge-join fold's cost: once the
// tables are warm, folding an advert that changes no route allocates
// nothing. The advert repeats the sender's current vector to a
// same-cluster neighbor, so it passes every guard and the fold walks
// every row, refreshing the leases it supports.
func TestIntraDVNoOpFoldAllocs(t *testing.T) {
	s := newSim(t, mobileConfig(43))
	cl, dv := buildDVStack(t, s)
	if err := dv.EnableSoftState(0.5, 2.0); err != nil {
		t.Fatal(err)
	}
	if err := s.Run(3); err != nil {
		t.Fatal(err)
	}
	var rcv, from netsim.NodeID = -1, -1
	for i := 0; i < s.NumNodes() && rcv < 0; i++ {
		a := netsim.NodeID(i)
		for _, b := range s.Neighbors(a) {
			if cl.HeadOf(a) == cl.HeadOf(b) && len(dv.tables[a]) >= 3 && len(dv.tables[b]) >= 3 {
				rcv, from = a, b
				break
			}
		}
	}
	if rcv < 0 {
		t.Fatal("no same-cluster neighbors with three-row tables")
	}
	rows := make([]Entry, len(dv.tables[from]))
	for k, r := range dv.tables[from] {
		rows[k] = r.Entry
	}
	msg := netsim.Message{
		Kind: netsim.MsgRoute, From: from, Bits: 32 * float64(len(rows)), Seq: math.MaxUint32 / 2,
		Payload: vectorAd{Cluster: cl.HeadOf(from), Rows: rows},
	}
	for k := range dv.tables[rcv] {
		dv.tables[rcv][k].lease = -1
	}
	before := append([]dvRow(nil), dv.tables[rcv]...)
	tallies := s.Tallies()
	allocs := testing.AllocsPerRun(100, func() {
		msg.Seq++
		dv.OnMessage(rcv, msg)
	})
	if allocs != 0 {
		t.Errorf("folding an unchanged advert allocates %v times, want 0", allocs)
	}
	if s.Tallies() != tallies {
		t.Error("the fold re-advertised: the advert changed the table")
	}
	refreshed := 0
	for k, r := range dv.tables[rcv] {
		if r.Entry != before[k].Entry {
			t.Fatalf("row %d changed: %+v -> %+v", k, before[k].Entry, r.Entry)
		}
		if r.lease == s.Now() {
			refreshed++
		}
	}
	if refreshed == 0 {
		t.Error("no lease refreshed: the fold did not reach the rows")
	}
}
