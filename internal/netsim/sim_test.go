package netsim

import (
	"math"
	"sort"
	"testing"

	"repro/internal/geom"
	"repro/internal/mobility"
)

// probe is a configurable test protocol.
type probe struct {
	name    string
	started bool
	events  []LinkEvent
	rcvd    []Message
	onStart func(env Env)
	onMsg   func(env Env, rcv NodeID, msg Message)
	onEvent func(env Env, ev LinkEvent)
	env     Env
}

var _ Protocol = (*probe)(nil)

func (p *probe) Name() string { return p.name }
func (p *probe) Start(env Env) error {
	p.env = env
	p.started = true
	if p.onStart != nil {
		p.onStart(env)
	}
	return nil
}
func (p *probe) OnLinkEvent(ev LinkEvent) {
	p.events = append(p.events, ev)
	if p.onEvent != nil {
		p.onEvent(p.env, ev)
	}
}
func (p *probe) OnMessage(rcv NodeID, msg Message) {
	p.rcvd = append(p.rcvd, msg)
	if p.onMsg != nil {
		p.onMsg(p.env, rcv, msg)
	}
}
func (p *probe) OnTick(float64) {}

func staticConfig(n int) Config {
	return Config{N: n, Side: 10, Range: 2, Dt: 0.1, Seed: 1}
}

func TestNewValidation(t *testing.T) {
	bad := []Config{
		{N: 0, Side: 10, Range: 1, Dt: 0.1},
		{N: 10, Side: 0, Range: 1, Dt: 0.1},
		{N: 10, Side: 10, Range: 0, Dt: 0.1},
		{N: 10, Side: 10, Range: 1, Dt: 0},
	}
	for i, cfg := range bad {
		if _, err := New(cfg); err == nil {
			t.Errorf("config %d accepted: %+v", i, cfg)
		}
	}
	if _, err := New(Config{N: 10, Side: 10, Range: 1, Dt: 0.1,
		Model: mobility.BCV{Speed: -1}}); err == nil {
		t.Error("invalid mobility model accepted")
	}
}

func TestStaticNetworkHasNoEvents(t *testing.T) {
	s, err := New(staticConfig(50))
	if err != nil {
		t.Fatal(err)
	}
	p := &probe{name: "p"}
	if err := s.Register(p); err != nil {
		t.Fatal(err)
	}
	if err := s.Run(5); err != nil {
		t.Fatal(err)
	}
	if !p.started {
		t.Error("Start not invoked")
	}
	if len(p.events) != 0 {
		t.Errorf("static network produced %d link events", len(p.events))
	}
	ta := s.Tallies()
	if ta.LinkGen != 0 || ta.LinkBrk != 0 || ta.BorderGen != 0 || ta.BorderBrk != 0 {
		t.Errorf("static tallies nonzero: %+v", ta)
	}
}

// TestStationaryFastPathSkipsRebuild is the engine-level regression for
// the zero-motion fast path: on a static model the index must flag
// nothing after the initial build, so the per-tick topology work drops
// to the O(N) drift-budget pass — no row requeries at all.
func TestStationaryFastPathSkipsRebuild(t *testing.T) {
	s, err := New(Config{N: 80, Side: 10, Range: 2, Dt: 0.1, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	base := s.IndexStats().RequeriedRows
	if base != 80 {
		t.Fatalf("initial build requeried %d rows, want 80", base)
	}
	for i := 0; i < 50; i++ {
		if err := s.Step(); err != nil {
			t.Fatal(err)
		}
	}
	if got := s.IndexStats().RequeriedRows; got != base {
		t.Errorf("static run requeried %d additional rows, want 0", got-base)
	}
	if ta := s.Tallies(); ta.LinkGen != 0 || ta.LinkBrk != 0 {
		t.Errorf("static run produced link events: %+v", ta)
	}
}

func TestRegisterAfterStartFails(t *testing.T) {
	s, err := New(staticConfig(5))
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Start(); err != nil {
		t.Fatal(err)
	}
	if err := s.Register(&probe{name: "late"}); err == nil {
		t.Error("Register after Start accepted")
	}
	if err := s.Start(); err != nil {
		t.Errorf("Start not idempotent: %v", err)
	}
}

func TestAdjacencySymmetricSortedAndCorrect(t *testing.T) {
	s, err := New(staticConfig(120))
	if err != nil {
		t.Fatal(err)
	}
	metric, _ := geom.NewMetric(geom.MetricSquare, 10)
	for i := 0; i < s.NumNodes(); i++ {
		id := NodeID(i)
		nbs := s.Neighbors(id)
		if !sort.SliceIsSorted(nbs, func(a, b int) bool { return nbs[a] < nbs[b] }) {
			t.Fatalf("neighbors of %d not sorted: %v", i, nbs)
		}
		if s.Degree(id) != len(nbs) {
			t.Fatalf("degree mismatch for %d", i)
		}
		for _, j := range nbs {
			if !s.IsNeighbor(j, id) {
				t.Fatalf("asymmetric adjacency %d-%d", i, j)
			}
			if d := metric.Dist(s.Position(id), s.Position(j)); d > 2+1e-9 {
				t.Fatalf("neighbors %d-%d at distance %v > range", i, j, d)
			}
		}
		// Non-neighbors must be out of range.
		for j := 0; j < s.NumNodes(); j++ {
			if j == i || s.IsNeighbor(id, NodeID(j)) {
				continue
			}
			if d := metric.Dist(s.Position(id), s.Position(NodeID(j))); d <= 2 {
				t.Fatalf("missed link %d-%d at distance %v", i, j, d)
			}
		}
	}
}

func TestLinkEventsConsistentWithTopologyChanges(t *testing.T) {
	cfg := staticConfig(100)
	cfg.Model = mobility.BCV{Speed: 0.5}
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	p := &probe{name: "p"}
	if err := s.Register(p); err != nil {
		t.Fatal(err)
	}
	// Track adjacency as a set and replay events; they must reproduce
	// the engine's adjacency after every tick.
	links := map[[2]NodeID]bool{}
	snapshot := func() map[[2]NodeID]bool {
		m := map[[2]NodeID]bool{}
		for i := 0; i < s.NumNodes(); i++ {
			for _, j := range s.Neighbors(NodeID(i)) {
				if NodeID(i) < j {
					m[[2]NodeID{NodeID(i), j}] = true
				}
			}
		}
		return m
	}
	if err := s.Start(); err != nil {
		t.Fatal(err)
	}
	links = snapshot()
	for step := 0; step < 200; step++ {
		p.events = nil
		if err := s.Step(); err != nil {
			t.Fatal(err)
		}
		for _, ev := range p.events {
			if ev.A >= ev.B {
				t.Fatalf("event endpoints unordered: %+v", ev)
			}
			key := [2]NodeID{ev.A, ev.B}
			if ev.Up {
				if links[key] {
					t.Fatalf("up event for existing link %+v", ev)
				}
				links[key] = true
			} else {
				if !links[key] {
					t.Fatalf("down event for missing link %+v", ev)
				}
				delete(links, key)
			}
		}
		want := snapshot()
		if len(links) != len(want) {
			t.Fatalf("step %d: replay has %d links, engine %d", step, len(links), len(want))
		}
		for k := range want {
			if !links[k] {
				t.Fatalf("step %d: missing link %v in replay", step, k)
			}
		}
	}
}

func TestBorderEventsFlaggedOnSquareAbsentOnTorus(t *testing.T) {
	run := func(kind geom.MetricKind) (border, normal float64) {
		cfg := Config{N: 150, Side: 10, Range: 1.5, Dt: 0.05, Seed: 3,
			Metric: kind, Model: mobility.BCV{Speed: 1}}
		s, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if err := s.Run(40); err != nil {
			t.Fatal(err)
		}
		ta := s.Tallies()
		return ta.BorderGen + ta.BorderBrk, ta.LinkGen + ta.LinkBrk
	}
	border, normal := run(geom.MetricSquare)
	if border == 0 {
		t.Error("square metric: expected border (teleport) events")
	}
	if normal == 0 {
		t.Error("square metric: expected range-crossing events")
	}
	borderTorus, normalTorus := run(geom.MetricTorus)
	if borderTorus != 0 {
		// On the torus the wrap is continuous: a wrapping node keeps its
		// neighborhood, so any link event coinciding with a wrap is pure
		// chance of the same tick. There must be at most a tiny number.
		if borderTorus > normalTorus*0.05 {
			t.Errorf("torus metric: %v border events vs %v normal", borderTorus, normalTorus)
		}
	}
}

func TestBroadcastDeliveryAndTallies(t *testing.T) {
	s, err := New(staticConfig(60))
	if err != nil {
		t.Fatal(err)
	}
	sender := &probe{name: "sender"}
	sender.onStart = func(env Env) {
		env.Broadcast(Message{Kind: MsgHello, From: 0, Bits: 64})
	}
	listener := &probe{name: "listener"}
	if err := s.Register(sender, listener); err != nil {
		t.Fatal(err)
	}
	if err := s.Start(); err != nil {
		t.Fatal(err)
	}
	deg := s.Degree(0)
	if deg == 0 {
		t.Skip("node 0 isolated in this placement; adjust seed")
	}
	// Both protocols hear every delivery.
	if len(listener.rcvd) != deg || len(sender.rcvd) != deg {
		t.Errorf("deliveries: listener %d, sender %d, want %d", len(listener.rcvd), len(sender.rcvd), deg)
	}
	ta := s.Tallies()
	if got := ta.Of(MsgHello); got.Msgs != 1 || got.Bits != 64 {
		t.Errorf("hello tally = %+v", got)
	}
	if got := ta.BorderOf(MsgHello); got.Msgs != 0 {
		t.Errorf("unexpected border tally: %+v", got)
	}
	if got := ta.NonBorderOf(MsgHello); got.Msgs != 1 {
		t.Errorf("non-border tally = %+v", got)
	}
	if s.Delivered() != int64(deg) {
		t.Errorf("Delivered = %d, want %d", s.Delivered(), deg)
	}
}

func TestFloodingReachesComponentSameTick(t *testing.T) {
	s, err := New(staticConfig(200))
	if err != nil {
		t.Fatal(err)
	}
	seen := map[NodeID]bool{0: true}
	flooder := &probe{name: "flood"}
	flooder.onMsg = func(env Env, rcv NodeID, msg Message) {
		if msg.Kind != MsgData || seen[rcv] {
			return
		}
		seen[rcv] = true
		env.Broadcast(Message{Kind: MsgData, From: rcv, Bits: 32})
	}
	flooder.onStart = func(env Env) {
		env.Broadcast(Message{Kind: MsgData, From: 0, Bits: 32})
	}
	if err := s.Register(flooder); err != nil {
		t.Fatal(err)
	}
	if err := s.Start(); err != nil {
		t.Fatal(err)
	}
	// BFS the component of node 0 on the engine's adjacency.
	wantSeen := map[NodeID]bool{0: true}
	frontier := []NodeID{0}
	for len(frontier) > 0 {
		var next []NodeID
		for _, id := range frontier {
			for _, nb := range s.Neighbors(id) {
				if !wantSeen[nb] {
					wantSeen[nb] = true
					next = append(next, nb)
				}
			}
		}
		frontier = next
	}
	if len(seen) != len(wantSeen) {
		t.Errorf("flood reached %d nodes, component has %d", len(seen), len(wantSeen))
	}
}

func TestMessageStormIsCutOff(t *testing.T) {
	s, err := New(staticConfig(50))
	if err != nil {
		t.Fatal(err)
	}
	storm := &probe{name: "storm"}
	storm.onMsg = func(env Env, rcv NodeID, msg Message) {
		// Unconditional rebroadcast: never terminates on its own.
		env.Broadcast(Message{Kind: MsgData, From: rcv, Bits: 1})
	}
	storm.onStart = func(env Env) {
		env.Broadcast(Message{Kind: MsgData, From: 0, Bits: 1})
	}
	if err := s.Register(storm); err != nil {
		t.Fatal(err)
	}
	if err := s.Start(); err == nil {
		t.Error("runaway flood not detected")
	}
}

func TestDeterminismAcrossRuns(t *testing.T) {
	run := func() Tallies {
		cfg := Config{N: 100, Side: 10, Range: 1.5, Dt: 0.05, Seed: 11,
			Model: mobility.EpochRWP{Speed: 0.4, Epoch: 2}}
		s, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if err := s.Run(20); err != nil {
			t.Fatal(err)
		}
		return s.Tallies()
	}
	a, b := run(), run()
	if a != b {
		t.Errorf("same seed produced different tallies:\n%+v\n%+v", a, b)
	}
}

func TestTallyArithmetic(t *testing.T) {
	a := Tally{Msgs: 5, Bits: 100}
	b := Tally{Msgs: 2, Bits: 30}
	if got := a.Sub(b); got != (Tally{Msgs: 3, Bits: 70}) {
		t.Errorf("Sub = %+v", got)
	}
	if got := a.Add(b); got != (Tally{Msgs: 7, Bits: 130}) {
		t.Errorf("Add = %+v", got)
	}
}

func TestTalliesWindowSub(t *testing.T) {
	cfg := staticConfig(80)
	cfg.Model = mobility.BCV{Speed: 0.5}
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Run(5); err != nil {
		t.Fatal(err)
	}
	snap := s.Tallies()
	if err := s.Run(5); err != nil {
		t.Fatal(err)
	}
	window := s.Tallies().Sub(snap)
	if window.LinkGen < 0 || window.LinkBrk < 0 {
		t.Errorf("window negative: %+v", window)
	}
	if window.LinkGen+window.LinkBrk == 0 {
		t.Error("no link events in the second window; mobility broken?")
	}
	if s.Config().N != 80 {
		t.Error("Config accessor broken")
	}
	if s.MeanDegree() <= 0 {
		t.Error("MeanDegree non-positive")
	}
	if s.Now() <= 0 {
		t.Error("Now did not advance")
	}
}

// beacon broadcasts one HELLO per node per tick and records nothing, so
// every allocation observed during Step is the engine's own.
type beacon struct{ env Env }

func (b *beacon) Name() string { return "beacon" }
func (b *beacon) Start(env Env) error {
	b.env = env
	return nil
}
func (b *beacon) OnLinkEvent(LinkEvent)     {}
func (b *beacon) OnMessage(NodeID, Message) {}
func (b *beacon) OnTick(float64) {
	for i := 0; i < b.env.NumNodes(); i++ {
		b.env.Broadcast(Message{Kind: MsgHello, From: NodeID(i), Bits: 64})
	}
}

// TestStepZeroSteadyStateAllocs pins the zero-alloc tick loop: once the
// scratch buffers (grid CSR, adjacency CSR, pair buffer, message queue)
// have grown to their working size, Step must not allocate at all, even
// with mobility churning links and a protocol broadcasting every tick.
// The whole 100-tick window is one measured run: a per-tick average
// would round up to 99 stray allocations down to zero.
func TestStepZeroSteadyStateAllocs(t *testing.T) {
	cfg := Config{N: 200, Side: 10, Range: 1.5, Dt: 0.05, Seed: 7,
		Model: mobility.EpochRWP{Speed: 0.4, Epoch: 2}}
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Register(&beacon{}); err != nil {
		t.Fatal(err)
	}
	if err := s.Start(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 200; i++ { // grow scratch to steady-state capacity
		if err := s.Step(); err != nil {
			t.Fatal(err)
		}
	}
	allocs := testing.AllocsPerRun(1, func() {
		for i := 0; i < 100; i++ {
			if err := s.Step(); err != nil {
				t.Fatal(err)
			}
		}
	})
	if allocs != 0 {
		t.Errorf("Step allocates %v times in 100 steady-state ticks, want 0", allocs)
	}
}

// TestStepZeroSteadyStateAllocsLargeN pins the zero-alloc tick loop at
// BenchmarkStep's n10k/canonical scenario, where thousands of index
// cells see cell-crossers every tick. The whole 50-tick window must not
// allocate once: a per-tick average would round a few stray
// allocations down to zero.
func TestStepZeroSteadyStateAllocsLargeN(t *testing.T) {
	if testing.Short() {
		t.Skip("steps a 10000-node scenario 200 times")
	}
	const n = 10000
	s, err := New(Config{
		N: n, Side: 10 * math.Sqrt(n/400.0), Range: 1.5, Dt: 0.05, Seed: 1,
		Metric: geom.MetricSquare,
		Model:  mobility.EpochRWP{Speed: 0.05, Epoch: 10},
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		if err := s.Step(); err != nil {
			t.Fatal(err)
		}
	}
	allocs := testing.AllocsPerRun(1, func() {
		for i := 0; i < 50; i++ {
			if err := s.Step(); err != nil {
				t.Fatal(err)
			}
		}
	})
	if allocs != 0 {
		t.Errorf("Step allocates %v times in 50 steady-state ticks at N=%d, want 0", allocs, n)
	}
}

func TestInvalidBroadcastsCounted(t *testing.T) {
	s, err := New(staticConfig(10))
	if err != nil {
		t.Fatal(err)
	}
	bad := &probe{name: "bad"}
	bad.onStart = func(env Env) {
		env.Broadcast(Message{Kind: MsgHello, From: -1})
		env.Broadcast(Message{Kind: MsgHello, From: 99})
		env.Broadcast(Message{Kind: MsgKind(0), From: 0})
		env.Broadcast(Message{Kind: MsgKind(99), From: 0})
		env.Broadcast(Message{Kind: MsgHello, From: 0}) // this one is fine
	}
	if err := s.Register(bad); err != nil {
		t.Fatal(err)
	}
	if err := s.Start(); err != nil {
		t.Fatal(err)
	}
	ta := s.Tallies()
	if ta.Invalid != 4 {
		t.Errorf("Invalid = %v, want 4", ta.Invalid)
	}
	if got := ta.Of(MsgHello).Msgs; got != 1 {
		t.Errorf("valid broadcasts = %v, want 1", got)
	}
}
