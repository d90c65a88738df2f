// Package refsim is the deliberately simple reference implementation of
// the netsim engine — the independent oracle of the differential test
// harness (internal/difftest).
//
// It shares netsim.Config, the geometry, the mobility models, the
// seed-splitting scheme and the Medium fault seam with the optimized
// engine, but none of its optimized code paths: adjacency is brute-force
// O(N²) pairwise distance comparison (no spatial grid, no CSR layout, no
// counting sorts), link events come from a naive membership scan over
// every candidate pair (no merge walk over shared buffers), and the
// message queue is a plain head-popped slice allocated afresh as it grows
// (no ring drain, no buffer reuse), and the receive-side sequence check
// runs from Start on maps keyed by stream (no dense tables, no lazy
// creation). Every tick allocates freely.
//
// The two engines must agree bit-for-bit: same positions, same neighbor
// lists, same link events in the same order, same delivery sequence (and
// therefore the same counter-based fault draws), same tallies. Any
// divergence is a bug in one of them — almost always in the optimized
// data structures this package deliberately avoids. Keep this code
// obviously correct and resist optimizing it; its only job is to be easy
// to trust.
package refsim

import (
	"fmt"
	"math/rand"

	"repro/internal/geom"
	"repro/internal/mobility"
	"repro/internal/netsim"
	"repro/internal/simrand"
)

// Sim is the reference simulation engine. Construct with New, register
// protocols, then Start and Step (or Run) — the same lifecycle as
// netsim.Sim. Sim is not safe for concurrent use.
type Sim struct {
	cfg    netsim.Config
	metric geom.Metric
	model  mobility.Model
	rngMob *rand.Rand
	medium netsim.Medium
	stop   func() bool

	pop *mobility.Population

	adj  [][]netsim.NodeID // current topology, row i sorted ascending
	prev [][]netsim.NodeID // previous tick's topology

	protocols []netsim.Protocol
	started   bool

	now     float64
	tick    int64
	tallies netsim.Tallies

	queue     []netsim.Message
	events    []netsim.LinkEvent
	delivered int64
	dropped   int64
	attempts  int64

	// pending holds delayed point deliveries in one flat, append-only
	// slice in insertion order — no due-tick buckets, no ring, no buffer
	// reuse. Releases scan the whole slice; overflow evictions scan it
	// again for the receiver's oldest live entry. Deliberately naive.
	pending []refPending

	// highest[k] is the highest sequence number seen on stream k, and
	// arrived holds every CLUSTER frame accepted so far. Both grow for
	// the whole run.
	highest map[seqStream]uint32
	arrived map[seqArrival]bool
}

// clusterWindow is how far below the highest CLUSTER sequence seen a
// frame may arrive and still be accepted.
const clusterWindow = 64

// seqStream is one sender's sequence stream of one class, as one
// receiver sees it.
type seqStream struct {
	kind      netsim.MsgKind
	rcv, from netsim.NodeID
}

// seqArrival is one accepted frame of a stream.
type seqArrival struct {
	seqStream
	seq uint32
}

// refPending is one delayed point delivery awaiting its due tick.
type refPending struct {
	due  int64
	msg  netsim.Message
	rcv  netsim.NodeID
	dead bool // evicted by the drop-oldest overflow policy
}

var _ netsim.Env = (*Sim)(nil)

// New builds a reference simulator for the given scenario. The defaulting
// rules, validation, stream derivations and initial topology computation
// mirror netsim.New exactly, so both engines observe identical random
// draws from the same seed.
func New(cfg netsim.Config) (*Sim, error) {
	// Same defaults netsim applies: square metric, static mobility.
	if cfg.Metric == 0 {
		cfg.Metric = geom.MetricSquare
	}
	if cfg.Model == nil {
		cfg.Model = mobility.Static{}
	}
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	metric, err := geom.NewMetric(cfg.Metric, cfg.Side)
	if err != nil {
		return nil, fmt.Errorf("refsim: %w", err)
	}
	src := simrand.New(cfg.Seed)
	pop, err := cfg.Model.Init(cfg.N, metric, src.Split("placement").Rand())
	if err != nil {
		return nil, fmt.Errorf("refsim: init mobility: %w", err)
	}
	s := &Sim{
		cfg:     cfg,
		metric:  metric,
		model:   cfg.Model,
		rngMob:  src.Split("mobility").Rand(),
		medium:  cfg.Medium,
		stop:    cfg.Stop,
		pop:     pop,
		prev:    make([][]netsim.NodeID, cfg.N),
		highest: map[seqStream]uint32{},
		arrived: map[seqArrival]bool{},
	}
	if s.medium != nil {
		s.medium.Reset(cfg.N, src.Split("faults"))
		s.medium.Advance(0)
	}
	s.adj = s.computeAdjacency()
	return s, nil
}

// Register adds protocols in processing order. It must be called before
// Start.
func (s *Sim) Register(ps ...netsim.Protocol) error {
	if s.started {
		return fmt.Errorf("refsim: Register after Start")
	}
	s.protocols = append(s.protocols, ps...)
	return nil
}

// Start invokes every protocol's Start hook and delivers the messages
// they emit. It is idempotent; Step calls it implicitly if needed.
func (s *Sim) Start() error {
	if s.started {
		return nil
	}
	s.started = true
	for _, p := range s.protocols {
		if err := p.Start(s); err != nil {
			return fmt.Errorf("refsim: start %s: %w", p.Name(), err)
		}
	}
	return s.drainQueue()
}

// Step advances the simulation by one tick, in the same phase order as
// netsim.Sim.Step: stop check, mobility, fault advancement, topology
// recomputation, link-event diffing, protocol event hooks, queue drain,
// per-tick protocol work, final drain.
func (s *Sim) Step() error {
	if s.stop != nil && s.stop() {
		return netsim.ErrStopped
	}
	if !s.started {
		if err := s.Start(); err != nil {
			return err
		}
	}
	s.tick++
	s.now = float64(s.tick) * s.cfg.Dt

	s.model.Step(s.pop, s.metric, s.cfg.Dt, s.rngMob)
	if s.medium != nil {
		s.medium.Advance(s.tick)
	}

	s.prev = s.adj
	s.adj = s.computeAdjacency()
	s.events = s.diffEvents()

	for _, ev := range s.events {
		if ev.Border {
			if ev.Up {
				s.tallies.BorderGen++
			} else {
				s.tallies.BorderBrk++
			}
		} else {
			if ev.Up {
				s.tallies.LinkGen++
			} else {
				s.tallies.LinkBrk++
			}
		}
		for _, p := range s.protocols {
			p.OnLinkEvent(ev)
		}
	}
	s.releasePending()
	if err := s.drainQueue(); err != nil {
		return err
	}
	for _, p := range s.protocols {
		p.OnTick(s.now)
	}
	return s.drainQueue()
}

// Run advances the simulation by the given duration (rounded down to
// whole ticks).
func (s *Sim) Run(duration float64) error {
	steps := int(duration / s.cfg.Dt)
	for i := 0; i < steps; i++ {
		if err := s.Step(); err != nil {
			return err
		}
	}
	return nil
}

// Now implements netsim.Env.
func (s *Sim) Now() float64 { return s.now }

// NumNodes implements netsim.Env.
func (s *Sim) NumNodes() int { return s.cfg.N }

// Config returns the scenario the simulator was built with.
func (s *Sim) Config() netsim.Config { return s.cfg }

// Neighbors implements netsim.Env.
func (s *Sim) Neighbors(id netsim.NodeID) []netsim.NodeID { return s.adj[id] }

// Degree implements netsim.Env.
func (s *Sim) Degree(id netsim.NodeID) int { return len(s.adj[id]) }

// IsNeighbor implements netsim.Env with a plain linear scan.
func (s *Sim) IsNeighbor(a, b netsim.NodeID) bool {
	for _, nb := range s.adj[a] {
		if nb == b {
			return true
		}
	}
	return false
}

// Position returns the current position of a node.
func (s *Sim) Position(id netsim.NodeID) geom.Vec2 { return s.pop.Pos[id] }

// Tallies returns a snapshot of all counters.
func (s *Sim) Tallies() netsim.Tallies { return s.tallies }

// Delivered returns the total number of successful point deliveries so
// far.
func (s *Sim) Delivered() int64 { return s.delivered }

// Dropped returns the total number of point deliveries the fault medium
// lost.
func (s *Sim) Dropped() int64 { return s.dropped }

// MeanDegree returns the current average node degree.
func (s *Sim) MeanDegree() float64 {
	edges := 0
	for _, row := range s.adj {
		edges += len(row)
	}
	return float64(edges) / float64(s.cfg.N)
}

// Events returns the link events detected by the last Step. The slice is
// owned by the engine and valid until the next Step.
func (s *Sim) Events() []netsim.LinkEvent { return s.events }

// Broadcast implements netsim.Env with the same acceptance rules as the
// optimized engine: out-of-range senders and unknown kinds count as
// Invalid, broadcasts from crashed nodes are Suppressed, everything else
// is tallied and queued.
func (s *Sim) Broadcast(msg netsim.Message) {
	if msg.From < 0 || int(msg.From) >= s.cfg.N {
		s.tallies.Invalid++
		return
	}
	if !netsim.KindValid(msg.Kind) {
		s.tallies.Invalid++
		return
	}
	if s.medium != nil && !s.medium.Alive(msg.From) {
		s.tallies.Suppressed++
		return
	}
	s.tallies.Record(msg.Kind, msg.Bits, msg.Border)
	s.queue = append(s.queue, msg)
}

// drainQueue delivers queued broadcasts in FIFO order until quiescence,
// popping the head of a plain slice. The delivery sequence (message
// order × ascending neighbor order) and the run-global attempt counter
// handed to Medium.Deliver match the optimized engine exactly, so both
// engines consume identical counter-based fault draws. The same
// message-storm guard applies.
func (s *Sim) drainQueue() error {
	maxRounds := 200*s.cfg.N + 10_000
	processed := 0
	for len(s.queue) > 0 {
		msg := s.queue[0]
		s.queue = s.queue[1:]
		processed++
		for _, nb := range s.adj[msg.From] {
			if s.medium == nil {
				s.deliver(nb, msg)
				continue
			}
			s.attempts++
			fate := s.medium.Deliver(s.attempts, msg.From, nb)
			if fate.Drop {
				s.dropped++
				s.tallies.Dropped++
				continue
			}
			s.deliverOrPark(nb, msg, fate.Delay)
			if fate.Dup {
				s.tallies.Duplicated++
				s.deliverOrPark(nb, msg, fate.DupDelay)
			}
		}
		if processed > maxRounds {
			s.queue = nil
			return fmt.Errorf("refsim: message storm: > %d broadcasts in one tick", maxRounds)
		}
	}
	s.queue = nil
	return nil
}

// deliver fires one point delivery into the protocol stack, unless the
// sequence check withholds it (counted in Delivered and Stale, as in the
// optimized engine).
func (s *Sim) deliver(rcv netsim.NodeID, msg netsim.Message) {
	s.delivered++
	s.tallies.Delivered++
	if !s.fresh(rcv, msg) {
		s.tallies.Stale++
		return
	}
	for _, p := range s.protocols {
		p.OnMessage(rcv, msg)
	}
}

// fresh applies the class rules to a sequenced frame and records it:
// HELLO and ROUTE accept only a sequence above the highest seen; CLUSTER
// accepts any sequence not seen before, unless it is clusterWindow or
// more below the highest. Unsequenced frames and other classes pass.
func (s *Sim) fresh(rcv netsim.NodeID, msg netsim.Message) bool {
	if msg.Seq == 0 {
		return true
	}
	k := seqStream{kind: msg.Kind, rcv: rcv, from: msg.From}
	top := s.highest[k]
	switch msg.Kind {
	case netsim.MsgHello, netsim.MsgRoute:
		if msg.Seq <= top {
			return false
		}
	case netsim.MsgCluster:
		if msg.Seq <= top && top-msg.Seq >= clusterWindow {
			return false
		}
		a := seqArrival{seqStream: k, seq: msg.Seq}
		if s.arrived[a] {
			return false
		}
		s.arrived[a] = true
	default:
		return true
	}
	if msg.Seq > top {
		s.highest[k] = msg.Seq
	}
	return true
}

// deliverOrPark applies a non-drop fate under the same rules as the
// optimized engine: zero delay delivers now, a positive delay (clamped
// to MaxDelayTicks) parks the delivery. When the receiver already holds
// PendingLimit live entries, its oldest (smallest due tick, earliest
// insertion on ties) is tombstoned and counted in Tallies.Overflow —
// found here by a full scan rather than a walk of the receiver's chain.
func (s *Sim) deliverOrPark(rcv netsim.NodeID, msg netsim.Message, delay int32) {
	if delay <= 0 {
		s.deliver(rcv, msg)
		return
	}
	d := int64(delay)
	if d > netsim.MaxDelayTicks {
		d = netsim.MaxDelayTicks
	}
	limit := s.cfg.PendingLimit
	if limit == 0 {
		limit = netsim.DefaultPendingLimit
	}
	live, oldest := 0, -1
	for i := range s.pending {
		if s.pending[i].dead || s.pending[i].rcv != rcv {
			continue
		}
		live++
		if oldest == -1 || s.pending[i].due < s.pending[oldest].due {
			oldest = i
		}
	}
	if live >= limit {
		s.pending[oldest].dead = true
		s.tallies.Overflow++
	}
	s.pending = append(s.pending, refPending{due: s.tick + d, msg: msg, rcv: rcv})
}

// releasePending delivers every parked message due this tick, in
// insertion order, and compacts the slice. Receivers whose radio died in
// flight lose the frame (counted Dropped); adjacency is deliberately not
// re-checked — both mirror the optimized engine's semantics. Handlers
// only queue broadcasts (parking happens in drainQueue), so the slice is
// not mutated while it is walked.
func (s *Sim) releasePending() {
	if s.medium == nil || len(s.pending) == 0 {
		return
	}
	var rest []refPending
	for _, p := range s.pending {
		if p.dead {
			continue
		}
		if p.due != s.tick {
			rest = append(rest, p)
			continue
		}
		if !s.medium.Alive(p.rcv) {
			s.dropped++
			s.tallies.Dropped++
			continue
		}
		s.deliver(p.rcv, p.msg)
	}
	s.pending = rest
}

// computeAdjacency rebuilds the topology by brute force: every unordered
// pair is tested against the transmission range directly, with the same
// squared-distance comparison (and the same crashed-node filtering) the
// optimized engine applies. Rows come out sorted ascending because j
// only ever grows.
func (s *Sim) computeAdjacency() [][]netsim.NodeID {
	n := s.cfg.N
	adj := make([][]netsim.NodeID, n)
	r2 := s.cfg.Range * s.cfg.Range
	for i := 0; i < n; i++ {
		if s.medium != nil && !s.medium.Alive(netsim.NodeID(i)) {
			continue
		}
		for j := i + 1; j < n; j++ {
			if s.medium != nil && (!s.medium.Alive(netsim.NodeID(j)) ||
				s.medium.Cut(netsim.NodeID(i), netsim.NodeID(j))) {
				continue
			}
			if s.metric.Dist2(s.pop.Pos[i], s.pop.Pos[j]) <= r2 {
				adj[i] = append(adj[i], netsim.NodeID(j))
				adj[j] = append(adj[j], netsim.NodeID(i))
			}
		}
	}
	return adj
}

// diffEvents reports every topology change between the previous and the
// current tick by naive membership testing: for each node i, every
// candidate partner j > i is looked up in both the old and the new
// neighbor sets. Events therefore come out grouped by i and ascending in
// j — the same deterministic order the optimized merge walk produces.
func (s *Sim) diffEvents() []netsim.LinkEvent {
	var events []netsim.LinkEvent
	n := s.cfg.N
	for i := 0; i < n; i++ {
		inOld := make(map[netsim.NodeID]bool, len(s.prev[i]))
		for _, j := range s.prev[i] {
			inOld[j] = true
		}
		inNew := make(map[netsim.NodeID]bool, len(s.adj[i]))
		for _, j := range s.adj[i] {
			inNew[j] = true
		}
		for j := netsim.NodeID(i) + 1; int(j) < n; j++ {
			was, is := inOld[j], inNew[j]
			if was == is {
				continue
			}
			events = append(events, netsim.LinkEvent{
				A:      netsim.NodeID(i),
				B:      j,
				Up:     is,
				Border: s.pop.Wrapped[i] || s.pop.Wrapped[j],
				Time:   s.now,
			})
		}
	}
	return events
}
