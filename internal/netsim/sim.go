package netsim

import (
	"errors"
	"fmt"
	"math/rand"
	"slices"

	"repro/internal/geom"
	"repro/internal/mobility"
	"repro/internal/simrand"
	"repro/internal/space"
)

// ErrStopped is returned by Step and Run when the scenario's
// cooperative stop-check (Config.Stop) requested cancellation. The
// simulation halts on a tick boundary: no partial tick is ever
// observable, so tallies and topology stay consistent.
var ErrStopped = errors.New("netsim: simulation stopped by cooperative cancellation")

// csrAdj is an adjacency structure in compressed-sparse-row form: node
// i's sorted neighbor list is flat[off[i]:off[i+1]]. One flat buffer per
// topology snapshot keeps the per-tick rebuild allocation-free and the
// neighbor scans cache-linear.
type csrAdj struct {
	off  []int32 // len N+1
	flat []NodeID
}

// row returns node i's neighbor list, sorted ascending.
func (a *csrAdj) row(i NodeID) []NodeID { return a.flat[a.off[i]:a.off[i+1]] }

// mediumFilter adapts the fault medium to the spatial index's pair
// filter. It lives on the Sim so handing it to RowFiltered never
// allocates a closure.
type mediumFilter struct{ s *Sim }

// Allow reports whether the pair (i, j) may link: j's radio is up and
// no partition cut severs the pair. Row-owner liveness (i) is checked
// by rebuildRows before the row is queried at all.
func (f *mediumFilter) Allow(i, j int32) bool {
	return f.s.alive[j] && !f.s.medium.Cut(NodeID(i), NodeID(j))
}

// Sim is the simulation engine. Construct with New, register protocols,
// then Start and Step (or Run). Sim is not safe for concurrent use.
type Sim struct {
	cfg    Config
	metric geom.Metric
	index  *space.Index
	model  mobility.Model
	rngMob *rand.Rand
	medium Medium      // nil = ideal medium
	stop   func() bool // nil = never cancelled

	// pop holds all node kinematic state in struct-of-arrays layout.
	// pop.Pos is shared with (retained by) the spatial index, so
	// mobility updates are visible to it without a copy pass.
	pop *mobility.Population

	// alive caches Medium.Alive for the current tick (the medium's
	// determinism contract fixes liveness between Advance calls), so the
	// hot paths index a []bool instead of calling through an interface.
	// nil when medium == nil.
	alive []bool
	filt  mediumFilter

	adj     csrAdj // current topology
	prevAdj csrAdj // previous tick's topology

	rowBuf []int32 // scratch row the rebuild requeries into

	protocols []Protocol
	started   bool

	now     float64
	tick    int64
	tallies Tallies

	queue  []Message
	events []LinkEvent
	// attempts is the run-global delivery attempt counter handed to
	// Medium.Deliver as the draw coordinate. Without delay or duplication
	// it equals Delivered+Dropped, which keeps the fault-draw stream — and
	// therefore every existing loss/churn run — byte-identical.
	attempts int64
	// pending parks delayed deliveries until their due tick. Lazily
	// allocated on the first non-zero Fate.Delay, so media that never
	// delay cost nothing.
	pending *pendingQueue
	// seqs rejects stale and duplicated sequenced frames. nil until a
	// sequenced frame is first delayed or duplicated (see drainQueue).
	seqs *seqFilter
}

var _ Env = (*Sim)(nil)

// New builds a simulator for the given scenario.
func New(cfg Config) (*Sim, error) {
	cfg = cfg.withDefaults()
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	metric, err := geom.NewMetric(cfg.Metric, cfg.Side)
	if err != nil {
		return nil, fmt.Errorf("netsim: %w", err)
	}
	src := simrand.New(cfg.Seed)
	pop, err := cfg.Model.Init(cfg.N, metric, src.Split("placement").Rand())
	if err != nil {
		return nil, fmt.Errorf("netsim: init mobility: %w", err)
	}
	index, err := space.NewIndex(metric, cfg.Range, pop.Pos)
	if err != nil {
		return nil, fmt.Errorf("netsim: %w", err)
	}
	s := &Sim{
		cfg:     cfg,
		metric:  metric,
		index:   index,
		model:   cfg.Model,
		rngMob:  src.Split("mobility").Rand(),
		medium:  cfg.Medium,
		stop:    cfg.Stop,
		pop:     pop,
		adj:     csrAdj{off: make([]int32, cfg.N+1)},
		prevAdj: csrAdj{off: make([]int32, cfg.N+1)},
	}
	s.filt.s = s
	if s.medium != nil {
		// Faults draw from a dedicated stream family: registering a
		// medium never perturbs placement or mobility draws.
		s.medium.Reset(cfg.N, src.Split("faults"))
		s.medium.Advance(0)
		s.alive = make([]bool, cfg.N)
		s.refreshAlive()
	}
	// Initial topology: NewIndex flags every row for requery, so the
	// ordinary incremental rebuild produces the full adjacency.
	s.rebuildRows()
	return s, nil
}

// Register adds protocols in processing order. It must be called before
// Start.
func (s *Sim) Register(ps ...Protocol) error {
	if s.started {
		return fmt.Errorf("netsim: Register after Start")
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
			return fmt.Errorf("netsim: start %s: %w", p.Name(), err)
		}
	}
	return s.drainQueue()
}

// Step advances the simulation by one tick. When the scenario's
// stop-check requests cancellation, Step returns ErrStopped before any
// state advances.
func (s *Sim) Step() error {
	if s.stop != nil && s.stop() {
		return ErrStopped
	}
	if !s.started {
		if err := s.Start(); err != nil {
			return err
		}
	}
	s.tick++
	s.now = float64(s.tick) * s.cfg.Dt

	// 1. Mobility, then fault-state advancement (churn schedules). The
	// index shares pop.Pos, so mobility writes need no copy pass.
	s.model.Step(s.pop, s.metric, s.cfg.Dt, s.rngMob)
	if s.medium != nil {
		s.medium.Advance(s.tick)
		s.refreshAlive()
	}

	// 2. Topology maintenance. Begin patches the cell buckets and flags
	// the rows whose drift budget is spent (all rows when a medium is
	// active: fault flips are not motion-driven, so margins cannot see
	// them). Zero flagged rows proves the adjacency is unchanged — the
	// stationary fast path skips the rebuild and the diff outright.
	if dirty := s.index.Begin(s.medium != nil); dirty == 0 {
		s.events = s.events[:0]
	} else {
		s.adj, s.prevAdj = s.prevAdj, s.adj
		s.rebuildRows()
		s.diffAdjacency()
	}

	// 3. Protocols observe link events.
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
	// 3.5. Delayed deliveries whose latency expires this tick reach their
	// receivers; responses they trigger drain with the link-event traffic.
	s.releasePending()
	if err := s.drainQueue(); err != nil {
		return err
	}

	// 4. Per-tick protocol work (timers, periodic traffic).
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

// Now implements Env.
func (s *Sim) Now() float64 { return s.now }

// NumNodes implements Env.
func (s *Sim) NumNodes() int { return s.cfg.N }

// Config returns the scenario the simulator was built with.
func (s *Sim) Config() Config { return s.cfg }

// Neighbors implements Env.
func (s *Sim) Neighbors(id NodeID) []NodeID { return s.adj.row(id) }

// Degree implements Env.
func (s *Sim) Degree(id NodeID) int { return int(s.adj.off[id+1] - s.adj.off[id]) }

// IsNeighbor implements Env.
func (s *Sim) IsNeighbor(a, b NodeID) bool {
	_, ok := slices.BinarySearch(s.adj.row(a), b)
	return ok
}

// Position returns the current position of a node.
func (s *Sim) Position(id NodeID) geom.Vec2 { return s.pop.Pos[id] }

// Tallies returns a snapshot of all counters.
func (s *Sim) Tallies() Tallies { return s.tallies }

// Delivered returns the total number of successful point deliveries
// (message × receiving neighbor) so far; useful for medium diagnostics.
func (s *Sim) Delivered() int64 { return int64(s.tallies.Delivered) }

// Dropped returns the total number of point deliveries the fault medium
// lost; always zero on the ideal medium.
func (s *Sim) Dropped() int64 { return int64(s.tallies.Dropped) }

// MeanDegree returns the current average node degree.
func (s *Sim) MeanDegree() float64 {
	return float64(len(s.adj.flat)) / float64(s.cfg.N)
}

// IndexStats exposes the spatial index's requery counters, for
// benchmarks and diagnostics.
func (s *Sim) IndexStats() space.IndexStats { return s.index.Stats() }

// Tick returns the current tick number (0 before the first Step).
func (s *Sim) Tick() int64 { return s.tick }

// Broadcast implements Env. Messages with an out-of-range sender or an
// unknown kind indicate a protocol bug; they are dropped and counted in
// Tallies().Invalid so tests can assert none occurred. Broadcasts from a
// crashed node are suppressed entirely — a dead radio transmits nothing,
// so they neither enter the traffic tallies nor reach any neighbor.
func (s *Sim) Broadcast(msg Message) {
	if msg.From < 0 || int(msg.From) >= s.cfg.N {
		s.tallies.Invalid++
		return
	}
	idx := int(msg.Kind) - 1
	if idx < 0 || idx >= numMsgKinds {
		s.tallies.Invalid++
		return
	}
	if s.medium != nil && !s.alive[msg.From] {
		s.tallies.Suppressed++
		return
	}
	s.tallies.byKind[idx].Msgs++
	s.tallies.byKind[idx].Bits += msg.Bits
	if msg.Border {
		s.tallies.byKindBorder[idx].Msgs++
		s.tallies.byKindBorder[idx].Bits += msg.Bits
	}
	s.queue = append(s.queue, msg)
}

// drainQueue delivers queued broadcasts in FIFO order until quiescence.
// Messages emitted by receive handlers are delivered within the same
// tick (ideal zero-delay medium). The queue is consumed with a head
// index over one reusable buffer — no re-slicing that pins the backing
// array, no capacity discard — so steady-state drains are allocation
// free. A runaway protocol that floods without termination is cut off
// with an error.
//
// The sequence filter is created the first time a sequenced frame
// (Seq ≠ 0) is delayed or duplicated. Until then every sequenced point
// delivery happened here, in queue order, and each sender stamps its
// class counter in broadcast order, so every later frame a receiver
// gets from that sender in that class carries a higher seq than any it
// got before. A filter table that starts empty at that moment therefore
// accepts and rejects exactly what one fed since Start would. Ideal and
// loss/churn-only runs never create it.
func (s *Sim) drainQueue() error {
	// Legitimate protocols broadcast O(N) messages per tick (a full
	// cluster re-formation plus a table round is a few multiples of N);
	// anything far beyond that is a non-terminating flood.
	maxRounds := 200*s.cfg.N + 10_000
	head := 0
	for head < len(s.queue) {
		msg := s.queue[head] // copied before handlers can grow s.queue
		head++
		for _, nb := range s.adj.row(msg.From) {
			if s.medium == nil {
				s.deliver(nb, msg)
				continue
			}
			s.attempts++
			fate := s.medium.Deliver(s.attempts, msg.From, nb)
			if fate.Drop {
				s.tallies.Dropped++
				continue
			}
			if s.seqs == nil && msg.Seq != 0 && (fate.Delay > 0 || fate.Dup) {
				s.seqs = newSeqFilter(s.cfg.N)
			}
			s.deliverOrPark(nb, msg, fate.Delay)
			if fate.Dup {
				s.tallies.Duplicated++
				s.deliverOrPark(nb, msg, fate.DupDelay)
			}
		}
		if head > maxRounds {
			s.queue = s.queue[:0]
			return fmt.Errorf("netsim: message storm: > %d broadcasts in one tick", maxRounds)
		}
	}
	s.queue = s.queue[:0]
	return nil
}

// deliver fires one point delivery into the protocol stack, unless the
// sequence filter rejects it as stale or duplicated (counted in both
// Delivered and Stale: the frame did reach the receiver's radio).
func (s *Sim) deliver(rcv NodeID, msg Message) {
	s.tallies.Delivered++
	if s.seqs != nil && !s.seqs.fresh(rcv, msg.From, msg.Kind, msg.Seq) {
		s.tallies.Stale++
		return
	}
	for _, p := range s.protocols {
		p.OnMessage(rcv, msg)
	}
}

// deliverOrPark applies a non-drop fate: zero delay delivers within the
// current tick (the ideal path), a positive delay parks the delivery in
// the pending queue until tick+delay. Evictions forced by the bounded
// per-receiver queue are counted in Tallies.Overflow.
func (s *Sim) deliverOrPark(rcv NodeID, msg Message, delay int32) {
	if delay <= 0 {
		s.deliver(rcv, msg)
		return
	}
	d := int64(delay)
	if d > MaxDelayTicks {
		d = MaxDelayTicks
	}
	if s.pending == nil {
		limit := s.cfg.PendingLimit
		if limit == 0 {
			limit = DefaultPendingLimit
		}
		s.pending = newPendingQueue(s.cfg.N, limit)
	}
	if s.pending.add(s.tick, s.tick+d, rcv, msg) {
		s.tallies.Overflow++
	}
}

// releasePending delivers every parked message whose due tick is now. A
// receiver whose radio died while the frame was in flight loses it (the
// delivery counts as Dropped); current adjacency is deliberately not
// re-checked — the frame was already on the air, which is exactly how
// delayed media feed protocols stale information. Handlers' response
// broadcasts queue as usual and drain right after.
func (s *Sim) releasePending() {
	if s.pending == nil {
		return
	}
	for _, p := range s.pending.take(s.tick) {
		if !s.alive[p.rcv] {
			s.tallies.Dropped++
			continue
		}
		s.deliver(p.rcv, p.msg)
	}
}

// refreshAlive snapshots Medium.Alive into the per-tick cache. Liveness
// is constant between Advance calls (the medium determinism contract),
// so one pass per tick replaces every interface call on the hot paths.
func (s *Sim) refreshAlive() {
	for i := range s.alive {
		s.alive[i] = s.medium.Alive(NodeID(i))
	}
}

// rebuildRows reconstructs the CSR adjacency for the current tick in one
// pass in node-ID order, appending every row straight into adj.flat. A
// row the index did not flag is copied over from prevAdj unchanged; a
// flagged row is requeried into the scratch row (sorted ascending — the
// canonical CSR representation) and converted. With a medium active
// every row is flagged, a dead node's row stays empty, and live pairs
// pass through the fault filter.
func (s *Sim) rebuildRows() {
	n := s.cfg.N
	off := s.adj.off
	// A buffer too short for the previous tick's degree sum is replaced
	// by one with a quarter of headroom over it, so the buffer regrows
	// only when the sum climbs by about that much; growing it to fit
	// each new maximum, or appending from a short buffer, would regrow
	// it in steps across many ticks.
	if prev := len(s.prevAdj.flat); cap(s.adj.flat) < prev {
		s.adj.flat = make([]NodeID, 0, prev+prev/4)
	}
	flat := s.adj.flat[:0]
	for i := 0; i < n; i++ {
		off[i] = int32(len(flat))
		if !s.index.Requery(i) {
			flat = append(flat, s.prevAdj.row(NodeID(i))...)
			continue
		}
		row := s.rowBuf[:0]
		if s.medium == nil {
			row = s.index.Row(i, row)
		} else if s.alive[i] {
			row = s.index.RowFiltered(i, row, &s.filt)
		}
		for _, j := range row {
			flat = append(flat, NodeID(j))
		}
		s.rowBuf = row
	}
	off[n] = int32(len(flat))
	s.adj.flat = flat
}

// diffAdjacency emits LinkEvents comparing prevAdj to adj. Only rows
// that were requeried this tick can differ — an unflagged row was
// spliced over verbatim, and any pair flip flags both endpoint rows —
// so clean rows are skipped without scanning. Each unordered pair
// yields at most one event; ordering is by (A, B) within ups after
// downs per node scan order, which is deterministic and identical to a
// full-scan diff.
//
// Under a medium, one tick can flip far more links than any tick before
// it (a crash breaks all of a node's links, a partition onset every
// link across the cut), so the event buffer is reserved to a bound:
// every undirected link sits twice in each adjacency, so the events
// number at most (len(prevAdj.flat)+len(adj.flat))/2. Reserving that
// over the arrays' capacities makes the buffer grow only on a tick when
// the adjacency arrays themselves grew. Without a medium, links change
// only by motion and the buffer settles at its working size within the
// zero-alloc tests' warm-up, while the bound (three times the bytes of
// both adjacency arrays) would cost the dense sweep points megabytes.
func (s *Sim) diffAdjacency() {
	if s.medium != nil {
		if need := (cap(s.prevAdj.flat) + cap(s.adj.flat)) / 2; cap(s.events) < need {
			s.events = make([]LinkEvent, 0, need)
		}
	}
	s.events = s.events[:0]
	for i := 0; i < s.cfg.N; i++ {
		if !s.index.Requery(i) {
			continue
		}
		oldL, newL := s.prevAdj.row(NodeID(i)), s.adj.row(NodeID(i))
		oi, ni := 0, 0
		for oi < len(oldL) || ni < len(newL) {
			switch {
			case oi >= len(oldL) || (ni < len(newL) && newL[ni] < oldL[oi]):
				if j := newL[ni]; j > NodeID(i) {
					s.events = append(s.events, s.makeEvent(NodeID(i), j, true))
				}
				ni++
			case ni >= len(newL) || oldL[oi] < newL[ni]:
				if j := oldL[oi]; j > NodeID(i) {
					s.events = append(s.events, s.makeEvent(NodeID(i), j, false))
				}
				oi++
			default:
				oi++
				ni++
			}
		}
	}
}

func (s *Sim) makeEvent(a, b NodeID, up bool) LinkEvent {
	return LinkEvent{
		A:      a,
		B:      b,
		Up:     up,
		Border: s.pop.Wrapped[a] || s.pop.Wrapped[b],
		Time:   s.now,
	}
}
