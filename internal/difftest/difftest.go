// Package difftest runs the optimized netsim engine and the brute-force
// refsim oracle in two-way lockstep over one scenario and reports the
// first divergence. Both engines are built from the same netsim.Config
// with identical protocol stacks (HELLO discovery, LID cluster
// maintenance, hybrid routing), so after every tick the harness can
// demand exact equality of positions, neighbor lists, link events,
// message deliveries, tallies, and cluster state. Any mismatch points at
// a bug in the optimized data structures (CSR adjacency, merge-walk
// diffing, ring queue) the reference engine deliberately avoids.
package difftest

import (
	"fmt"
	"slices"

	"repro/internal/cluster"
	"repro/internal/faults"
	"repro/internal/geom"
	"repro/internal/mobility"
	"repro/internal/netsim"
	"repro/internal/refsim"
	"repro/internal/routing"
	"repro/internal/space"
)

// Scenario describes one lockstep run.
type Scenario struct {
	// Name labels the scenario in divergence reports.
	Name string
	// Cfg is the shared engine configuration. Its Model and Medium
	// fields are ignored; NewModel and Faults supply per-engine
	// instances, because mobility models and fault injectors carry
	// internal state that must not be shared across the two engines.
	Cfg netsim.Config
	// NewModel builds a fresh mobility model. nil selects Static.
	NewModel func() mobility.Model
	// Faults, when non-nil, gives each engine its own deterministic
	// fault injector built from this config.
	Faults *faults.Config
	// Handshake switches cluster maintenance from the instant oracle to
	// the soft-state JOIN/ACK exchange with retries.
	Handshake bool
	// PeriodicHello uses the conventional periodic beacon protocol
	// instead of the event-driven lower bound.
	PeriodicHello bool
	// Ticks is the number of lockstep steps after Start.
	Ticks int
}

// engine is the surface shared by netsim.Sim and refsim.Sim that the
// harness drives and inspects.
type engine interface {
	netsim.Env
	Register(ps ...netsim.Protocol) error
	Start() error
	Step() error
	Position(netsim.NodeID) geom.Vec2
	Tallies() netsim.Tallies
	Delivered() int64
	Dropped() int64
	MeanDegree() float64
}

var (
	_ engine = (*netsim.Sim)(nil)
	_ engine = (*refsim.Sim)(nil)
)

// delivery is one point delivery observed by the recorder: message ×
// receiving node, in delivery order, with the engine's IsNeighbor answer
// for the (receiver, sender) pair at the moment of delivery.
type delivery struct {
	Rcv, From netsim.NodeID
	Kind      netsim.MsgKind
	Seq       uint32
	Bits      float64
	Border    bool
	Neighbor  bool
}

// recorder is a passive protocol that captures the per-tick link-event
// and delivery streams, so the harness can compare them element by
// element (the engines do not expose their event slices uniformly). It
// sees only the deliveries each engine's sequence check passed, so the
// stream also compares the two filters.
//
// It also probes the neighbour guard: on every delivery it asks the
// engine IsNeighbor(receiver, sender), the question HELLO's, IntraDV's
// and the JOIN-ACK guard ask during that delivery in the same engine
// state, so comparing the streams checks the tick engine's answers
// against refsim's linear scan. On the tick engine (sim non-nil) it also
// counts the probes the pair shortcut did not answer: the engine records
// the pair only while it walks a sender's row, so those are exactly the
// frames released from the pending queue.
type recorder struct {
	events     []netsim.LinkEvent
	deliveries []delivery
	env        netsim.Env
	sim        *netsim.Sim
	searched   int64
}

func (r *recorder) Name() string { return "difftest/recorder" }
func (r *recorder) Start(env netsim.Env) error {
	r.env = env
	r.sim, _ = env.(*netsim.Sim)
	return nil
}
func (r *recorder) OnLinkEvent(ev netsim.LinkEvent) {
	r.events = append(r.events, ev)
}
func (r *recorder) OnMessage(rcv netsim.NodeID, msg netsim.Message) {
	var hits int64
	if r.sim != nil {
		hits = r.sim.PairShortcuts()
	}
	nb := r.env.IsNeighbor(rcv, msg.From)
	if r.sim != nil && r.sim.PairShortcuts() == hits {
		r.searched++
	}
	r.deliveries = append(r.deliveries, delivery{
		Rcv: rcv, From: msg.From, Kind: msg.Kind, Seq: msg.Seq, Bits: msg.Bits, Border: msg.Border,
		Neighbor: nb,
	})
}
func (r *recorder) OnTick(float64) {}

func (r *recorder) reset() {
	r.events = r.events[:0]
	r.deliveries = r.deliveries[:0]
}

// stack is one engine with its protocol instances.
type stack struct {
	eng   engine
	inj   *faults.Injector
	rec   *recorder
	hello *routing.Hello
	maint *cluster.Maintainer
	route *routing.Hybrid
}

// build assembles one engine (optimized or reference) with a fresh
// protocol stack for the scenario.
func build(s Scenario, optimized bool) (*stack, error) {
	cfg := s.Cfg
	if s.NewModel != nil {
		cfg.Model = s.NewModel()
	} else {
		cfg.Model = mobility.Static{}
	}
	st := &stack{rec: &recorder{}}
	if s.Faults != nil {
		inj, err := faults.New(*s.Faults)
		if err != nil {
			return nil, err
		}
		st.inj = inj
		cfg.Medium = inj
	}
	var err error
	if s.PeriodicHello {
		st.hello, err = routing.NewPeriodicHello(64, 10*cfg.Dt)
	} else {
		st.hello, err = routing.NewHello(64)
	}
	if err != nil {
		return nil, err
	}
	if st.maint, err = cluster.NewMaintainer(cluster.LID{}, 128); err != nil {
		return nil, err
	}
	if s.Handshake {
		if err := st.maint.EnableHandshake(3); err != nil {
			return nil, err
		}
	}
	if st.route, err = routing.NewHybrid(st.maint, routing.DefaultSizes); err != nil {
		return nil, err
	}
	if optimized {
		st.eng, err = netsim.New(cfg)
	} else {
		st.eng, err = refsim.New(cfg)
	}
	if err != nil {
		return nil, err
	}
	// Same registration order as the experiment drivers: clustering
	// settles each event before routing classifies it. The recorder goes
	// first so it observes the streams unperturbed.
	if err := st.eng.Register(st.rec, st.hello, st.maint, st.route); err != nil {
		return nil, err
	}
	return st, nil
}

// Lockstep builds both engines for the scenario, steps them together
// for Scenario.Ticks ticks and returns a descriptive error at the first
// divergence (nil when the engines agree throughout).
func Lockstep(s Scenario) error {
	_, err := LockstepObserved(s)
	return err
}

// Observed is what a lockstep run saw the optimized engine do, so
// callers can assert the run exercised its fast paths: a lockstep in
// which no row is ever skipped proves nothing about the skip rule, and
// one in which no frame is stale proves nothing about the sequence
// filter.
type Observed struct {
	// Index is the spatial-index work over the stepped ticks, excluding
	// the initial full build.
	Index space.IndexStats
	// Tallies are the final counters, which both engines agree on.
	Tallies netsim.Tallies
	// PairShortcuts is how many IsNeighbor calls, from the protocols'
	// guards and the recorder's probe, the same-tick delivery pair
	// answered without a search.
	PairShortcuts int64
	// ReleasedSearches is how many deliveries' neighbour probes took the
	// binary search: the frames released from the pending queue.
	ReleasedSearches int64
}

// LockstepObserved is Lockstep plus what the optimized engine did.
func LockstepObserved(s Scenario) (Observed, error) {
	var none Observed
	if s.Ticks <= 0 {
		return none, fmt.Errorf("difftest %q: Ticks must be positive, got %d", s.Name, s.Ticks)
	}
	ref, err := build(s, false)
	if err != nil {
		return none, fmt.Errorf("difftest %q: build reference: %w", s.Name, err)
	}
	opt, err := build(s, true)
	if err != nil {
		return none, fmt.Errorf("difftest %q: build optimized: %w", s.Name, err)
	}
	if err := ref.eng.Start(); err != nil {
		return none, fmt.Errorf("difftest %q: start reference: %w", s.Name, err)
	}
	if err := opt.eng.Start(); err != nil {
		return none, fmt.Errorf("difftest %q: start optimized: %w", s.Name, err)
	}
	if err := compare(s, 0, ref, opt); err != nil {
		return none, err
	}
	idx := opt.eng.(*netsim.Sim)
	built := idx.IndexStats()
	for tick := 1; tick <= s.Ticks; tick++ {
		ref.rec.reset()
		opt.rec.reset()
		errRef := ref.eng.Step()
		errOpt := opt.eng.Step()
		if (errRef == nil) != (errOpt == nil) {
			return none, fmt.Errorf("difftest %q: tick %d: step outcome diverged: reference=%v optimized=%v",
				s.Name, tick, errRef, errOpt)
		}
		if errRef != nil {
			return none, fmt.Errorf("difftest %q: tick %d: both engines failed: %w", s.Name, tick, errRef)
		}
		if err := compare(s, tick, ref, opt); err != nil {
			return none, err
		}
	}
	st := idx.IndexStats()
	return Observed{
		Index: space.IndexStats{
			Ticks:         st.Ticks - built.Ticks,
			RequeriedRows: st.RequeriedRows - built.RequeriedRows,
			Teleports:     st.Teleports - built.Teleports,
		},
		Tallies:          idx.Tallies(),
		PairShortcuts:    idx.PairShortcuts(),
		ReleasedSearches: opt.rec.searched,
	}, nil
}

// compare demands exact equality of every observable the two stacks
// expose after the same tick. Checks are ordered upstream-first
// (positions before adjacency before events before protocol state) so
// the reported divergence names the earliest broken layer, not a
// downstream symptom.
func compare(s Scenario, tick int, ref, opt *stack) error {
	fail := func(format string, args ...any) error {
		return fmt.Errorf("difftest %q: tick %d: %s", s.Name, tick, fmt.Sprintf(format, args...))
	}
	n := s.Cfg.N
	for i := 0; i < n; i++ {
		id := netsim.NodeID(i)
		if ref.eng.Position(id) != opt.eng.Position(id) {
			return fail("position of node %d: reference %v, optimized %v",
				i, ref.eng.Position(id), opt.eng.Position(id))
		}
	}
	for i := 0; i < n; i++ {
		id := netsim.NodeID(i)
		if !slices.Equal(ref.eng.Neighbors(id), opt.eng.Neighbors(id)) {
			return fail("neighbors of node %d: reference %v, optimized %v",
				i, ref.eng.Neighbors(id), opt.eng.Neighbors(id))
		}
	}
	if !slices.Equal(ref.rec.events, opt.rec.events) {
		return fail("link events: reference %v, optimized %v", ref.rec.events, opt.rec.events)
	}
	if k, ok := firstGuardMismatch(ref.rec.deliveries, opt.rec.deliveries); ok {
		d := opt.rec.deliveries[k]
		return fail("neighbour guard at delivery %d (%d from %d, kind %v): IsNeighbor reference %v, optimized %v",
			k, d.Rcv, d.From, d.Kind, ref.rec.deliveries[k].Neighbor, d.Neighbor)
	}
	if !slices.Equal(ref.rec.deliveries, opt.rec.deliveries) {
		return fail("delivery stream: reference has %d deliveries, optimized %d; reference %v, optimized %v",
			len(ref.rec.deliveries), len(opt.rec.deliveries), ref.rec.deliveries, opt.rec.deliveries)
	}
	if ref.eng.Tallies() != opt.eng.Tallies() {
		return fail("tallies: reference %+v, optimized %+v", ref.eng.Tallies(), opt.eng.Tallies())
	}
	if ref.eng.Delivered() != opt.eng.Delivered() || ref.eng.Dropped() != opt.eng.Dropped() {
		return fail("delivery counters: reference %d/%d, optimized %d/%d",
			ref.eng.Delivered(), ref.eng.Dropped(), opt.eng.Delivered(), opt.eng.Dropped())
	}
	for i := 0; i < n; i++ {
		id := netsim.NodeID(i)
		if ref.maint.RoleOf(id) != opt.maint.RoleOf(id) || ref.maint.HeadOf(id) != opt.maint.HeadOf(id) {
			return fail("cluster state of node %d: reference %v/head %d, optimized %v/head %d",
				i, ref.maint.RoleOf(id), ref.maint.HeadOf(id), opt.maint.RoleOf(id), opt.maint.HeadOf(id))
		}
	}
	if ref.maint.Stats() != opt.maint.Stats() {
		return fail("cluster cause stats: reference %+v, optimized %+v", ref.maint.Stats(), opt.maint.Stats())
	}
	if ref.route.Stats() != opt.route.Stats() {
		return fail("routing stats: reference %+v, optimized %+v", ref.route.Stats(), opt.route.Stats())
	}
	for i := 0; i < n; i++ {
		id := netsim.NodeID(i)
		if ref.hello.TableSize(id) != opt.hello.TableSize(id) {
			return fail("hello table of node %d: reference %d entries, optimized %d",
				i, ref.hello.TableSize(id), opt.hello.TableSize(id))
		}
	}
	return checkClusterOracle(s, ref, opt, fail)
}

// firstGuardMismatch reports the index of the first delivery at which
// the two streams differ, if the records there differ only in the
// neighbour-guard answer.
func firstGuardMismatch(ref, opt []delivery) (int, bool) {
	for k := 0; k < len(ref) && k < len(opt); k++ {
		if ref[k] == opt[k] {
			continue
		}
		r := ref[k]
		r.Neighbor = opt[k].Neighbor
		return k, r == opt[k]
	}
	return 0, false
}

// checkClusterOracle re-derives clustering ground truth from the
// reference topology: a fresh LID formation must satisfy P1/P2 on every
// tick, and — in oracle maintenance mode with no pending handshakes and
// no faults — the maintained assignment must satisfy them too.
func checkClusterOracle(s Scenario, ref, opt *stack, fail func(string, ...any) error) error {
	fresh, err := cluster.Form(ref.eng, cluster.LID{})
	if err != nil {
		return fail("fresh LID formation: %v", err)
	}
	if err := fresh.Check(ref.eng); err != nil {
		return fail("fresh LID formation violates P1/P2 on reference topology: %v", err)
	}
	if s.Faults == nil && !s.Handshake {
		if err := opt.maint.CheckInvariants(); err != nil {
			return fail("maintained clustering violates P1/P2 under ideal medium: %v", err)
		}
	}
	return nil
}
