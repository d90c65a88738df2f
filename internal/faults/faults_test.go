package faults

import (
	"math"
	"testing"

	"repro/internal/mobility"
	"repro/internal/netsim"
	"repro/internal/simrand"
)

func TestConfigValidate(t *testing.T) {
	bad := []Config{
		{Loss: -0.1},
		{Loss: 1},
		{Loss: math.NaN()},
		{Burst: GilbertElliott{PGoodBad: 1.5}},
		{Burst: GilbertElliott{PGoodBad: 0.1, LossBad: 0.5}}, // absorbing bad state
		{Burst: GilbertElliott{LossGood: math.NaN()}},
		{Churn: Churn{MeanUpTicks: 100}},                    // missing down mean
		{Churn: Churn{MeanUpTicks: 0.5, MeanDownTicks: 10}}, // sub-tick sojourn
		{Churn: Churn{MeanUpTicks: math.Inf(1), MeanDownTicks: 1}},
		{Delay: Delay{BaseTicks: -1}},
		{Delay: Delay{JitterTicks: math.NaN()}},
		{Delay: Delay{BaseTicks: math.Inf(1)}},
		{Delay: Delay{BaseTicks: float64(netsim.MaxDelayTicks), JitterTicks: 1}}, // exceeds the ring
		{DupProb: 1},
		{DupProb: -0.1},
		{DupProb: math.NaN()},
		{Partition: Partition{PeriodTicks: 100}},                     // zero-length window
		{Partition: Partition{DurationTicks: 10}},                    // no period
		{Partition: Partition{PeriodTicks: -5, DurationTicks: 1}},    // negative period
		{Partition: Partition{PeriodTicks: 100, DurationTicks: 100}}, // never heals
	}
	for _, cfg := range bad {
		if err := cfg.Validate(); err == nil {
			t.Errorf("Validate(%+v) = nil, want error", cfg)
		}
	}
	good := []Config{
		{},
		{Loss: 0.999},
		{Burst: GilbertElliott{PGoodBad: 0.1, PBadGood: 0.3, LossGood: 0.01, LossBad: 0.8}},
		{Churn: Churn{MeanUpTicks: 200, MeanDownTicks: 40}},
		{Delay: Delay{BaseTicks: 2, JitterTicks: 3}},
		{Delay: Delay{JitterTicks: 0.5}},
		{DupProb: 0.999},
		{Partition: Partition{PeriodTicks: 100, DurationTicks: 99}},
	}
	for _, cfg := range good {
		if err := cfg.Validate(); err != nil {
			t.Errorf("Validate(%+v) = %v, want nil", cfg, err)
		}
	}
}

func TestZeroConfigIsTransparent(t *testing.T) {
	inj, err := New(Config{})
	if err != nil {
		t.Fatal(err)
	}
	inj.Reset(10, simrand.New(1).Split("faults"))
	inj.Advance(5)
	for id := netsim.NodeID(0); id < 10; id++ {
		if !inj.Alive(id) {
			t.Fatalf("node %d dead under zero config", id)
		}
	}
	for seq := int64(1); seq <= 1000; seq++ {
		if fate := inj.Deliver(seq, 0, 1); fate != (netsim.Fate{}) {
			t.Fatalf("delivery %d got non-ideal fate %+v under zero config", seq, fate)
		}
	}
	if inj.Cut(0, 1) {
		t.Error("zero config cuts links")
	}
	if inj.Enabled() {
		t.Error("zero config reports Enabled")
	}
}

func TestBernoulliLossRateAndDeterminism(t *testing.T) {
	const p = 0.2
	mk := func() *Injector {
		inj, err := New(Config{Loss: p})
		if err != nil {
			t.Fatal(err)
		}
		inj.Reset(50, simrand.New(42).Split("faults"))
		return inj
	}
	a, b := mk(), mk()
	lost := 0
	const trials = 200000
	for seq := int64(1); seq <= trials; seq++ {
		from := netsim.NodeID(seq % 50)
		to := netsim.NodeID((seq * 7) % 50)
		da := a.Deliver(seq, from, to)
		if db := b.Deliver(seq, from, to); da != db {
			t.Fatalf("same seed, same coordinates, different outcome at seq %d", seq)
		}
		if da.Drop {
			lost++
		}
	}
	got := float64(lost) / trials
	if math.Abs(got-p) > 0.01 {
		t.Errorf("empirical loss rate %g, want ≈ %g", got, p)
	}
}

func TestLossDrawIsOrderIndependent(t *testing.T) {
	inj, err := New(Config{Loss: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	inj.Reset(4, simrand.New(7).Split("faults"))
	type key struct {
		seq      int64
		from, to netsim.NodeID
	}
	keys := []key{{1, 0, 1}, {2, 1, 0}, {3, 2, 3}, {4, 0, 2}, {5, 3, 1}}
	first := make(map[key]netsim.Fate)
	for _, k := range keys {
		first[k] = inj.Deliver(k.seq, k.from, k.to)
	}
	// Re-query in reverse order: outcomes must not depend on call order.
	for i := len(keys) - 1; i >= 0; i-- {
		k := keys[i]
		if got := inj.Deliver(k.seq, k.from, k.to); got != first[k] {
			t.Fatalf("outcome for %+v changed on re-query", k)
		}
	}
}

func TestGilbertElliottBurstiness(t *testing.T) {
	// Strongly bursty channel: rare 50-tick-mean bad spells losing 90%,
	// clean good spells. Loss events should clump: the conditional loss
	// probability right after a loss must far exceed the marginal rate.
	inj, err := New(Config{Burst: GilbertElliott{
		PGoodBad: 0.01, PBadGood: 0.02, LossGood: 0, LossBad: 0.9,
	}})
	if err != nil {
		t.Fatal(err)
	}
	inj.Reset(2, simrand.New(3).Split("faults"))
	const ticks = 40000
	losses := 0
	pairs := 0      // consecutive-tick pairs where the first was a loss
	pairLosses := 0 // ... and the second was too
	prev := false
	for tick := int64(1); tick <= ticks; tick++ {
		inj.Advance(tick)
		lost := inj.Deliver(tick, 0, 1).Drop
		if lost {
			losses++
		}
		if prev {
			pairs++
			if lost {
				pairLosses++
			}
		}
		prev = lost
	}
	marginal := float64(losses) / ticks
	if marginal < 0.1 || marginal > 0.6 {
		t.Fatalf("marginal loss rate %g outside plausible band", marginal)
	}
	conditional := float64(pairLosses) / float64(pairs)
	if conditional < 2*marginal {
		t.Errorf("loss after loss %g not bursty vs marginal %g", conditional, marginal)
	}
}

func TestChurnCyclesAndDeterminism(t *testing.T) {
	mk := func() *Injector {
		inj, err := New(Config{Churn: Churn{MeanUpTicks: 100, MeanDownTicks: 25}})
		if err != nil {
			t.Fatal(err)
		}
		inj.Reset(30, simrand.New(11).Split("faults"))
		return inj
	}
	a, b := mk(), mk()
	sawDead, sawRecover := false, false
	wasDead := make([]bool, 30)
	downTicks := 0
	const ticks = 5000
	for tick := int64(1); tick <= ticks; tick++ {
		a.Advance(tick)
		b.Advance(tick)
		for id := netsim.NodeID(0); id < 30; id++ {
			av := a.Alive(id)
			if bv := b.Alive(id); av != bv {
				t.Fatalf("alive state diverged for node %d at tick %d", id, tick)
			}
			if !av {
				sawDead = true
				downTicks++
				wasDead[id] = true
			} else if wasDead[id] {
				sawRecover = true
				wasDead[id] = false
			}
		}
	}
	if !sawDead || !sawRecover {
		t.Fatalf("churn never exercised both directions: dead=%v recover=%v", sawDead, sawRecover)
	}
	// Expected down fraction = 25/(100+25) = 0.2; allow wide slack.
	frac := float64(downTicks) / float64(ticks*30)
	if frac < 0.05 || frac > 0.5 {
		t.Errorf("down fraction %g implausible for 100/25 up/down means", frac)
	}
}

func TestAdvanceSkipsTicksWithoutDrift(t *testing.T) {
	// Jumping straight to tick T must land in the same churn state as
	// advancing one tick at a time (schedules are event-driven).
	mk := func() *Injector {
		inj, err := New(Config{Churn: Churn{MeanUpTicks: 50, MeanDownTicks: 10}})
		if err != nil {
			t.Fatal(err)
		}
		inj.Reset(20, simrand.New(99).Split("faults"))
		return inj
	}
	step, jump := mk(), mk()
	for tick := int64(1); tick <= 1000; tick++ {
		step.Advance(tick)
	}
	jump.Advance(1000)
	for id := netsim.NodeID(0); id < 20; id++ {
		if step.Alive(id) != jump.Alive(id) {
			t.Fatalf("stepwise and jumped advance disagree for node %d", id)
		}
	}
}

// TestCutIsSymmetric pins the netsim.Medium contract Cut(a, b) ==
// Cut(b, a) for every pair, at ticks inside and outside the partition
// windows, over several seeds' side draws. The engine's adjacency — and
// with it IsNeighbor's same-tick pair shortcut — depends on it.
func TestCutIsSymmetric(t *testing.T) {
	const n = 30
	part := Partition{PeriodTicks: 20, DurationTicks: 5}
	for seed := uint64(1); seed <= 4; seed++ {
		inj, err := New(Config{Partition: part})
		if err != nil {
			t.Fatal(err)
		}
		inj.Reset(n, simrand.New(seed).Split("faults"))
		for tick := int64(0); tick < 3*part.PeriodTicks; tick++ {
			inj.Advance(tick)
			inside := tick%part.PeriodTicks < part.DurationTicks
			cuts := 0
			for a := netsim.NodeID(0); a < n; a++ {
				for b := netsim.NodeID(0); b < n; b++ {
					ab := inj.Cut(a, b)
					if ab != inj.Cut(b, a) {
						t.Fatalf("seed %d tick %d: Cut(%d, %d) = %v but Cut(%d, %d) = %v",
							seed, tick, a, b, ab, b, a, !ab)
					}
					if ab {
						cuts++
					}
				}
			}
			if inside && cuts == 0 {
				t.Errorf("seed %d tick %d: no pair cut inside a partition window", seed, tick)
			}
			if !inside && cuts != 0 {
				t.Errorf("seed %d tick %d: %d ordered pairs cut outside every partition window", seed, tick, cuts)
			}
		}
	}
}

func TestDisableRestoresIdealMedium(t *testing.T) {
	inj, err := New(Config{Loss: 0.5, Churn: Churn{MeanUpTicks: 5, MeanDownTicks: 5}})
	if err != nil {
		t.Fatal(err)
	}
	inj.Reset(10, simrand.New(5).Split("faults"))
	for tick := int64(1); tick <= 200; tick++ {
		inj.Advance(tick)
	}
	inj.Disable()
	if inj.Enabled() {
		t.Fatal("Enabled() true after Disable")
	}
	if inj.AliveCount() != 10 {
		t.Fatalf("AliveCount = %d after Disable, want 10", inj.AliveCount())
	}
	for seq := int64(1); seq <= 500; seq++ {
		if fate := inj.Deliver(seq, 0, 1); fate != (netsim.Fate{}) {
			t.Fatalf("non-ideal fate %+v after Disable", fate)
		}
	}
	inj.Advance(201)
	for id := netsim.NodeID(0); id < 10; id++ {
		if !inj.Alive(id) {
			t.Fatalf("node %d dead after Disable", id)
		}
	}
}

// TestEngineDropRateMatchesLoss wires an injector into a real simulation
// and checks the engine-side Dropped tally converges to the configured
// loss probability.
func TestEngineDropRateMatchesLoss(t *testing.T) {
	const p = 0.2
	inj, err := New(Config{Loss: p})
	if err != nil {
		t.Fatal(err)
	}
	sim, err := netsim.New(netsim.Config{
		N: 100, Side: 10, Range: 2, Dt: 0.05, Seed: 17,
		Model:  mobility.EpochRWP{Speed: 0.3, Epoch: 2},
		Medium: inj,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := sim.Register(&chatter{}); err != nil {
		t.Fatal(err)
	}
	if err := sim.Start(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 200; i++ {
		sim.Step()
	}
	tl := sim.Tallies()
	if tl.Delivered+tl.Dropped < 10000 {
		t.Fatalf("too few delivery attempts (%g) for a rate estimate", tl.Delivered+tl.Dropped)
	}
	if got := tl.DropRate(); math.Abs(got-p) > 0.02 {
		t.Errorf("engine drop rate %g, want ≈ %g", got, p)
	}
}

// TestEngineChurnSuppressesDeadSenders checks that a crashed node's
// broadcasts are suppressed rather than tallied, and that adjacency
// excludes dead nodes.
func TestEngineChurnSuppressesDeadSenders(t *testing.T) {
	inj, err := New(Config{Churn: Churn{MeanUpTicks: 40, MeanDownTicks: 40}})
	if err != nil {
		t.Fatal(err)
	}
	sim, err := netsim.New(netsim.Config{
		N: 60, Side: 6, Range: 2, Dt: 0.05, Seed: 23,
		Model:  mobility.EpochRWP{Speed: 0.2, Epoch: 2},
		Medium: inj,
	})
	if err != nil {
		t.Fatal(err)
	}
	ch := &chatter{}
	if err := sim.Register(ch); err != nil {
		t.Fatal(err)
	}
	if err := sim.Start(); err != nil {
		t.Fatal(err)
	}
	sawDeadIsolated := false
	for i := 0; i < 400; i++ {
		sim.Step()
		for id := netsim.NodeID(0); id < 60; id++ {
			if !inj.Alive(id) && sim.Degree(id) == 0 {
				sawDeadIsolated = true
			}
			if !inj.Alive(id) && sim.Degree(id) != 0 {
				t.Fatalf("dead node %d still has %d neighbors", id, sim.Degree(id))
			}
		}
	}
	if !sawDeadIsolated {
		t.Fatal("churn never took a node down during the run")
	}
	if sim.Tallies().Suppressed == 0 {
		t.Error("no broadcasts were suppressed despite dead senders beaconing")
	}
}

// chatter is a trivial protocol: every node beacons every tick, so the
// medium sees a steady stream of delivery attempts.
type chatter struct {
	env netsim.Env
}

func (c *chatter) Name() string { return "chatter" }

func (c *chatter) Start(env netsim.Env) error {
	c.env = env
	return nil
}

func (c *chatter) OnLinkEvent(netsim.LinkEvent) {}

func (c *chatter) OnMessage(netsim.NodeID, netsim.Message) {}

func (c *chatter) OnTick(float64) {
	for id := 0; id < c.env.NumNodes(); id++ {
		c.env.Broadcast(netsim.Message{Kind: netsim.MsgHello, From: netsim.NodeID(id), Bits: 64})
	}
}
