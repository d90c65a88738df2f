package difftest

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/experiments"
	"repro/internal/faults"
	"repro/internal/geom"
	"repro/internal/mobility"
	"repro/internal/netsim"
	"repro/internal/routing"
)

// translate decorates a mobility model by shifting every initial
// position by a fixed offset (wrapped into the region). On the torus the
// dynamics are translation-invariant, so the whole simulation — link
// events, cluster churn, traffic — must be unchanged.
type translate struct {
	inner mobility.Model
	delta geom.Vec2
}

func (m translate) Name() string { return m.inner.Name() + "+translate" }

func (m translate) Init(n int, metric geom.Metric, rng *rand.Rand) (*mobility.Population, error) {
	p, err := m.inner.Init(n, metric, rng)
	if err != nil {
		return nil, err
	}
	for i := range p.Pos {
		p.Pos[i], _ = metric.Wrap(p.Pos[i].Add(m.delta))
	}
	return p, nil
}

func (m translate) Step(p *mobility.Population, metric geom.Metric, dt float64, rng *rand.Rand) {
	m.inner.Step(p, metric, dt, rng)
}

// relabel decorates a mobility model by permuting which node gets which
// initial state. For models whose Step draws nothing from the rng
// (Static, BCV) the trajectories permute exactly, so every aggregate
// that ignores identities — link-event counts, HELLO traffic, delivery
// totals, the degree multiset — must be unchanged.
type relabel struct {
	inner mobility.Model
	perm  []int
}

func (m relabel) Name() string { return m.inner.Name() + "+relabel" }

func (m relabel) Init(n int, metric geom.Metric, rng *rand.Rand) (*mobility.Population, error) {
	p, err := m.inner.Init(n, metric, rng)
	if err != nil {
		return nil, err
	}
	p.Permute(m.perm)
	return p, nil
}

func (m relabel) Step(p *mobility.Population, metric geom.Metric, dt float64, rng *rand.Rand) {
	m.inner.Step(p, metric, dt, rng)
}

// runFullStack runs the optimized engine with the standard protocol
// stack for ticks steps and returns the stack for inspection.
func runFullStack(t *testing.T, cfg netsim.Config, ticks int) *stack {
	t.Helper()
	st, err := build(Scenario{Name: "metamorphic", Cfg: cfg, NewModel: func() mobility.Model { return cfg.Model }}, true)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < ticks; i++ {
		if err := st.eng.Step(); err != nil {
			t.Fatal(err)
		}
	}
	return st
}

// runHelloOnly runs the optimized engine with only the event-driven
// HELLO protocol and returns final tallies plus the sorted degree
// multiset.
func runHelloOnly(t *testing.T, cfg netsim.Config, ticks int) (netsim.Tallies, []int) {
	t.Helper()
	hello, err := routing.NewHello(64)
	if err != nil {
		t.Fatal(err)
	}
	sim, err := netsim.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := sim.Register(hello); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < ticks; i++ {
		if err := sim.Step(); err != nil {
			t.Fatal(err)
		}
	}
	degrees := make([]int, cfg.N)
	for i := range degrees {
		degrees[i] = sim.Degree(netsim.NodeID(i))
	}
	slices.Sort(degrees)
	return sim.Tallies(), degrees
}

// borderMerged projects tallies onto the translation-invariant
// quantities: per-kind totals, total link generations and breaks, and
// the delivery counters. The border/non-border split is deliberately
// excluded — the Wrapped flag marks crossings of the coordinate seam,
// and a translation moves the seam relative to the trajectories, so on
// the torus only the merged totals are invariant.
func borderMerged(w netsim.Tallies) [12]float64 {
	return [12]float64{
		w.Of(netsim.MsgHello).Msgs, w.Of(netsim.MsgCluster).Msgs,
		w.Of(netsim.MsgRoute).Msgs, w.Of(netsim.MsgRouteDiscovery).Msgs,
		w.LinkGen + w.BorderGen, w.LinkBrk + w.BorderBrk,
		w.Invalid, w.Delivered, w.Dropped, w.Suppressed,
		w.Overflow, w.Duplicated,
	}
}

// lockstepFaultPair builds two optimized stacks that differ only in
// their fault wiring and demands exact equality of every observable
// (positions, neighbors, link events, delivery stream with sequence
// numbers, tallies, cluster and routing state) after every tick, via
// the same compare the differential harness uses.
func lockstepFaultPair(t *testing.T, label string, cfg netsim.Config, fa, fb *faults.Config, handshake bool, ticks int) {
	t.Helper()
	newStack := func(fc *faults.Config) *stack {
		s := Scenario{
			Name: label, Cfg: cfg,
			NewModel:  func() mobility.Model { return mobility.BCV{Speed: 0.06} },
			Faults:    fc,
			Handshake: handshake,
		}
		st, err := build(s, true)
		if err != nil {
			t.Fatal(err)
		}
		if err := st.eng.Start(); err != nil {
			t.Fatal(err)
		}
		return st
	}
	a, b := newStack(fa), newStack(fb)
	s := Scenario{Name: label, Cfg: cfg, Faults: fa, Handshake: handshake}
	if err := compare(s, 0, a, b); err != nil {
		t.Fatal(err)
	}
	for tick := 1; tick <= ticks; tick++ {
		a.rec.reset()
		b.rec.reset()
		if err := a.eng.Step(); err != nil {
			t.Fatal(err)
		}
		if err := b.eng.Step(); err != nil {
			t.Fatal(err)
		}
		if err := compare(s, tick, a, b); err != nil {
			t.Fatal(err)
		}
	}
}

// TestZeroPathologyByteIdentical pins the delivery pipeline's zero
// cost: an injector whose delay, jitter, duplication and partition
// parameters are all zero must be byte-identical to the paths that
// predate the pipeline — the nil-medium ideal engine and the loss-only
// injector — so enabling the new fault dimensions at zero strength can
// never perturb a published figure.
func TestZeroPathologyByteIdentical(t *testing.T) {
	cfg := netsim.Config{
		N: 36, Side: 8, Range: 1.5, Dt: 0.5, Seed: 11,
		Metric: geom.MetricTorus,
	}
	t.Run("zero-config-vs-nil-medium", func(t *testing.T) {
		lockstepFaultPair(t, "zero-vs-nil", cfg, nil, &faults.Config{}, false, 80)
	})
	t.Run("loss-only-vs-zero-pipeline", func(t *testing.T) {
		lossOnly := &faults.Config{Loss: 0.2}
		zeroPipeline := &faults.Config{
			Loss:      0.2,
			Delay:     faults.Delay{BaseTicks: 0, JitterTicks: 0},
			DupProb:   0,
			Partition: faults.Partition{PeriodTicks: 0, DurationTicks: 0},
		}
		lockstepFaultPair(t, "loss-vs-zero-pipeline", cfg, lossOnly, zeroPipeline, true, 80)
	})
}

// TestTorusTranslationInvariance: shifting every initial position by a
// constant offset on the torus leaves all pairwise distances — and
// therefore the link dynamics, the traffic, and the cluster evolution —
// unchanged. Compared bit-for-bit on fixed seeds; positions near the
// exact range boundary could in principle flip by a rounding ulp, so a
// failure here after an unrelated change warrants re-checking with
// another seed before blaming the engine.
func TestTorusTranslationInvariance(t *testing.T) {
	const side, ticks = 8.0, 80
	models := map[string]mobility.Model{
		"static": mobility.Static{},
		"bcv":    mobility.BCV{Speed: 0.06},
		"epoch-rwp": mobility.EpochRWP{
			Speed: 0.06, Epoch: 4,
		},
	}
	for name, model := range models {
		t.Run(name, func(t *testing.T) {
			cfg := netsim.Config{
				N: 36, Side: side, Range: 1.5, Dt: 0.5, Seed: 7,
				Metric: geom.MetricTorus,
			}
			cfg.Model = model
			base := runFullStack(t, cfg, ticks)
			for _, delta := range []geom.Vec2{{X: side / 2, Y: side / 4}, {X: 3.1, Y: 6.7}} {
				cfg.Model = translate{inner: model, delta: delta}
				shifted := runFullStack(t, cfg, ticks)
				if borderMerged(base.eng.Tallies()) != borderMerged(shifted.eng.Tallies()) {
					t.Errorf("shift %v changed border-merged tallies:\nbase    %v\nshifted %v",
						delta, borderMerged(base.eng.Tallies()), borderMerged(shifted.eng.Tallies()))
				}
				if base.maint.Stats().Total() != shifted.maint.Stats().Total() {
					t.Errorf("shift %v changed total cluster maintenance traffic: %v vs %v",
						delta, base.maint.Stats().Total(), shifted.maint.Stats().Total())
				}
				for i := 0; i < cfg.N; i++ {
					id := netsim.NodeID(i)
					if base.maint.HeadOf(id) != shifted.maint.HeadOf(id) {
						t.Fatalf("shift %v changed head of node %d: %d vs %d",
							delta, i, base.maint.HeadOf(id), shifted.maint.HeadOf(id))
					}
				}
			}
		})
	}
}

// TestRelabelingInvariance: permuting node identities permutes
// trajectories exactly (for rng-free Step models), so identity-blind
// aggregates must be unchanged on both metrics. Cluster traffic is
// deliberately absent from the stack — Lowest-ID election depends on
// labels, so it is not relabeling-invariant.
func TestRelabelingInvariance(t *testing.T) {
	const n, ticks = 40, 80
	perm := rand.New(rand.NewSource(99)).Perm(n)
	models := map[string]mobility.Model{
		"static": mobility.Static{},
		"bcv":    mobility.BCV{Speed: 0.08},
	}
	for _, metric := range []geom.MetricKind{geom.MetricSquare, geom.MetricTorus} {
		for name, model := range models {
			t.Run(metric.String()+"/"+name, func(t *testing.T) {
				cfg := netsim.Config{
					N: n, Side: 6, Range: 1.3, Dt: 0.5, Seed: 13,
					Metric: metric, Model: model,
				}
				baseTallies, baseDegrees := runHelloOnly(t, cfg, ticks)
				cfg.Model = relabel{inner: model, perm: perm}
				permTallies, permDegrees := runHelloOnly(t, cfg, ticks)
				if baseTallies != permTallies {
					t.Errorf("relabeling changed tallies:\nbase %+v\nperm %+v", baseTallies, permTallies)
				}
				if !slices.Equal(baseDegrees, permDegrees) {
					t.Errorf("relabeling changed the degree multiset:\nbase %v\nperm %v", baseDegrees, permDegrees)
				}
			})
		}
	}
}

// TestDensityRescaleInvariance: doubling N and the area together keeps
// the density, so per-node link dynamics and mean degree are invariant
// up to sampling noise. Run on the torus, where there are no border
// effects to scale differently.
func TestDensityRescaleInvariance(t *testing.T) {
	const (
		rho, r, v = 2.0, 1.2, 0.05
		ticks     = 400
	)
	perNodeGenRate := func(n int) (float64, float64) {
		side := math.Sqrt(float64(n) / rho)
		cfg := netsim.Config{
			N: n, Side: side, Range: r, Dt: r / v / 25, Seed: 29,
			Metric: geom.MetricTorus,
			Model:  mobility.BCV{Speed: v},
		}
		tallies, degrees := runHelloOnly(t, cfg, ticks)
		sum := 0
		for _, d := range degrees {
			sum += d
		}
		duration := float64(ticks) * cfg.Dt
		return 2 * tallies.LinkGen / (float64(n) * duration), float64(sum) / float64(n)
	}
	smallRate, smallDeg := perNodeGenRate(96)
	largeRate, largeDeg := perNodeGenRate(192)
	if rel := math.Abs(largeRate/smallRate - 1); rel > 0.12 {
		t.Errorf("per-node link-gen rate not density-invariant: N=96 → %.4f, N=192 → %.4f (rel diff %.1f%%)",
			smallRate, largeRate, 100*rel)
	}
	if rel := math.Abs(largeDeg/smallDeg - 1); rel > 0.10 {
		t.Errorf("mean degree not density-invariant: N=96 → %.2f, N=192 → %.2f (rel diff %.1f%%)",
			smallDeg, largeDeg, 100*rel)
	}
}

// TestAnalyticColumnsSeedIndependent: the analysis series of the figure
// drivers are closed forms — they must be bit-identical across seeds
// (and Figure 4, which has no simulation at all, must be a pure
// function).
func TestAnalyticColumnsSeedIndependent(t *testing.T) {
	a1, b1, err := experiments.Figure4()
	if err != nil {
		t.Fatal(err)
	}
	a2, b2, err := experiments.Figure4()
	if err != nil {
		t.Fatal(err)
	}
	if a1.CSV() != a2.CSV() || b1.CSV() != b2.CSV() {
		t.Error("Figure4 is not a pure function of its (empty) inputs")
	}

	opts := experiments.DefaultOptions()
	opts.Workers = 1
	figA, err := experiments.Figure5b(opts, 1)
	if err != nil {
		t.Fatal(err)
	}
	opts.Seed = opts.Seed*2 + 1
	figB, err := experiments.Figure5b(opts, 1)
	if err != nil {
		t.Fatal(err)
	}
	const anaName = "analysis (N·P from Eqn 16)"
	anaA, anaB := figA.Lookup(anaName), figB.Lookup(anaName)
	if anaA == nil || anaB == nil {
		t.Fatalf("Figure5b lost its %q series", anaName)
	}
	if !slices.Equal(anaA.Points, anaB.Points) {
		t.Errorf("Figure5b analysis column depends on the seed:\nseed A %v\nseed B %v", anaA.Points, anaB.Points)
	}
	simA, simB := figA.Lookup("simulation (LID formation)"), figB.Lookup("simulation (LID formation)")
	if simA == nil || simB == nil {
		t.Fatal("Figure5b lost its simulation series")
	}
	if slices.Equal(simA.Points, simB.Points) {
		t.Error("Figure5b simulation column ignored the seed — the sweep is not actually randomized")
	}
}
