package experiments

import (
	"testing"

	"repro/internal/cluster"
)

// clusterLID keeps the convergence test terse.
func clusterLID() cluster.Policy { return cluster.LID{} }

func TestAblationGroupMobility(t *testing.T) {
	rows, err := AblationGroupMobility(fastOptions())
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("want 2 rows, got %d", len(rows))
	}
	indep, group := rows[0], rows[1]
	if indep.Model != "epoch-rwp" || group.Model != "rpgm" {
		t.Fatalf("row order wrong: %+v", rows)
	}
	// Group-correlated motion slashes cluster maintenance traffic at
	// equal nominal speed (raw link churn barely moves: inter-group
	// contacts dominate λ, but they rarely involve a member's own head).
	if group.FCluster >= indep.FCluster*0.7 {
		t.Errorf("RPGM f_cluster %v not well below epoch-RWP %v", group.FCluster, indep.FCluster)
	}
	if group.LinkChangeRate <= 0 {
		t.Errorf("degenerate RPGM λ %v", group.LinkChangeRate)
	}
	if s := GroupMobilityTable(rows); len(s) == 0 {
		t.Error("empty table")
	}
}

func TestAblationLinkLifetime(t *testing.T) {
	rows, err := AblationLinkLifetime(fastOptions())
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("want 3 rows, got %d", len(rows))
	}
	prev := 0.0
	for _, r := range rows {
		if r.Samples < 500 {
			t.Errorf("r=%v: only %d samples", r.R, r.Samples)
		}
		if e := relErr(r.Measured, r.Analysis); e > 0.3 {
			t.Errorf("r=%v: lifetime sim %v vs analysis %v (%.0f%%)", r.R, r.Measured, r.Analysis, e*100)
		}
		if r.Measured <= prev {
			t.Errorf("lifetime must grow with r: %v after %v", r.Measured, prev)
		}
		prev = r.Measured
	}
	if s := LifetimeTable(rows); len(s) == 0 {
		t.Error("empty table")
	}
}

func TestAblationHelloSchedule(t *testing.T) {
	rows, err := AblationHelloSchedule(fastOptions())
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("want 3 rows, got %d", len(rows))
	}
	prevStale := -1.0
	for _, r := range rows {
		if r.Rate != 1/r.Interval {
			t.Errorf("rate %v != 1/interval", r.Rate)
		}
		// Staleness grows with the beacon interval and roughly tracks
		// the closed form (within a factor of ~2.5: the estimate is
		// first-order).
		if r.StaleFraction <= prevStale {
			t.Errorf("staleness not increasing: %v after %v", r.StaleFraction, prevStale)
		}
		prevStale = r.StaleFraction
		if r.AnalysisStale > 0.02 { // skip the near-zero regime
			ratio := r.StaleFraction / r.AnalysisStale
			if ratio < 0.4 || ratio > 2.5 {
				t.Errorf("interval %v: stale sim %v vs analysis %v (ratio %.2f)",
					r.Interval, r.StaleFraction, r.AnalysisStale, ratio)
			}
		}
	}
	if s := HelloScheduleTable(rows); len(s) == 0 {
		t.Error("empty table")
	}
}

func TestAblationOptimalRatio(t *testing.T) {
	rows, err := AblationOptimalRatio()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 {
		t.Fatalf("want 4 rows, got %d", len(rows))
	}
	for _, r := range rows {
		if r.OptTotal > r.LIDTotal+1e-9 {
			t.Errorf("v=%v: optimum %v worse than LID %v", r.V, r.OptTotal, r.LIDTotal)
		}
		if r.SavingsPct < 0 || r.SavingsPct >= 100 {
			t.Errorf("v=%v: savings %v%% out of range", r.V, r.SavingsPct)
		}
		if r.OptRatio <= 0 || r.OptRatio > 1 {
			t.Errorf("v=%v: P* = %v", r.V, r.OptRatio)
		}
	}
	if s := OptimalRatioTable(rows); len(s) == 0 {
		t.Error("empty table")
	}
}

func TestMeasureRatesNewMobilityKinds(t *testing.T) {
	// RPGM and Gauss-Markov must run end-to-end through the measurement
	// pipeline and produce sane statistics.
	net := ablationBase()
	for _, kind := range []MobilityKind{MobilityRPGM, MobilityGaussMarkov} {
		o := fastOptions()
		o.Mobility = kind
		o.TargetEvents = 3000
		m, err := MeasureRates(net, o)
		if err != nil {
			t.Fatalf("kind %d: %v", int(kind), err)
		}
		if m.MeanDegree <= 0 || m.HeadRatio <= 0 || m.HeadRatio >= 1 {
			t.Errorf("kind %d: degenerate measurement %+v", int(kind), m)
		}
	}
}

func TestFormationConvergence(t *testing.T) {
	rows, err := FormationConvergence(Options{Seed: 11, Workers: 1, Policy: clusterLID()}, 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 5 {
		t.Fatalf("want 5 rows, got %d", len(rows))
	}
	prev := 0.0
	for _, r := range rows {
		if r.MeanRounds < 1 {
			t.Errorf("N=%d: rounds %v < 1", r.N, r.MeanRounds)
		}
		if float64(r.MaxRounds) < r.MeanRounds {
			t.Errorf("N=%d: max %d below mean %v", r.N, r.MaxRounds, r.MeanRounds)
		}
		// Convergence grows, but far slower than linearly: a 16× larger
		// network may need at most ~4× the rounds.
		if r.MeanRounds < prev {
			t.Logf("note: rounds dipped at N=%d (%v after %v) — acceptable noise", r.N, r.MeanRounds, prev)
		}
		prev = r.MeanRounds
	}
	first, last := rows[0], rows[len(rows)-1]
	if last.MeanRounds > first.MeanRounds*float64(last.N)/float64(first.N)/2 {
		t.Errorf("rounds grew near-linearly: %v at N=%d vs %v at N=%d",
			last.MeanRounds, last.N, first.MeanRounds, first.N)
	}
	if s := ConvergenceTable(rows); len(s) == 0 {
		t.Error("empty table")
	}
	if _, err := FormationConvergence(Options{WarmupFrac: -1}, 5); err == nil {
		t.Error("invalid options accepted")
	}
	if _, err := FormationConvergence(Options{Seed: 1, Workers: 1, Policy: clusterLID()}, 0); err == nil {
		t.Error("zero repeats accepted")
	}
}

func TestDHopStudy(t *testing.T) {
	rows, err := DHopStudy(Options{Seed: 5, Workers: 1}, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("want 3 rows, got %d", len(rows))
	}
	prevHeads := 1e9
	for _, r := range rows {
		if r.MeasuredHeads >= prevHeads {
			t.Errorf("d=%d: heads %v did not decrease from %v", r.Hops, r.MeasuredHeads, prevHeads)
		}
		prevHeads = r.MeasuredHeads
		if r.MeanDist > float64(r.Hops) {
			t.Errorf("d=%d: mean member distance %v exceeds bound", r.Hops, r.MeanDist)
		}
		if r.ModelHeads <= 0 {
			t.Errorf("d=%d: degenerate model prediction %v", r.Hops, r.ModelHeads)
		}
	}
	// Larger hop bounds reach farther: members sit farther from heads.
	if rows[2].MeanDist <= rows[0].MeanDist {
		t.Errorf("mean distance should grow with d: %v vs %v", rows[2].MeanDist, rows[0].MeanDist)
	}
	if s := DHopTable(rows); len(s) == 0 {
		t.Error("empty table")
	}
	if _, err := DHopStudy(Options{Seed: 1, Workers: 1}, 0); err == nil {
		t.Error("zero repeats accepted")
	}
}

// TestSizeBiasExplainsRouteOvershoot verifies the EXPERIMENTS.md claim
// that the f_route sim-over-analysis gap is the size-bias effect: the
// overshoot predicted from the measured cluster-size distribution must
// match the observed overshoot.
func TestSizeBiasExplainsRouteOvershoot(t *testing.T) {
	opts := fastOptions()
	opts.TargetEvents = 20_000
	s, err := SizeBiasStudy(opts)
	if err != nil {
		t.Fatal(err)
	}
	if s.Sizes.N() == 0 {
		t.Fatal("no size samples")
	}
	if s.MeanSize <= 1 {
		t.Fatalf("degenerate mean cluster size %v", s.MeanSize)
	}
	// Size distributions are skewed, so the bias factor must exceed 1.
	if s.BiasFactor <= 1 {
		t.Errorf("bias factor %v should exceed 1", s.BiasFactor)
	}
	if s.MeasuredOvershoot <= 1 {
		t.Errorf("measured overshoot %v should exceed 1", s.MeasuredOvershoot)
	}
	// The prediction explains the bulk of the gap.
	if e := relErr(s.BiasFactor, s.MeasuredOvershoot); e > 0.35 {
		t.Errorf("size-bias prediction %v vs measured overshoot %v (%.0f%% apart)",
			s.BiasFactor, s.MeasuredOvershoot, e*100)
	}
	if len(s.String()) == 0 {
		t.Error("empty String")
	}
}

// TestSizeBiasOvershootMatchesMeasureRates checks that SizeBiasStudy
// averages P over the samples it took. HELLO does not touch cluster
// maintenance state, so SizeBiasStudy and MeasureRates cluster the base
// scenario identically, and the overshoot must equal
// FRoute/RouteRate(HeadRatio) of MeasureRates. At 107700 target events
// the window is 403 ticks sampled every 3: 135 samples, one more than
// 403/3 = 134.
func TestSizeBiasOvershootMatchesMeasureRates(t *testing.T) {
	opts := DefaultOptions()
	opts.TargetEvents = 107_700
	s, err := SizeBiasStudy(opts)
	if err != nil {
		t.Fatal(err)
	}
	net := ablationBase()
	m, err := MeasureRates(net, opts)
	if err != nil {
		t.Fatal(err)
	}
	route, err := net.RouteRate(m.HeadRatio)
	if err != nil {
		t.Fatal(err)
	}
	if want := m.FRoute / route; relErr(s.MeasuredOvershoot, want) > 1e-12 {
		t.Errorf("SizeBiasStudy overshoot %v, MeasureRates FRoute/RouteRate(P) %v", s.MeasuredOvershoot, want)
	}
}

func TestHeadRatioTimeline(t *testing.T) {
	opts := fastOptions()
	fig, err := HeadRatioTimeline(opts)
	if err != nil {
		t.Fatal(err)
	}
	sim := fig.Lookup("P(t) simulation")
	form := fig.Lookup("formation P (Eqn 16)")
	eq := fig.Lookup("equilibrium P (measured)")
	if sim == nil || form == nil || eq == nil {
		t.Fatal("missing series")
	}
	if len(sim.Points) < 30 {
		t.Fatalf("too few samples: %d", len(sim.Points))
	}
	// The trajectory starts near the formation value...
	start := sim.Points[0].Y
	if relErr(start, form.Points[0].Y) > 0.6 {
		t.Errorf("initial P %v far from formation reference %v", start, form.Points[0].Y)
	}
	// ...and relaxes monotonically-ish to a strictly lower equilibrium.
	end := eq.Points[0].Y
	if end >= start {
		t.Errorf("equilibrium %v not below formation-time %v", end, start)
	}
	last := sim.Points[len(sim.Points)-1].Y
	if relErr(last, end) > 0.35 {
		t.Errorf("final P %v far from tail mean %v", last, end)
	}
}

// TestMeasureRatesDeterministic asserts bit-for-bit reproducibility of
// the whole measurement pipeline from a seed — placement, mobility,
// clustering, routing and counters.
func TestMeasureRatesDeterministic(t *testing.T) {
	net := ablationBase()
	opts := fastOptions()
	opts.TargetEvents = 2000
	a, err := MeasureRates(net, opts)
	if err != nil {
		t.Fatal(err)
	}
	b, err := MeasureRates(net, opts)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Errorf("same seed produced different measurements:\n%+v\n%+v", a, b)
	}
	opts.Seed++
	c, err := MeasureRates(net, opts)
	if err != nil {
		t.Fatal(err)
	}
	if a == c {
		t.Error("different seeds produced identical measurements")
	}
}
