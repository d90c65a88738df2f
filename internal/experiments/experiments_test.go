package experiments

import (
	"context"
	"math"
	"testing"

	"repro/internal/core"
	"repro/internal/geom"
)

// fastOptions shrinks measurement windows so the test suite stays quick
// while still averaging thousands of link events.
func fastOptions() Options {
	o := DefaultOptions()
	o.TargetEvents = 8_000
	return o
}

// relErr returns |a−b| / |b|.
func relErr(a, b float64) float64 {
	if b == 0 {
		return math.Abs(a)
	}
	return math.Abs(a-b) / math.Abs(b)
}

func TestOptionsValidate(t *testing.T) {
	if _, err := (Options{WarmupFrac: -1}).validate(); err == nil {
		t.Error("negative warmup accepted")
	}
	if _, err := (Options{WarmupFrac: 1}).validate(); err == nil {
		t.Error("warmup=1 accepted")
	}
	if _, err := (Options{StepFrac: 0.9}).validate(); err == nil {
		t.Error("giant step accepted")
	}
	o, err := (Options{}).validate()
	if err != nil {
		t.Fatal(err)
	}
	if o.Metric == 0 || o.Mobility == 0 || o.Policy == nil || o.TargetEvents <= 0 {
		t.Errorf("defaults not filled: %+v", o)
	}
	if _, err := (Options{Mobility: MobilityKind(99)}).validate(); err != nil {
		t.Fatal(err) // kind is validated at model build time
	}
	bad := Options{Mobility: MobilityKind(99)}
	if _, err := bad.SimConfig(core.Network{N: 10, R: 1, V: 1, Density: 1}); err == nil {
		t.Error("unknown mobility kind accepted")
	}
}

func TestMeasureRatesRejectsBadNetwork(t *testing.T) {
	if _, err := MeasureRates(core.Network{N: 1, R: 1, V: 1, Density: 1}, fastOptions()); err == nil {
		t.Error("invalid network accepted")
	}
}

// TestMeasureRatesMatchesAnalysis is the headline integration test: the
// simulator must reproduce the analytical model's topology statistics and
// control message frequencies at the paper's working point.
func TestMeasureRatesMatchesAnalysis(t *testing.T) {
	net := core.Network{N: 400, R: 1.5, V: 0.05, Density: 4}
	m, err := MeasureRates(net, fastOptions())
	if err != nil {
		t.Fatal(err)
	}
	if e := relErr(m.MeanDegree, net.ExpectedNeighbors()); e > 0.1 {
		t.Errorf("mean degree off by %.0f%%: sim %v ana %v", e*100, m.MeanDegree, net.ExpectedNeighbors())
	}
	if e := relErr(m.LinkChangeRate, net.LinkChangeRate()); e > 0.15 {
		t.Errorf("λ off by %.0f%%: sim %v ana %v", e*100, m.LinkChangeRate, net.LinkChangeRate())
	}
	if e := relErr(m.LinkGenRate, net.LinkGenRate()); e > 0.15 {
		t.Errorf("λ_gen off by %.0f%%", e*100)
	}
	rates, err := net.ControlRates(m.HeadRatio)
	if err != nil {
		t.Fatal(err)
	}
	if e := relErr(m.FHello, rates.Hello); e > 0.15 {
		t.Errorf("f_hello off by %.0f%%: sim %v ana %v", e*100, m.FHello, rates.Hello)
	}
	if e := relErr(m.FCluster, rates.Cluster); e > 0.25 {
		t.Errorf("f_cluster off by %.0f%%: sim %v ana %v", e*100, m.FCluster, rates.Cluster)
	}
	// f_route carries the size-bias effect discussed in EXPERIMENTS.md;
	// the analysis remains a correct-shape lower-bound-style estimate.
	if e := relErr(m.FRoute, rates.Route); e > 0.6 {
		t.Errorf("f_route off by %.0f%%: sim %v ana %v", e*100, m.FRoute, rates.Route)
	}
	if m.HeadRatio <= 0 || m.HeadRatio >= 1 {
		t.Errorf("head ratio %v out of range", m.HeadRatio)
	}
	if m.Duration <= 0 {
		t.Error("zero duration")
	}
}

func TestMeasureRatesTorusMatchesCV(t *testing.T) {
	// On the torus there are no border effects: degree must match
	// (N−1)πr²/a² and λ the CV rate scaled by (N−1)/N.
	net := core.Network{N: 400, R: 1.5, V: 0.05, Density: 4}
	opts := fastOptions()
	opts.Metric = geom.MetricTorus
	m, err := MeasureRates(net, opts)
	if err != nil {
		t.Fatal(err)
	}
	wantD, err := geom.ExpectedNeighborsTorus(net.N, net.R, net.Side())
	if err != nil {
		t.Fatal(err)
	}
	if e := relErr(m.MeanDegree, wantD); e > 0.1 {
		t.Errorf("torus degree off by %.0f%%: sim %v ana %v", e*100, m.MeanDegree, wantD)
	}
	wantLam := core.CVLinkChangeRate(net.Density, net.R, net.V) * float64(net.N-1) / float64(net.N)
	if e := relErr(m.LinkChangeRate, wantLam); e > 0.15 {
		t.Errorf("torus λ off by %.0f%%: sim %v ana %v", e*100, m.LinkChangeRate, wantLam)
	}
}

func TestBorderInclusionRaisesRates(t *testing.T) {
	net := core.Network{N: 300, R: 2, V: 0.08, Density: 3}
	ex := fastOptions()
	in := fastOptions()
	in.IncludeBorder = true
	mEx, err := MeasureRates(net, ex)
	if err != nil {
		t.Fatal(err)
	}
	mIn, err := MeasureRates(net, in)
	if err != nil {
		t.Fatal(err)
	}
	if mIn.LinkChangeRate <= mEx.LinkChangeRate {
		t.Errorf("border inclusion should raise λ: %v vs %v", mIn.LinkChangeRate, mEx.LinkChangeRate)
	}
	if mIn.FHello <= mEx.FHello {
		t.Errorf("border inclusion should raise f_hello: %v vs %v", mIn.FHello, mEx.FHello)
	}
}

func TestRateFigureSeriesComplete(t *testing.T) {
	// A reduced Figure-1-style sweep must produce all six series with
	// one point per grid value, and the analysis/simulation pairs must
	// agree within broad factors at every point.
	base := core.Network{N: 200, Density: 4}
	a := base.Side()
	spec := RateFigureSpec{
		Title:  "reduced fig1",
		XLabel: "r/a",
		Base:   base,
		Xs:     []float64{0.12, 0.2},
		Apply: func(net core.Network, x float64) core.Network {
			net.R = x * a
			net.V = 0.005 * a
			return net
		},
	}
	fig, err := RateFigure(spec, fastOptions())
	if err != nil {
		t.Fatal(err)
	}
	if len(fig.Series) != 6 {
		t.Fatalf("want 6 series, got %d", len(fig.Series))
	}
	for _, s := range fig.Series {
		if len(s.Points) != len(spec.Xs) {
			t.Errorf("series %q has %d points, want %d", s.Name, len(s.Points), len(spec.Xs))
		}
	}
	for _, pair := range [][2]string{
		{"f_hello analysis", "f_hello simulation"},
		{"f_cluster analysis", "f_cluster simulation"},
		{"f_route analysis", "f_route simulation"},
	} {
		ana := fig.Lookup(pair[0])
		sim := fig.Lookup(pair[1])
		if ana == nil || sim == nil {
			t.Fatalf("missing series %v", pair)
		}
		for i := range ana.Points {
			if ana.Points[i].Y <= 0 || sim.Points[i].Y <= 0 {
				t.Fatalf("non-positive point in %v at x=%v", pair, ana.Points[i].X)
			}
			ratio := sim.Points[i].Y / ana.Points[i].Y
			if ratio < 0.4 || ratio > 2.5 {
				t.Errorf("%s: sim/analysis = %.2f at x=%v", pair[1], ratio, ana.Points[i].X)
			}
		}
	}
}

func TestFigure4Properties(t *testing.T) {
	tail, ratio, err := Figure4()
	if err != nil {
		t.Fatal(err)
	}
	tailPts := tail.Series[0].Points
	if len(tailPts) != 60 {
		t.Fatalf("want 60 tail points, got %d", len(tailPts))
	}
	// Figure 4(a): the tail vanishes monotonically.
	for i := 1; i < len(tailPts); i++ {
		if tailPts[i].Y > tailPts[i-1].Y+1e-12 {
			t.Fatalf("tail not decreasing at d+1=%v", tailPts[i].X)
		}
	}
	if last := tailPts[len(tailPts)-1].Y; last > 1e-3 {
		t.Errorf("tail at d+1=60 is %v, want ≈0", last)
	}
	// Figure 4(b): exact and approximate P converge.
	exact := ratio.Lookup("P from Eqn (16)")
	approx := ratio.Lookup("P = 1/sqrt(d+1) (Eqn 17)")
	if exact == nil || approx == nil {
		t.Fatal("missing ratio series")
	}
	last := len(exact.Points) - 1
	if e := relErr(exact.Points[last].Y, approx.Points[last].Y); e > 0.05 {
		t.Errorf("exact and approx differ by %.0f%% at d+1=60", e*100)
	}
}

func TestFigure5Reduced(t *testing.T) {
	fig, err := Figure5b(Options{Seed: 7, Workers: 1}, 3)
	if err != nil {
		t.Fatal(err)
	}
	ana := fig.Lookup("analysis (N·P from Eqn 16)")
	sim := fig.Lookup("simulation (LID formation)")
	if ana == nil || sim == nil {
		t.Fatal("missing series")
	}
	// Cluster counts decrease with range in both curves; agreement is
	// tight in the sparse regime and the analysis drifts above the
	// simulation as density grows (EXPERIMENTS.md quantifies this).
	for i := range ana.Points {
		if i > 0 {
			if ana.Points[i].Y >= ana.Points[i-1].Y {
				t.Errorf("analysis clusters not decreasing at r/a=%v", ana.Points[i].X)
			}
			if sim.Points[i].Y >= sim.Points[i-1].Y*1.15 {
				t.Errorf("simulated clusters not (noisily) decreasing at r/a=%v", sim.Points[i].X)
			}
		}
		ratio := sim.Points[i].Y / ana.Points[i].Y
		if ratio < 0.35 || ratio > 1.15 {
			t.Errorf("cluster count sim/analysis = %.2f at r/a=%v", ratio, ana.Points[i].X)
		}
	}
	// Sparse end must agree tightly.
	if first := sim.Points[0].Y / ana.Points[0].Y; first < 0.85 || first > 1.1 {
		t.Errorf("sparse-end ratio = %.2f, want ≈1", first)
	}
}

func TestCountClustersValidation(t *testing.T) {
	net := core.Network{N: 50, R: 1.5, V: 0, Density: 0.5}
	if _, err := countClusters(context.Background(), net, nil, 1, 1, 1); err == nil {
		t.Error("nil policy accepted")
	}
	if _, err := countClusters(context.Background(), net, nil, 0, 1, 1); err == nil {
		t.Error("zero repeats accepted")
	}
}

func TestFitLogLog(t *testing.T) {
	xs := []float64{1, 2, 4, 8}
	ys := []float64{3, 12, 48, 192} // y = 3x²
	slope, err := fitLogLog(xs, ys)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(slope-2) > 1e-9 {
		t.Errorf("slope = %v, want 2", slope)
	}
	if _, err := fitLogLog([]float64{1}, []float64{1}); err == nil {
		t.Error("single point accepted")
	}
	if _, err := fitLogLog([]float64{1, -1}, []float64{1, 1}); err == nil {
		t.Error("negative x accepted")
	}
	if _, err := fitLogLog([]float64{1, 1}, []float64{1, 2}); err == nil {
		t.Error("degenerate spacing accepted")
	}
}
