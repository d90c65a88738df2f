package core

import (
	"math"
	"strings"
	"testing"
	"testing/quick"
)

func TestMessageSizesValidate(t *testing.T) {
	if err := DefaultMessageSizes.Validate(); err != nil {
		t.Errorf("default sizes invalid: %v", err)
	}
	bad := []MessageSizes{
		{Hello: 0, Cluster: 1, RouteEntry: 1},
		{Hello: 1, Cluster: -1, RouteEntry: 1},
		{Hello: 1, Cluster: 1, RouteEntry: 0},
	}
	for _, s := range bad {
		if err := s.Validate(); err == nil {
			t.Errorf("sizes %+v: want error", s)
		}
	}
}

func TestHelloRateIsGenRate(t *testing.T) {
	n := validNet()
	if got, want := n.HelloRate(), n.LinkGenRate(); !relEq(got, want, 1e-12) {
		t.Errorf("HelloRate = %v, want λ_gen = %v", got, want)
	}
}

func TestClusterRateComposition(t *testing.T) {
	n := validNet()
	const p = 0.25
	got, err := n.ClusterRate(p)
	if err != nil {
		t.Fatal(err)
	}
	member := 16 * n.V * (1 - p) * (1 - p) / (math.Pi * math.Pi * n.R)
	head := n.HeadHeadGenRate(p)
	if !relEq(got, member+head, 1e-12) {
		t.Errorf("ClusterRate = %v, want %v", got, member+head)
	}
	if member <= 0 || head <= 0 {
		t.Errorf("both terms must be positive: %v %v", member, head)
	}
}

// TestClusterRateMemberTermIsEqn6 pins Eqn (6) to Eqn (11): the member
// term of f_cluster is the per-member break rate weighted by the member
// share, (1−P)·MemberHeadBreakClusterRate(P). ClusterRate keeps its own
// inline arithmetic, whose float operation order fixes the committed CSV
// bytes, so the two are compared, not shared.
func TestClusterRateMemberTermIsEqn6(t *testing.T) {
	for _, v := range []float64{0.01, 0.1, 1, 7.5} {
		for _, r := range []float64{0.5, 1.5, 4} {
			n := Network{N: 400, R: r, V: v, Density: 4}
			for _, p := range []float64{0.01, 0.05, 0.1, 0.2, 0.3, 0.5, 0.75, 0.9} {
				total, err := n.ClusterRate(p)
				if err != nil {
					t.Fatal(err)
				}
				got := total - n.HeadHeadGenRate(p)
				want := (1 - p) * n.MemberHeadBreakClusterRate(p)
				if !relEq(got, want, 1e-12) {
					t.Errorf("v=%v r=%v P=%v: ClusterRate − HeadHeadGenRate = %v, want (1−P)·Eqn 6 = %v",
						v, r, p, got, want)
				}
			}
		}
	}
}

func TestClusterRateDegenerateRatios(t *testing.T) {
	n := validNet()
	// P = 1: every node its own head; no member–head links to break, but
	// head–head generations dominate.
	all, err := n.ClusterRate(1)
	if err != nil {
		t.Fatal(err)
	}
	if !relEq(all, n.HeadHeadGenRate(1), 1e-12) {
		t.Errorf("P=1 ClusterRate = %v, want pure head term %v", all, n.HeadHeadGenRate(1))
	}
	for _, p := range []float64{0, -0.1, 1.1} {
		if _, err := n.ClusterRate(p); err == nil {
			t.Errorf("ClusterRate(%v): want error", p)
		}
		if _, err := n.RouteRate(p); err == nil {
			t.Errorf("RouteRate(%v): want error", p)
		}
	}
}

func TestRouteRateFormula(t *testing.T) {
	n := validNet()
	const p = 0.3
	got, err := n.RouteRate(p)
	if err != nil {
		t.Fatal(err)
	}
	want := 8 * n.V * ((1-p)*(1-p) + (1-p)*p) / (math.Pi * math.Pi * n.R * p)
	if !relEq(got, want, 1e-12) {
		t.Errorf("RouteRate = %v, want %v", got, want)
	}
	// Numerator identity: (1−P)² + (1−P)P = (1−P).
	want2 := 8 * n.V * (1 - p) / (math.Pi * math.Pi * n.R * p)
	if !relEq(got, want2, 1e-12) {
		t.Errorf("numerator identity broken: %v vs %v", got, want2)
	}
}

func TestRouteRateGrowsAsClustersShrink(t *testing.T) {
	// Smaller P → bigger clusters → more intra-cluster links → more
	// frequent table rounds.
	n := validNet()
	lo, err := n.RouteRate(0.5)
	if err != nil {
		t.Fatal(err)
	}
	hi, err := n.RouteRate(0.05)
	if err != nil {
		t.Fatal(err)
	}
	if hi <= lo {
		t.Errorf("RouteRate should grow as P shrinks: P=.05 → %v vs P=.5 → %v", hi, lo)
	}
}

func TestControlRatesAndTotals(t *testing.T) {
	n := validNet()
	const p = 0.2
	rates, err := n.ControlRates(p)
	if err != nil {
		t.Fatal(err)
	}
	if rates.Hello <= 0 || rates.Cluster <= 0 || rates.Route <= 0 {
		t.Fatalf("rates must be positive: %+v", rates)
	}
	if !relEq(rates.Total(), rates.Hello+rates.Cluster+rates.Route, 1e-12) {
		t.Error("Rates.Total mismatch")
	}

	ovh, err := n.ControlOverheads(p, DefaultMessageSizes)
	if err != nil {
		t.Fatal(err)
	}
	if !relEq(ovh.Hello, DefaultMessageSizes.Hello*rates.Hello, 1e-12) {
		t.Errorf("O_hello = %v, want p_hello·f_hello", ovh.Hello)
	}
	if !relEq(ovh.Cluster, DefaultMessageSizes.Cluster*rates.Cluster, 1e-12) {
		t.Errorf("O_cluster = %v, want p_cluster·f_cluster", ovh.Cluster)
	}
	wantRoute := DefaultMessageSizes.RouteEntry / p * rates.Route
	if !relEq(ovh.Route, wantRoute, 1e-12) {
		t.Errorf("O_route = %v, want table-size scaled %v", ovh.Route, wantRoute)
	}
	if !relEq(ovh.Total(), ovh.Hello+ovh.Cluster+ovh.Route, 1e-12) {
		t.Error("Overheads.Total mismatch")
	}
}

func TestControlRatesPropagatesValidation(t *testing.T) {
	bad := Network{N: 1, R: 1, V: 1, Density: 1}
	if _, err := bad.ControlRates(0.2); err == nil {
		t.Error("invalid network accepted")
	}
	n := validNet()
	if _, err := n.ControlOverheads(0.2, MessageSizes{}); err == nil {
		t.Error("invalid sizes accepted")
	}
	if _, err := n.ControlOverheads(0, DefaultMessageSizes); err == nil {
		t.Error("invalid ratio accepted")
	}
}

func TestRouteDominatesTotalOverhead(t *testing.T) {
	// §6: "ROUTE message overhead constitutes the main control overhead".
	// With LID's P this must hold across a broad parameter range.
	n := validNet()
	p, err := n.LIDHeadRatio()
	if err != nil {
		t.Fatal(err)
	}
	ovh, err := n.ControlOverheads(p, DefaultMessageSizes)
	if err != nil {
		t.Fatal(err)
	}
	if ovh.Route <= ovh.Hello || ovh.Route <= ovh.Cluster {
		t.Errorf("ROUTE should dominate: %+v", ovh)
	}
}

func TestExpectedClusterSize(t *testing.T) {
	m, err := ExpectedClusterSize(0.25)
	if err != nil {
		t.Fatal(err)
	}
	if m != 4 {
		t.Errorf("ExpectedClusterSize(0.25) = %v, want 4", m)
	}
	if _, err := ExpectedClusterSize(0); err == nil || !strings.Contains(err.Error(), "ratio") {
		t.Errorf("want ratio error, got %v", err)
	}
}

func TestPropertyRatesScaleLinearlyWithSpeed(t *testing.T) {
	// All three frequencies are Θ(v): doubling v doubles every rate.
	f := func(seed uint8) bool {
		v := 0.01 + float64(seed)/256.0
		n1 := Network{N: 400, R: 1.5, V: v, Density: 4}
		n2 := Network{N: 400, R: 1.5, V: 2 * v, Density: 4}
		r1, err1 := n1.ControlRates(0.2)
		r2, err2 := n2.ControlRates(0.2)
		if err1 != nil || err2 != nil {
			return false
		}
		return relEq(2*r1.Hello, r2.Hello, 1e-9) &&
			relEq(2*r1.Cluster, r2.Cluster, 1e-9) &&
			relEq(2*r1.Route, r2.Route, 1e-9)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestPropertyOverheadsNonNegative(t *testing.T) {
	f := func(pRaw, rRaw uint8) bool {
		p := 0.02 + 0.96*float64(pRaw)/255.0
		r := 0.5 + 3*float64(rRaw)/255.0
		n := Network{N: 400, R: r, V: 0.25, Density: 4}
		ovh, err := n.ControlOverheads(p, DefaultMessageSizes)
		if err != nil {
			return false
		}
		return ovh.Hello >= 0 && ovh.Cluster >= 0 && ovh.Route >= 0 &&
			!math.IsNaN(ovh.Total()) && !math.IsInf(ovh.Total(), 0)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestJoinRetransmissionFactor(t *testing.T) {
	// Ideal medium: no retransmissions.
	if f, err := JoinRetransmissionFactor(0); err != nil || f != 1 {
		t.Errorf("factor(0) = (%v, %v), want (1, nil)", f, err)
	}
	// p=0.2: (1/0.64 + 1/0.8)/2 = 1.40625.
	if f, err := JoinRetransmissionFactor(0.2); err != nil || !almostEq(f, 1.40625, 1e-12) {
		t.Errorf("factor(0.2) = (%v, %v), want 1.40625", f, err)
	}
	// Monotone increasing in loss.
	prev := 0.0
	for _, p := range []float64{0, 0.1, 0.3, 0.5, 0.9} {
		f, err := JoinRetransmissionFactor(p)
		if err != nil {
			t.Fatalf("factor(%g): %v", p, err)
		}
		if f <= prev {
			t.Errorf("factor(%g) = %g not increasing (prev %g)", p, f, prev)
		}
		prev = f
	}
	for _, p := range []float64{-0.1, 1, 1.5, math.NaN()} {
		if _, err := JoinRetransmissionFactor(p); err == nil {
			t.Errorf("factor(%g) accepted", p)
		}
	}
}

func TestRatesUnderLoss(t *testing.T) {
	rates, err := validNet().ControlRates(0.2)
	if err != nil {
		t.Fatal(err)
	}
	adj, err := rates.UnderLoss(0.2)
	if err != nil {
		t.Fatal(err)
	}
	// Only CLUSTER inflates; HELLO and ROUTE are sender-clocked.
	if adj.Hello != rates.Hello || adj.Route != rates.Route {
		t.Errorf("loss changed sender-clocked rates: %+v vs %+v", adj, rates)
	}
	if !almostEq(adj.Cluster, rates.Cluster*1.40625, 1e-12) {
		t.Errorf("Cluster = %g, want %g", adj.Cluster, rates.Cluster*1.40625)
	}
	if _, err := rates.UnderLoss(1); err == nil {
		t.Error("loss = 1 accepted")
	}
}
