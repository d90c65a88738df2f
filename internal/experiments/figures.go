package experiments

import (
	"context"
	"fmt"

	"repro/internal/core"
	"repro/internal/metrics"
)

// RateFigureSpec describes one frequency-validation sweep (Figures 1–3):
// a base scenario, the swept parameter, and its grid.
type RateFigureSpec struct {
	// Name is the sweep's stable short identifier ("fig1"); it
	// namespaces checkpoint journal records, so it must not change
	// between a run and its resume.
	Name   string
	Title  string
	XLabel string
	Base   core.Network
	Xs     []float64
	// Apply maps one sweep value onto the base scenario.
	Apply func(net core.Network, x float64) core.Network
}

// ratePoint is one measured scenario with its analytic predictions: a
// grid point of a rate figure, or the one point of MeasureCSV. Fields
// are exported so the point survives a JSON round trip through the
// checkpoint journal bit-exactly.
type ratePoint struct {
	Meas  Measured
	Rates core.Rates
}

// RateFigure runs the sweep: at every grid point it simulates the
// scenario, measures the three per-node control message frequencies, and
// evaluates the analysis (Eqns 4, 11, 13) using the *measured* head
// ratio P — exactly the paper's methodology ("P for LID is measured in
// real time during the simulation"). Grid points are independent
// simulations, so they are fanned across opts.Workers; the assembled
// figure is identical for any worker count, and — when opts carries a
// journal — identical whether the sweep ran uninterrupted or was
// interrupted and resumed.
//
// When the sweep is cut short (cancellation, deadline, point failure),
// the figure built from the completed points is returned alongside the
// error, so callers can persist a valid partial CSV.
func RateFigure(spec RateFigureSpec, opts Options) (*metrics.Figure, error) {
	res, err := RunSweepCtx(opts.context(), opts.sweep(spec.Name), len(spec.Xs),
		func(ctx context.Context, i int) (ratePoint, error) {
			pointOpts := opts
			pointOpts.Ctx = ctx
			x := spec.Xs[i]
			net := spec.Apply(spec.Base, x)
			meas, err := MeasureRates(net, pointOpts)
			if err != nil {
				return ratePoint{}, fmt.Errorf("experiments: %s at %s=%g: %w", spec.Title, spec.XLabel, x, err)
			}
			rates, err := net.ControlRates(meas.HeadRatio)
			if err != nil {
				return ratePoint{}, fmt.Errorf("experiments: analysis at %s=%g: %w", spec.XLabel, x, err)
			}
			return ratePoint{Meas: meas, Rates: rates}, nil
		})

	fig := &metrics.Figure{Title: spec.Title, XLabel: spec.XLabel, YLabel: "messages per node per unit time"}
	helloA := fig.AddSeries("f_hello analysis")
	helloS := fig.AddSeries("f_hello simulation")
	clusterA := fig.AddSeries("f_cluster analysis")
	clusterS := fig.AddSeries("f_cluster simulation")
	routeA := fig.AddSeries("f_route analysis")
	routeS := fig.AddSeries("f_route simulation")
	for i, x := range spec.Xs {
		if !res.Done[i] {
			continue
		}
		helloA.Add(x, res.Results[i].Rates.Hello)
		helloS.Add(x, res.Results[i].Meas.FHello)
		clusterA.Add(x, res.Results[i].Rates.Cluster)
		clusterS.Add(x, res.Results[i].Meas.FCluster)
		routeA.Add(x, res.Results[i].Rates.Route)
		routeS.Add(x, res.Results[i].Meas.FRoute)
	}
	return fig, err
}

// The figure grids are package values (rather than literals inside the
// drivers) so the distributed executor's sweep plans — which shard the
// point index space into leases — are derived from the same slice the
// driver sweeps, and can never disagree with it about how many points a
// figure has.
var (
	// Figure1Xs is Figure 1's transmission-range grid (r as a fraction
	// of the border length a).
	Figure1Xs = []float64{0.06, 0.09, 0.12, 0.15, 0.18, 0.22, 0.26, 0.30}
	// Figure2Xs is Figure 2's node-speed grid (v as a fraction of a
	// per unit time).
	Figure2Xs = []float64{0.002, 0.004, 0.006, 0.008, 0.011, 0.014, 0.017, 0.020}
	// Figure3Xs is Figure 3's density grid (nodes per unit area).
	Figure3Xs = []float64{0.5, 0.75, 1.0, 1.5, 2.0, 2.75, 3.5, 4.0}
)

// Figure1 reproduces Figure 1: control message frequencies versus
// transmission range r (expressed as a fraction of the border length a),
// with N = 400 nodes and v = 0.005·a per unit time.
func Figure1(opts Options) (*metrics.Figure, error) {
	base := core.Network{N: 400, Density: 4} // a = 10
	a := base.Side()
	spec := RateFigureSpec{
		Name:   "fig1",
		Title:  "Figure 1: control message frequencies vs transmission range",
		XLabel: "r/a",
		Base:   base,
		Xs:     Figure1Xs,
		Apply: func(net core.Network, x float64) core.Network {
			net.R = x * a
			net.V = 0.005 * a
			return net
		},
	}
	return RateFigure(spec, opts)
}

// Figure2 reproduces Figure 2: control message frequencies versus node
// speed v (as a fraction of a per unit time), with N = 400 and
// r = 0.075·a.
func Figure2(opts Options) (*metrics.Figure, error) {
	base := core.Network{N: 400, Density: 4}
	a := base.Side()
	spec := RateFigureSpec{
		Name:   "fig2",
		Title:  "Figure 2: control message frequencies vs node speed",
		XLabel: "v/a",
		Base:   base,
		Xs:     Figure2Xs,
		Apply: func(net core.Network, x float64) core.Network {
			net.R = 0.075 * a
			net.V = x * a
			return net
		},
	}
	return RateFigure(spec, opts)
}

// Figure3 reproduces Figure 3: control message frequencies versus node
// density ρ, with N = 400, r = 3 and v = 0.1 in absolute units (the
// region side shrinks as density grows: a = √(N/ρ)).
func Figure3(opts Options) (*metrics.Figure, error) {
	spec := RateFigureSpec{
		Name:   "fig3",
		Title:  "Figure 3: control message frequencies vs network density",
		XLabel: "density (nodes per unit area)",
		Base:   core.Network{N: 400},
		Xs:     Figure3Xs,
		Apply: func(net core.Network, x float64) core.Network {
			net.Density = x
			net.R = 3
			net.V = 0.1
			return net
		},
	}
	return RateFigure(spec, opts)
}

// Figure4 reproduces Figure 4's two panels validating the Eqn (16) →
// Eqn (17) approximation: (a) the tail term (1−P)^{d+1} vanishing as the
// closed neighborhood grows, and (b) the exact fixed-point P against the
// closed form 1/√(d+1).
func Figure4() (*metrics.Figure, *metrics.Figure, error) {
	tail := &metrics.Figure{
		Title:  "Figure 4(a): (1-P)^(d+1) vanishes as d+1 grows",
		XLabel: "d+1",
		YLabel: "(1-P)^(d+1)",
	}
	tailS := tail.AddSeries("(1-P)^(d+1) at fixed point")

	ratio := &metrics.Figure{
		Title:  "Figure 4(b): P as a function of d+1",
		XLabel: "d+1",
		YLabel: "P",
	}
	exactS := ratio.AddSeries("P from Eqn (16)")
	approxS := ratio.AddSeries("P = 1/sqrt(d+1) (Eqn 17)")

	for dPlus1 := 2; dPlus1 <= 61; dPlus1++ {
		d := float64(dPlus1 - 1)
		p, err := core.LIDHeadRatioFixedPoint(d)
		if err != nil {
			return nil, nil, err
		}
		tailS.Add(float64(dPlus1), core.LIDTailTerm(p, d))
		exactS.Add(float64(dPlus1), p)
		approxS.Add(float64(dPlus1), core.LIDHeadRatioApprox(d))
	}
	return tail, ratio, nil
}
