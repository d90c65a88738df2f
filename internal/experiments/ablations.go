package experiments

import (
	"context"
	"fmt"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/geom"
	"repro/internal/metrics"
	"repro/internal/netsim"
	"repro/internal/routing"
)

// ablationBase is the common scenario for the design-choice ablations.
func ablationBase() core.Network {
	return core.Network{N: 400, R: 1.5, V: 0.05, Density: 4}
}

// AblationBorderEvents quantifies the border-teleport artifact DESIGN.md
// §4 discusses: the measured per-node link change rate λ with and
// without border events, against the Claim 2 analysis, over a range
// sweep. The gap between "including border" and the analysis grows like
// πr/a — the reason the harness excludes teleports.
func AblationBorderEvents(opts Options) (*metrics.Figure, error) {
	fig := &metrics.Figure{
		Title:  "Ablation: border (teleport) events vs Claim 2",
		XLabel: "r/a",
		YLabel: "per-node link change rate λ",
	}
	ana := fig.AddSeries("analysis λ (Claim 2)")
	excl := fig.AddSeries("simulation, border excluded")
	incl := fig.AddSeries("simulation, border included")

	base := ablationBase()
	a := base.Side()
	fracs := []float64{0.08, 0.12, 0.16, 0.22, 0.30}
	// Flatten (range × border-mode) into one sweep: even index measures
	// with border events excluded, odd with them included.
	res, err := RunSweepCtx(opts.context(), opts.sweep("ablation-border"), 2*len(fracs),
		func(ctx context.Context, t int) (Measured, error) {
			net := base
			net.R = fracs[t/2] * a
			o := opts
			o.Ctx = ctx
			o.IncludeBorder = t%2 == 1
			return MeasureRates(net, o)
		})
	if err != nil {
		return nil, err
	}
	ms := res.Results
	for i, frac := range fracs {
		net := base
		net.R = frac * a
		ana.Add(frac, net.LinkChangeRate())
		excl.Add(frac, ms[2*i].LinkChangeRate)
		incl.Add(frac, ms[2*i+1].LinkChangeRate)
	}
	return fig, nil
}

// AblationTorusMetric compares the square-with-border regime (Claim 1's
// Miller CDF, the paper's choice) against the torus regime (no border
// effects, exactly the unbounded-plane CV model): measured mean degree
// and link change rate against the respective closed forms.
func AblationTorusMetric(opts Options) (*metrics.Figure, error) {
	fig := &metrics.Figure{
		Title:  "Ablation: square vs torus metric",
		XLabel: "r/a",
		YLabel: "mean degree d",
	}
	anaSq := fig.AddSeries("analysis d, square (Miller)")
	simSq := fig.AddSeries("simulation d, square")
	anaTo := fig.AddSeries("analysis d, torus (πρr²)")
	simTo := fig.AddSeries("simulation d, torus")

	base := ablationBase()
	a := base.Side()
	fracs := []float64{0.08, 0.12, 0.16, 0.22, 0.30}
	// Flatten (range × metric) into one sweep: even index square, odd
	// index torus.
	res, err := RunSweepCtx(opts.context(), opts.sweep("ablation-torus"), 2*len(fracs),
		func(ctx context.Context, t int) (Measured, error) {
			net := base
			net.R = fracs[t/2] * a
			o := opts
			o.Ctx = ctx
			o.Metric = geom.MetricSquare
			if t%2 == 1 {
				o.Metric = geom.MetricTorus
			}
			return MeasureRates(net, o)
		})
	if err != nil {
		return nil, err
	}
	ms := res.Results
	for i, frac := range fracs {
		net := base
		net.R = frac * a
		torusD, err := geom.ExpectedNeighborsTorus(net.N, net.R, a)
		if err != nil {
			return nil, err
		}
		anaSq.Add(frac, net.ExpectedNeighbors())
		simSq.Add(frac, ms[2*i].MeanDegree)
		anaTo.Add(frac, torusD)
		simTo.Add(frac, ms[2*i+1].MeanDegree)
	}
	return fig, nil
}

// ClustererComparison measures the paper's algorithm signature — the
// head ratio P — and the resulting CLUSTER message rate for LID, HCC and
// DMAC under one identical mobile scenario. The paper abstracts the
// algorithm into P; this table shows how much P (and hence every
// overhead) actually moves across algorithms.
type ClustererComparison struct {
	Policy     string
	HeadRatio  float64
	AnalysisP  float64
	FCluster   float64
	AnalysisFC float64
}

// AblationClusterers runs the comparison.
func AblationClusterers(opts Options) ([]ClustererComparison, error) {
	net := ablationBase()
	policies := []cluster.Policy{cluster.LID{}, cluster.HCC{}}
	dmac, err := cluster.NewDMAC(dmacWeights(net.N, opts.Seed))
	if err != nil {
		return nil, err
	}
	policies = append(policies, dmac)

	analysisP, err := net.LIDHeadRatioExact()
	if err != nil {
		return nil, err
	}
	// Policies are immutable values (DMAC's weights are read-only), so
	// the measurement runs can share them across workers.
	res, err := RunSweepCtx(opts.context(), opts.sweep("ablation-clusterers"), len(policies),
		func(ctx context.Context, i int) (ClustererComparison, error) {
			pol := policies[i]
			o := opts
			o.Ctx = ctx
			o.Policy = pol
			m, err := MeasureRates(net, o)
			if err != nil {
				return ClustererComparison{}, fmt.Errorf("experiments: clusterer %s: %w", pol.Name(), err)
			}
			anaFC, err := net.ClusterRate(m.HeadRatio)
			if err != nil {
				return ClustererComparison{}, err
			}
			return ClustererComparison{
				Policy:     pol.Name(),
				HeadRatio:  m.HeadRatio,
				AnalysisP:  analysisP,
				FCluster:   m.FCluster,
				AnalysisFC: anaFC,
			}, nil
		})
	return res.Results, err
}

// ClustererTable renders the comparison.
func ClustererTable(rows []ClustererComparison) string {
	header := []string{"policy", "measured P", "LID analysis P", "f_cluster sim", "f_cluster analysis(P)"}
	body := make([][]string, 0, len(rows))
	for _, r := range rows {
		body = append(body, []string{
			r.Policy,
			fmt.Sprintf("%.4f", r.HeadRatio),
			fmt.Sprintf("%.4f", r.AnalysisP),
			fmt.Sprintf("%.5f", r.FCluster),
			fmt.Sprintf("%.5f", r.AnalysisFC),
		})
	}
	return metrics.RenderTable(header, body)
}

// MobilityComparison records one mobility model's measured link dynamics
// against the Claim 2 analysis.
type MobilityComparison struct {
	Model          string
	LinkChangeRate float64
	AnalysisRate   float64
	MeanDegree     float64
	AnalysisDegree float64
}

// AblationMobility measures the per-node link change rate under each
// mobility model against Claim 2 (derived for BCV; the epoch-RWP variant
// is the paper's simulation stand-in; classic RWP and random-walk are
// the models the paper calls analytically unfavorable).
func AblationMobility(opts Options) ([]MobilityComparison, error) {
	net := ablationBase()
	kinds := []struct {
		kind MobilityKind
		name string
	}{
		{MobilityBCV, "bcv"},
		{MobilityEpochRWP, "epoch-rwp"},
		{MobilityRandomWaypoint, "rwp"},
		{MobilityRandomWalk, "random-walk"},
	}
	res, err := RunSweepCtx(opts.context(), opts.sweep("ablation-mobility"), len(kinds),
		func(ctx context.Context, i int) (MobilityComparison, error) {
			k := kinds[i]
			o := opts
			o.Ctx = ctx
			o.Mobility = k.kind
			m, err := MeasureRates(net, o)
			if err != nil {
				return MobilityComparison{}, fmt.Errorf("experiments: mobility %s: %w", k.name, err)
			}
			return MobilityComparison{
				Model:          k.name,
				LinkChangeRate: m.LinkChangeRate,
				AnalysisRate:   net.LinkChangeRate(),
				MeanDegree:     m.MeanDegree,
				AnalysisDegree: net.ExpectedNeighbors(),
			}, nil
		})
	return res.Results, err
}

// MobilityTable renders the comparison.
func MobilityTable(rows []MobilityComparison) string {
	header := []string{"model", "λ sim", "λ analysis", "d sim", "d analysis"}
	body := make([][]string, 0, len(rows))
	for _, r := range rows {
		body = append(body, []string{
			r.Model,
			fmt.Sprintf("%.5f", r.LinkChangeRate),
			fmt.Sprintf("%.5f", r.AnalysisRate),
			fmt.Sprintf("%.2f", r.MeanDegree),
			fmt.Sprintf("%.2f", r.AnalysisDegree),
		})
	}
	return metrics.RenderTable(header, body)
}

// FlatVsHybridRow compares per-node control overhead of flat DSDV
// against the clustered hybrid stack at one network size.
type FlatVsHybridRow struct {
	N          int
	FlatBits   float64
	HybridBits float64
	Ratio      float64
}

// AblationFlatVsHybrid reproduces the paper's motivation (§1): the
// per-node control overhead of flat proactive routing grows with the
// whole network's change rate, while the clustered hybrid protocol
// confines proactive traffic to clusters. Measured in bits per node per
// unit time over identical mobile scenarios of growing size at constant
// density.
func AblationFlatVsHybrid(opts Options) ([]FlatVsHybridRow, error) {
	opts, err := opts.validate()
	if err != nil {
		return nil, err
	}
	sizes := []int{50, 100, 200, 400}
	res, err := RunSweepCtx(opts.context(), opts.sweep("ablation-flat-vs-hybrid"), len(sizes),
		func(ctx context.Context, i int) (FlatVsHybridRow, error) {
			n := sizes[i]
			net := core.Network{N: n, R: 1.5, V: 0.05, Density: 4}
			pointOpts := opts
			pointOpts.Ctx = ctx
			flat, err := measureFlatBits(net, pointOpts)
			if err != nil {
				return FlatVsHybridRow{}, err
			}
			m, err := MeasureRates(net, pointOpts)
			if err != nil {
				return FlatVsHybridRow{}, err
			}
			hybridBits := core.DefaultMessageSizes.Hello*m.FHello +
				core.DefaultMessageSizes.Cluster*m.FCluster +
				core.DefaultMessageSizes.RouteEntry/m.HeadRatio*m.FRoute
			return FlatVsHybridRow{
				N: n, FlatBits: flat, HybridBits: hybridBits, Ratio: flat / hybridBits,
			}, nil
		})
	return res.Results, err
}

// measureFlatBits measures flat DSDV per-node control bits per unit
// time on the scenario.
func measureFlatBits(net core.Network, opts Options) (float64, error) {
	cfg, err := opts.SimConfig(net)
	if err != nil {
		return 0, err
	}
	// Flat DSDV floods N messages per link event; keep the window
	// shorter than the rate measurements to stay cheap.
	duration := measureDuration(net, opts) / 4
	sim, err := netsim.New(cfg)
	if err != nil {
		return 0, err
	}
	dsdv, err := routing.NewFlatDSDV(core.DefaultMessageSizes.RouteEntry)
	if err != nil {
		return 0, err
	}
	hello, err := routing.NewHello(core.DefaultMessageSizes.Hello)
	if err != nil {
		return 0, err
	}
	if err := sim.Register(hello, dsdv); err != nil {
		return 0, err
	}
	if err := sim.Run(duration * opts.WarmupFrac); err != nil {
		return 0, err
	}
	start := sim.Tallies()
	if err := sim.Run(duration); err != nil {
		return 0, err
	}
	w := sim.Tallies().Sub(start)
	bits := w.Of(netsim.MsgRoute).Bits + w.Of(netsim.MsgHello).Bits
	return bits / (float64(net.N) * duration), nil
}

// FlatVsHybridTable renders the comparison.
func FlatVsHybridTable(rows []FlatVsHybridRow) string {
	header := []string{"N", "flat DSDV bits/node/s", "clustered hybrid bits/node/s", "flat / hybrid"}
	body := make([][]string, 0, len(rows))
	for _, r := range rows {
		body = append(body, []string{
			fmt.Sprintf("%d", r.N),
			fmt.Sprintf("%.1f", r.FlatBits),
			fmt.Sprintf("%.1f", r.HybridBits),
			fmt.Sprintf("%.1f×", r.Ratio),
		})
	}
	return metrics.RenderTable(header, body)
}
