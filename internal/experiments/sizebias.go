package experiments

import (
	"fmt"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/netsim"
	"repro/internal/routing"
)

// SizeBias quantifies why the measured ROUTE frequency runs above
// Eqn (13): table rounds are triggered by member–head breaks, which
// happen at a rate proportional to (cluster size − 1), and each round
// costs (cluster size) messages — so rounds sample clusters
// size-biased. The mean-field analysis prices every round at the mean
// cluster size m̄, predicting per-node traffic ∝ m̄·(m̄−1)·n, whereas the
// true expectation is E[s·(s−1)]·n over the cluster-size distribution s.
// The ratio
//
//	bias = E[s(s−1)] / (m̄·(m̄−1))
//
// is therefore the predicted f_route overshoot; MeasuredOvershoot is the
// observed sim/analysis ratio on the same run.
type SizeBias struct {
	// MeanSize is m̄, the time-averaged mean cluster size.
	MeanSize float64
	// SecondFactorial is E[s(s−1)].
	SecondFactorial float64
	// BiasFactor is the predicted overshoot E[s(s−1)]/(m̄(m̄−1)).
	BiasFactor float64
	// MeasuredOvershoot is the observed f_route(sim)/f_route(analysis).
	MeasuredOvershoot float64
	// Sizes is the sampled cluster-size histogram.
	Sizes *metrics.Histogram
}

// SizeBiasStudy runs the base scenario, sampling the cluster-size
// distribution alongside the standard rate measurement, and returns the
// predicted and observed ROUTE overshoot factors. Their agreement is
// asserted by TestSizeBiasExplainsRouteOvershoot.
func SizeBiasStudy(opts Options) (SizeBias, error) {
	opts, err := opts.validate()
	if err != nil {
		return SizeBias{}, err
	}
	net := ablationBase()
	cfg, err := opts.SimConfig(net)
	if err != nil {
		return SizeBias{}, err
	}
	duration := measureDuration(net, opts)

	sim, err := netsim.New(cfg)
	if err != nil {
		return SizeBias{}, err
	}
	maint, err := cluster.NewMaintainer(opts.Policy, core.DefaultMessageSizes.Cluster)
	if err != nil {
		return SizeBias{}, err
	}
	hybrid, err := routing.NewHybrid(maint, routing.DefaultSizes)
	if err != nil {
		return SizeBias{}, err
	}
	if err := sim.Register(maint, hybrid); err != nil {
		return SizeBias{}, err
	}
	if err := sim.Run(duration * opts.WarmupFrac); err != nil {
		return SizeBias{}, err
	}

	hist, err := metrics.NewHistogram(0.5, 1, 60)
	if err != nil {
		return SizeBias{}, err
	}
	var sumS, sumS2F, pSum float64
	var samples float64
	w, pSamples, err := measureWindow(sim, int(duration/cfg.Dt), func() {
		for _, sz := range maint.Assignment().ClusterSizes() {
			s := float64(sz)
			hist.Add(s)
			sumS += s
			sumS2F += s * (s - 1)
			samples++
		}
		pSum += maint.HeadRatio()
	})
	if err != nil {
		return SizeBias{}, err
	}

	meanSize := sumS / samples
	secondFactorial := sumS2F / samples
	bias := secondFactorial / (meanSize * (meanSize - 1))

	p := pSum / float64(pSamples)
	analysisRoute, err := net.RouteRate(p)
	if err != nil {
		return SizeBias{}, err
	}
	simRoute := w.NonBorderOf(netsim.MsgRoute).Msgs / (float64(net.N) * duration)

	return SizeBias{
		MeanSize:          meanSize,
		SecondFactorial:   secondFactorial,
		BiasFactor:        bias,
		MeasuredOvershoot: simRoute / analysisRoute,
		Sizes:             hist,
	}, nil
}

// String renders the study compactly.
func (s SizeBias) String() string {
	return fmt.Sprintf(
		"mean cluster size m̄ = %.2f, E[s(s−1)] = %.2f\npredicted ROUTE overshoot (size bias) = %.2f×\nmeasured ROUTE overshoot (sim/analysis) = %.2f×",
		s.MeanSize, s.SecondFactorial, s.BiasFactor, s.MeasuredOvershoot)
}
