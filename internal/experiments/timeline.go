package experiments

import (
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/netsim"
)

// HeadRatioTimeline traces the cluster-head ratio from formation to its
// maintenance equilibrium — the drift behind the methodology note in
// EXPERIMENTS.md. Formation elects heads at the Eqn (16) density
// (≈ 1/√(d+1)); under reactive LCC-style maintenance heads die on
// head–head contact but are born only when a member is orphaned with no
// head in range, so the ratio relaxes to a lower equilibrium over a few
// link-lifetime constants. The figure carries the simulated P(t) plus
// two reference lines: the Eqn (16) formation value and the measured
// equilibrium.
func HeadRatioTimeline(opts Options) (*metrics.Figure, error) {
	opts, err := opts.validate()
	if err != nil {
		return nil, err
	}
	net := ablationBase()
	cfg, err := opts.SimConfig(net)
	if err != nil {
		return nil, err
	}
	dt := cfg.Dt
	life, err := net.ExpectedLinkLifetime()
	if err != nil {
		return nil, err
	}
	duration := 12 * life // several relaxation constants

	sim, err := netsim.New(cfg)
	if err != nil {
		return nil, err
	}
	maint, err := cluster.NewMaintainer(opts.Policy, core.DefaultMessageSizes.Cluster)
	if err != nil {
		return nil, err
	}
	if err := sim.Register(maint); err != nil {
		return nil, err
	}
	if err := sim.Start(); err != nil {
		return nil, err
	}

	fig := &metrics.Figure{
		Title:  "Head ratio relaxation: formation (Eqn 16) to maintenance equilibrium",
		XLabel: "time / E[link lifetime]",
		YLabel: "P",
	}
	simSeries := fig.AddSeries("P(t) simulation")
	formation, err := net.LIDHeadRatioExact()
	if err != nil {
		return nil, err
	}
	formRef := fig.AddSeries("formation P (Eqn 16)")

	steps := int(duration / dt)
	sampleEvery := steps/60 + 1
	var tailSum float64
	tailSamples := 0
	for i := 0; i <= steps; i++ {
		if i%sampleEvery == 0 {
			x := float64(i) * dt / life
			p := maint.HeadRatio()
			simSeries.Add(x, p)
			formRef.Add(x, formation)
			if float64(i) > float64(steps)*0.7 {
				tailSum += p
				tailSamples++
			}
		}
		if i < steps {
			if err := sim.Step(); err != nil {
				return nil, err
			}
		}
	}
	eq := fig.AddSeries("equilibrium P (measured)")
	tailMean := tailSum / float64(tailSamples)
	for _, pt := range simSeries.Points {
		eq.Add(pt.X, tailMean)
	}
	return fig, nil
}
