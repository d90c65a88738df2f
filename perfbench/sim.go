package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/faults"
	"repro/internal/metrics"
	"repro/internal/mobility"
	"repro/internal/netsim"
	"repro/internal/routing"
)

// simTally is what a traced op reports besides its output: per-layer
// clocks and the engine counters of the whole run.
type simTally struct {
	clock   *layerClock
	self    [numLayers]float64 // self time (ms), tracing overhead removed
	calls   [numLayers]float64
	tallies netsim.Tallies
	index   float64 // space.IndexStats requery fraction over the whole run
	ticks   float64
	points  []float64 // sweep point latencies (figures only)
	idle    float64   // experiments pool idle fraction (figures only)
}

// finish fixes the tally's self times and call counts from its clock.
func (t *simTally) finish() {
	t.self = t.clock.selfMS()
	for l, n := range t.clock.calls {
		t.calls[l] = float64(n)
	}
}

func (t *simTally) add(o *simTally) {
	for l := 0; l < numLayers; l++ {
		t.self[l] += o.self[l]
		t.calls[l] += o.calls[l]
	}
	t.tallies = addTallies(t.tallies, o.tallies)
	t.ticks += o.ticks
	t.points = append(t.points, o.points...)
}

// stepMS is the traced step time with tracing overhead removed: the sum
// of every layer's self time.
func (t *simTally) stepMS() float64 { return sum(t.self[:]) }

// addTallies sums two tally snapshots (Tallies has Sub but no Add).
func addTallies(a, b netsim.Tallies) netsim.Tallies {
	var zero netsim.Tallies
	return a.Sub(zero.Sub(b))
}

// scenarioModel mirrors experiments.Options.model for the epoch-RWP
// family, the only mobility the measured workloads use.
func scenarioModel(net core.Network, opts experiments.Options) mobility.Model {
	epoch := opts.EpochFrac * net.Side() / math.Max(net.V, 1e-9)
	return mobility.EpochRWP{Speed: net.V, Epoch: epoch}
}

// scenarioClock mirrors the experiments package's tick length and
// window sizing (measureStep / measureDuration).
func scenarioClock(net core.Network, opts experiments.Options) (dt, duration float64) {
	dt = 1
	if net.V > 0 {
		dt = net.R * opts.StepFrac / net.V
	}
	rate := float64(net.N) * net.LinkChangeRate() / 2
	if rate <= 0 {
		return dt, math.Min(100, opts.MaxDuration)
	}
	return dt, math.Min(opts.TargetEvents/rate, opts.MaxDuration)
}

// tracedStep runs one engine tick inside a netsim.step frame.
func tracedStep(sim *netsim.Sim, clock *layerClock) error {
	clock.enter(layerStep)
	err := sim.Step()
	clock.exit()
	return err
}

func wrap(clock *layerClock, layer int, p netsim.Protocol) netsim.Protocol {
	return &tracedProtocol{inner: p, clock: clock, layer: layer}
}

// tracedRates rebuilds experiments.MeasureRates (tick core, border
// events excluded) from public constructors with every layer wrapped.
// Its result must equal MeasureRates bit for bit.
func tracedRates(net core.Network, opts experiments.Options) (experiments.Measured, *simTally, error) {
	clock := newLayerClock()
	dt, duration := scenarioClock(net, opts)
	sim, err := netsim.New(netsim.Config{
		N: net.N, Side: net.Side(), Range: net.R,
		Metric: opts.Metric, Model: &tracedModel{inner: scenarioModel(net, opts), clock: clock},
		Dt: dt, Seed: opts.Seed,
	})
	if err != nil {
		return experiments.Measured{}, nil, err
	}
	maint, err := cluster.NewMaintainer(opts.Policy, core.DefaultMessageSizes.Cluster)
	if err != nil {
		return experiments.Measured{}, nil, err
	}
	hello, err := routing.NewHello(core.DefaultMessageSizes.Hello)
	if err != nil {
		return experiments.Measured{}, nil, err
	}
	hybrid, err := routing.NewHybrid(maint, routing.Sizes{
		Entry:     core.DefaultMessageSizes.RouteEntry,
		Discovery: routing.DefaultSizes.Discovery,
		Data:      routing.DefaultSizes.Data,
	})
	if err != nil {
		return experiments.Measured{}, nil, err
	}
	if err := sim.Register(wrap(clock, layerHello, hello), wrap(clock, layerMaint, maint), wrap(clock, layerRoute, hybrid)); err != nil {
		return experiments.Measured{}, nil, err
	}
	for i, n := 0, int(duration*opts.WarmupFrac/dt); i < n; i++ {
		if err := tracedStep(sim, clock); err != nil {
			return experiments.Measured{}, nil, err
		}
	}
	start := sim.Tallies()
	var degSum, ratioSum float64
	samples := 0
	steps := int(duration / dt)
	sampleEvery := steps/200 + 1
	for i := 0; i < steps; i++ {
		if err := tracedStep(sim, clock); err != nil {
			return experiments.Measured{}, nil, err
		}
		if i%sampleEvery == 0 {
			degSum += sim.MeanDegree()
			ratioSum += maint.HeadRatio()
			samples++
		}
	}
	w := sim.Tallies().Sub(start)
	perNode := 1 / (float64(net.N) * duration)
	meas := experiments.Measured{
		FHello:         w.NonBorderOf(netsim.MsgHello).Msgs * perNode,
		FCluster:       w.NonBorderOf(netsim.MsgCluster).Msgs * perNode,
		FRoute:         w.NonBorderOf(netsim.MsgRoute).Msgs * perNode,
		LinkChangeRate: 2 * (w.LinkGen + w.LinkBrk) * perNode,
		LinkGenRate:    2 * w.LinkGen * perNode,
		HeadRatio:      ratioSum / float64(samples),
		MeanDegree:     degSum / float64(samples),
		Duration:       duration,
	}
	return meas, engineTally(sim, clock), nil
}

// engineTally snapshots the engine counters of a whole traced run
// (warm-up included, like the layer clocks).
func engineTally(sim *netsim.Sim, clock *layerClock) *simTally {
	st := sim.IndexStats()
	return &simTally{
		clock:   clock,
		tallies: sim.Tallies(),
		// The initial full build flags every row once; it is not a tick.
		index: float64(st.RequeriedRows-int64(sim.NumNodes())) / (float64(st.Ticks) * float64(sim.NumNodes())),
		ticks: float64(sim.Tick()),
	}
}

// tracedFaulty rebuilds experiments.MeasureFaulty (hardened stack) from
// public constructors with every layer wrapped. Its result must equal
// MeasureFaulty bit for bit.
func tracedFaulty(net core.Network, fcfg faults.Config, opts experiments.Options) (experiments.DegradationPoint, *simTally, error) {
	var zero experiments.DegradationPoint
	clock := newLayerClock()
	dt, duration := scenarioClock(net, opts)
	inj, err := faults.New(fcfg)
	if err != nil {
		return zero, nil, err
	}
	sim, err := netsim.New(netsim.Config{
		N: net.N, Side: net.Side(), Range: net.R,
		Metric: opts.Metric, Model: &tracedModel{inner: scenarioModel(net, opts), clock: clock},
		Dt: dt, Seed: opts.Seed, Medium: &tracedMedium{inner: inj, clock: clock},
	})
	if err != nil {
		return zero, nil, err
	}
	maint, err := cluster.NewMaintainer(opts.Policy, core.DefaultMessageSizes.Cluster)
	if err != nil {
		return zero, nil, err
	}
	retry := 2 + 2*int(math.Ceil(fcfg.Delay.BaseTicks+fcfg.Delay.JitterTicks))
	if err := maint.EnableHandshake(retry); err != nil {
		return zero, nil, err
	}
	hello, err := routing.NewHello(core.DefaultMessageSizes.Hello)
	if err != nil {
		return zero, nil, err
	}
	dv, err := routing.NewIntraDV(maint, core.DefaultMessageSizes.RouteEntry)
	if err != nil {
		return zero, nil, err
	}
	if err := dv.EnableSoftState(8*dt, 32*dt); err != nil {
		return zero, nil, err
	}
	auditor, err := cluster.NewAuditor(maint, inj.Alive)
	if err != nil {
		return zero, nil, err
	}
	if err := sim.Register(wrap(clock, layerHello, hello), wrap(clock, layerMaint, maint),
		wrap(clock, layerRoute, dv), wrap(clock, layerAudit, auditor)); err != nil {
		return zero, nil, err
	}
	for i, n := 0, int(duration*opts.WarmupFrac/dt); i < n; i++ {
		if err := tracedStep(sim, clock); err != nil {
			return zero, nil, err
		}
	}
	start := sim.Tallies()
	var ratioSum float64
	samples := 0
	steps := int(duration / dt)
	sampleEvery := steps/200 + 1
	for i := 0; i < steps; i++ {
		if err := tracedStep(sim, clock); err != nil {
			return zero, nil, err
		}
		if i%sampleEvery == 0 {
			ratioSum += maint.HeadRatio()
			samples++
		}
	}
	w := sim.Tallies().Sub(start)
	headRatio := ratioSum / math.Max(float64(samples), 1)
	rates, err := net.ControlRates(headRatio)
	if err != nil {
		return zero, nil, err
	}
	perNode := 1 / (float64(net.N) * duration)
	mean, max, count := auditor.RepairStats()
	return experiments.DegradationPoint{
		Loss:                 fcfg.Loss,
		FCluster:             w.NonBorderOf(netsim.MsgCluster).Msgs * perNode,
		FClusterBound:        rates.Cluster,
		FRoute:               w.NonBorderOf(netsim.MsgRoute).Msgs * perNode,
		DropRate:             w.DropRate(),
		RepairMeanTicks:      mean,
		RepairMaxTicks:       max,
		RepairCount:          count,
		ViolatedNodeFraction: auditor.ViolatedNodeFraction(),
		HeadRatio:            headRatio,
	}, engineTally(sim, clock), nil
}

// paperFigure is one of the paper's rate figures: its public entry point and
// the grid the benchmark's traced rebuild sweeps.
type paperFigure struct {
	id     int
	run    func(experiments.Options) (*metrics.Figure, error)
	xlabel string
	xs     []float64
	apply  func(x float64) core.Network
}

// paperFigures lists Figures 1–3 with the scenario mapping of
// experiments.Figure1–3 (N = 400; a = 10 for Figures 1 and 2).
func paperFigures() []paperFigure {
	a := core.Network{N: 400, Density: 4}.Side()
	return []paperFigure{
		{1, experiments.Figure1, "r/a", experiments.Figure1Xs, func(x float64) core.Network {
			return core.Network{N: 400, Density: 4, R: x * a, V: 0.005 * a}
		}},
		{2, experiments.Figure2, "v/a", experiments.Figure2Xs, func(x float64) core.Network {
			return core.Network{N: 400, Density: 4, R: 0.075 * a, V: x * a}
		}},
		{3, experiments.Figure3, "density (nodes per unit area)", experiments.Figure3Xs, func(x float64) core.Network {
			return core.Network{N: 400, Density: x, R: 3, V: 0.1}
		}},
	}
}

type ratePoint struct {
	meas  experiments.Measured
	rates core.Rates
}

// tracedFigure regenerates one figure through the public sweep pool
// (experiments.RunSweepCtx, the pool RateFigure uses) with traced
// points, and renders its CSV.
func tracedFigure(f paperFigure, opts experiments.Options, spans *spanLog, parent int64) ([]byte, *simTally, error) {
	pts := make([]*simTally, len(f.xs))
	pointMS := make([]float64, len(f.xs))
	wallStart := time.Now()
	res, err := experiments.RunSweepCtx(context.Background(), experiments.SweepOptions{Workers: opts.Workers}, len(f.xs),
		func(_ context.Context, i int) (ratePoint, error) {
			id, start := spans.begin()
			t0 := time.Now()
			net := f.apply(f.xs[i])
			meas, tally, err := tracedRates(net, opts)
			if err != nil {
				return ratePoint{}, err
			}
			rates, err := net.ControlRates(meas.HeadRatio)
			if err != nil {
				return ratePoint{}, err
			}
			pointMS[i] = ms(time.Since(t0))
			pts[i] = tally
			spans.end(id, parent, fmt.Sprintf("experiments.point fig%d[%d]", f.id, i), start, nil)
			return ratePoint{meas: meas, rates: rates}, nil
		})
	if err != nil {
		return nil, nil, err
	}
	wall := ms(time.Since(wallStart))
	fig := &metrics.Figure{XLabel: f.xlabel}
	helloA := fig.AddSeries("f_hello analysis")
	helloS := fig.AddSeries("f_hello simulation")
	clusterA := fig.AddSeries("f_cluster analysis")
	clusterS := fig.AddSeries("f_cluster simulation")
	routeA := fig.AddSeries("f_route analysis")
	routeS := fig.AddSeries("f_route simulation")
	total := &simTally{clock: newLayerClock()}
	for i, x := range f.xs {
		p := res.Results[i]
		helloA.Add(x, p.rates.Hello)
		helloS.Add(x, p.meas.FHello)
		clusterA.Add(x, p.rates.Cluster)
		clusterS.Add(x, p.meas.FCluster)
		routeA.Add(x, p.rates.Route)
		routeS.Add(x, p.meas.FRoute)
		total.clock.add(pts[i].clock)
		total.tallies = addTallies(total.tallies, pts[i].tallies)
		total.ticks += pts[i].ticks
		total.index += pts[i].index / float64(len(f.xs))
	}
	total.points = pointMS
	total.idle = 1 - sum(pointMS)/(float64(opts.Workers)*wall)
	return []byte(fig.CSV()), total, nil
}

// layerAttrs renders a tally's self times as span attributes.
func layerAttrs(t *simTally) map[string]float64 {
	attrs := map[string]float64{}
	for l := 0; l < numLayers; l++ {
		if t.calls[l] > 0 {
			attrs[layerNames[l]+".self_ms"] = t.self[l]
		}
	}
	return attrs
}

func digest(parts ...[]byte) string {
	h := sha256.New()
	for _, p := range parts {
		h.Write(p)
	}
	return hex.EncodeToString(h.Sum(nil))
}
