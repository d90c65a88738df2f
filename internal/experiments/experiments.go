// Package experiments reproduces every figure and table of the paper's
// evaluation: the control-message frequency validations of Figures 1–3,
// the LID head-ratio validations of Figures 4–5, and the Θ-notation
// growth-order table of §6, plus the ablations DESIGN.md calls out. Each
// driver returns a metrics.Figure holding the analysis and simulation
// series side by side, ready for CSV or terminal rendering.
package experiments

import (
	"context"
	"fmt"
	"math"
	"time"

	"repro/internal/checkpoint"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/geom"
	"repro/internal/mobility"
	"repro/internal/netsim"
	"repro/internal/routing"
)

// Options tunes how simulation measurements are taken. The zero value is
// not usable; start from DefaultOptions.
type Options struct {
	// Seed roots all randomness.
	Seed uint64
	// Metric selects square (the paper's regime) or torus distances.
	Metric geom.MetricKind
	// Mobility selects the mobility model family used by rate
	// measurements.
	Mobility MobilityKind
	// EpochFrac sets the direction re-draw period of the epoch-RWP
	// model as a fraction of the region transit time a/v.
	EpochFrac float64
	// TargetEvents sizes the measurement window: the run lasts long
	// enough that the analysis predicts about this many link events.
	TargetEvents float64
	// MaxDuration caps the measurement window in simulated time units.
	MaxDuration float64
	// WarmupFrac is the fraction of the measurement window run (and
	// discarded) before counters are snapshotted.
	WarmupFrac float64
	// StepFrac sets the tick length so a node moves r·StepFrac per tick.
	StepFrac float64
	// IncludeBorder counts border (teleport) events and the messages
	// they trigger; the analysis models range-crossing dynamics only,
	// so comparisons leave this false.
	IncludeBorder bool
	// Policy selects the clustering algorithm (default LID, the paper's
	// case study).
	Policy cluster.Policy
	// Workers bounds the worker pool that sweep drivers fan independent
	// points across; 0 or negative selects GOMAXPROCS. Results are
	// bit-identical for any value — see RunSweep.
	Workers int

	// Ctx optionally carries cancellation into every simulation these
	// options drive: sweeps stop claiming new points once it is
	// cancelled and in-flight simulations abort cooperatively within
	// one tick (netsim.ErrStopped). nil behaves like
	// context.Background() and keeps the engine on its exact historical
	// code path. Carrying the context in Options (rather than a
	// parameter on every driver) is deliberate: it must reach dozens of
	// figure, table and ablation drivers uniformly.
	Ctx context.Context
	// Journal, when non-nil, checkpoints every completed sweep point
	// and replays journaled points on resume — see RunSweepCtx and
	// internal/checkpoint. Results are byte-identical with or without
	// it.
	Journal *checkpoint.Journal
	// PointDeadline bounds the wall-clock time of one sweep point; a
	// runaway point is aborted cooperatively and reported as
	// ErrPointDeadline. Zero disables the watchdog.
	PointDeadline time.Duration
	// OnProgress, when non-nil, observes every settled sweep point; it
	// may be called concurrently from worker goroutines.
	OnProgress func(Progress)
	// PointFilter, when non-nil, restricts every sweep these options
	// drive to the (sweep, point) pairs for which it returns true —
	// the distributed executor's sharding seam: a worker runs the
	// whole figure driver with a filter that admits only its leased
	// points. Filtered-out points are skipped silently (no error, not
	// Done); partial-tolerant renderers omit them.
	PointFilter func(sweep string, point int) bool
	// OnRecord, when non-nil, observes every successful sweep point as
	// its checksummed checkpoint record — see SweepOptions.OnRecord.
	OnRecord func(rec checkpoint.Record)
}

// context returns the options' context, never nil.
func (o Options) context() context.Context {
	if o.Ctx == nil {
		return context.Background()
	}
	return o.Ctx
}

// sweep assembles the orchestration options for one named sweep. An
// empty name disables journaling (there would be no collision-free
// namespace to store points under) but keeps cancellation and the
// deadline watchdog.
func (o Options) sweep(name string) SweepOptions {
	s := SweepOptions{
		Name:          name,
		Workers:       o.Workers,
		Seed:          o.Seed,
		Journal:       o.Journal,
		PointDeadline: o.PointDeadline,
		OnProgress:    o.OnProgress,
		OnRecord:      o.OnRecord,
	}
	if o.PointFilter != nil {
		filter := o.PointFilter
		s.PointSet = func(i int) bool { return filter(name, i) }
	}
	if name == "" {
		s.Journal = nil
	}
	return s
}

// stopCheck adapts a context to the engine's cooperative stop-check;
// the mapping (background-like contexts keep the nil zero-overhead
// path) lives in netsim.StopFromContext so every caller — sweeps, CLI
// drains, the service daemon's per-job deadline watchdogs — shares one
// seam.
func stopCheck(ctx context.Context) func() bool {
	return netsim.StopFromContext(ctx)
}

// MobilityKind names the mobility model family used in measurements.
type MobilityKind int

const (
	// MobilityEpochRWP is the paper's simulation model (§4).
	MobilityEpochRWP MobilityKind = iota + 1
	// MobilityBCV is the analysis model itself.
	MobilityBCV
	// MobilityRandomWaypoint is the classic RWP ablation.
	MobilityRandomWaypoint
	// MobilityRandomWalk is the classic random-walk ablation.
	MobilityRandomWalk
	// MobilityRPGM is reference-point group mobility: nodes move in
	// velocity-correlated groups (8 groups, wander radius r/2).
	MobilityRPGM
	// MobilityGaussMarkov is the AR(1) smooth-motion model (α = 0.85).
	MobilityGaussMarkov
)

// DefaultOptions returns the settings used to regenerate the paper's
// figures.
func DefaultOptions() Options {
	return Options{
		Seed:         42,
		Metric:       geom.MetricSquare,
		Mobility:     MobilityEpochRWP,
		EpochFrac:    0.25,
		TargetEvents: 40_000,
		MaxDuration:  2_000,
		WarmupFrac:   0.1,
		StepFrac:     1.0 / 30,
		Policy:       cluster.LID{},
	}
}

// validate fills unset fields and rejects nonsense.
func (o Options) validate() (Options, error) {
	if o.Metric == 0 {
		o.Metric = geom.MetricSquare
	}
	if o.Mobility == 0 {
		o.Mobility = MobilityEpochRWP
	}
	if o.EpochFrac <= 0 {
		o.EpochFrac = 0.25
	}
	if o.TargetEvents <= 0 {
		o.TargetEvents = 40_000
	}
	if o.MaxDuration <= 0 {
		o.MaxDuration = 2_000
	}
	if o.WarmupFrac < 0 || o.WarmupFrac >= 1 {
		return o, fmt.Errorf("experiments: warmup fraction must be in [0,1), got %g", o.WarmupFrac)
	}
	if o.StepFrac == 0 {
		o.StepFrac = 1.0 / 30
	}
	if o.StepFrac < 0 || o.StepFrac > 0.5 {
		return o, fmt.Errorf("experiments: step fraction must be in (0,0.5], got %g", o.StepFrac)
	}
	if o.Policy == nil {
		o.Policy = cluster.LID{}
	}
	return o, nil
}

// SimConfig turns a scenario into the engine configuration of every
// mobile measurement driver: the scenario's size, side and range, the
// options' metric, the mobility model Options.Mobility selects, a tick
// in which a node travels r·StepFrac (a unit tick when the scenario is
// static), the options' seed and a stop-check bound to Options.Ctx.
// Callers set Medium and PendingLimit on the result.
func (o Options) SimConfig(net core.Network) (netsim.Config, error) {
	o, err := o.validate()
	if err != nil {
		return netsim.Config{}, err
	}
	model, err := o.model(net)
	if err != nil {
		return netsim.Config{}, err
	}
	dt := 1.0
	if net.V > 0 {
		dt = net.R * o.StepFrac / net.V
	}
	return netsim.Config{
		N: net.N, Side: net.Side(), Range: net.R,
		Metric: o.Metric, Model: model, Dt: dt, Seed: o.Seed,
		Stop: stopCheck(o.Ctx),
	}, nil
}

// model builds the mobility model Options.Mobility selects for a
// scenario.
func (o Options) model(net core.Network) (mobility.Model, error) {
	switch o.Mobility {
	case MobilityEpochRWP:
		epoch := o.EpochFrac * net.Side() / math.Max(net.V, 1e-9)
		return mobility.EpochRWP{Speed: net.V, Epoch: epoch}, nil
	case MobilityBCV:
		return mobility.BCV{Speed: net.V}, nil
	case MobilityRandomWaypoint:
		return mobility.RandomWaypoint{MinSpeed: net.V, MaxSpeed: net.V, Pause: 0}, nil
	case MobilityRandomWalk:
		epoch := o.EpochFrac * net.Side() / math.Max(net.V, 1e-9)
		return mobility.RandomWalk{MinSpeed: net.V, MaxSpeed: net.V, Epoch: epoch}, nil
	case MobilityRPGM:
		epoch := o.EpochFrac * net.Side() / math.Max(net.V, 1e-9)
		return mobility.NewRPGM(8, net.V, epoch, net.R/2, net.V/4)
	case MobilityGaussMarkov:
		return mobility.GaussMarkov{
			MeanSpeed:  net.V,
			Alpha:      0.85,
			SpeedSigma: net.V / 4,
			DirSigma:   0.4,
			Tick:       o.EpochFrac * net.Side() / math.Max(net.V, 1e-9) / 10,
		}, nil
	default:
		return nil, fmt.Errorf("experiments: unknown mobility kind %d", int(o.Mobility))
	}
}

// Measured holds the per-node simulation measurements of one scenario —
// the quantities the paper's Figures 1–3 plot against the analysis.
type Measured struct {
	// FHello, FCluster and FRoute are per-node message frequencies
	// (messages per node per unit time).
	FHello, FCluster, FRoute float64
	// HeadRatio is the time-averaged empirical cluster-head ratio P.
	HeadRatio float64
	// MeanDegree is the time-averaged node degree (the empirical d).
	MeanDegree float64
	// LinkChangeRate is the measured per-node λ.
	LinkChangeRate float64
	// LinkGenRate is the measured per-node λ_gen.
	LinkGenRate float64
	// Duration is the measurement window length in time units.
	Duration float64
}

// MeasureRates runs one scenario and measures the three per-node control
// message frequencies together with the topology statistics the analysis
// predicts. Border (teleport) artifacts are excluded unless
// opts.IncludeBorder is set.
func MeasureRates(net core.Network, opts Options) (Measured, error) {
	opts, err := opts.validate()
	if err != nil {
		return Measured{}, err
	}
	if err := net.Validate(); err != nil {
		return Measured{}, err
	}
	cfg, err := opts.SimConfig(net)
	if err != nil {
		return Measured{}, err
	}
	duration := measureDuration(net, opts)
	warmup := duration * opts.WarmupFrac

	sim, err := netsim.New(cfg)
	if err != nil {
		return Measured{}, err
	}
	maint, err := cluster.NewMaintainer(opts.Policy, core.DefaultMessageSizes.Cluster)
	if err != nil {
		return Measured{}, err
	}
	hello, err := routing.NewHello(core.DefaultMessageSizes.Hello)
	if err != nil {
		return Measured{}, err
	}
	hybrid, err := routing.NewHybrid(maint, routing.Sizes{
		Entry:     core.DefaultMessageSizes.RouteEntry,
		Discovery: routing.DefaultSizes.Discovery,
		Data:      routing.DefaultSizes.Data,
	})
	if err != nil {
		return Measured{}, err
	}
	// Order matters: clustering settles each event before routing
	// classifies it; hello is independent.
	if err := sim.Register(hello, maint, hybrid); err != nil {
		return Measured{}, err
	}
	if err := sim.Run(warmup); err != nil {
		return Measured{}, err
	}

	var degSum, ratioSum float64
	w, samples, err := measureWindow(sim, int(duration/cfg.Dt), func() {
		degSum += sim.MeanDegree()
		ratioSum += maint.HeadRatio()
	})
	if err != nil {
		return Measured{}, err
	}

	pick := func(kind netsim.MsgKind) float64 {
		if opts.IncludeBorder {
			return w.Of(kind).Msgs
		}
		return w.NonBorderOf(kind).Msgs
	}
	gen, brk := w.LinkGen, w.LinkBrk
	if opts.IncludeBorder {
		gen += w.BorderGen
		brk += w.BorderBrk
	}
	perNode := 1 / (float64(net.N) * duration)
	return Measured{
		FHello:   pick(netsim.MsgHello) * perNode,
		FCluster: pick(netsim.MsgCluster) * perNode,
		FRoute:   pick(netsim.MsgRoute) * perNode,
		// Each link event touches two nodes, so the per-node event rate
		// carries a factor 2.
		LinkChangeRate: 2 * (gen + brk) * perNode,
		LinkGenRate:    2 * gen * perNode,
		HeadRatio:      ratioSum / float64(samples),
		MeanDegree:     degSum / float64(samples),
		Duration:       duration,
	}, nil
}

// measureWindow steps a measurement window of steps ticks, calling
// sample after the first tick and then every steps/200+1 ticks, and
// returns the window's tallies and the number of samples taken.
func measureWindow(sim *netsim.Sim, steps int, sample func()) (netsim.Tallies, int, error) {
	start := sim.Tallies()
	samples := 0
	sampleEvery := steps/200 + 1
	for i := 0; i < steps; i++ {
		if err := sim.Step(); err != nil {
			return netsim.Tallies{}, 0, err
		}
		if i%sampleEvery == 0 {
			sample()
			samples++
		}
	}
	return sim.Tallies().Sub(start), samples, nil
}

// measureDuration sizes the window so the analysis predicts about
// TargetEvents link events, clamped to MaxDuration.
func measureDuration(net core.Network, opts Options) float64 {
	rate := float64(net.N) * net.LinkChangeRate() / 2 // events per unit time
	if rate <= 0 {
		return math.Min(100, opts.MaxDuration)
	}
	return math.Min(opts.TargetEvents/rate, opts.MaxDuration)
}
