package experiments

import (
	"context"
	"fmt"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/faults"
	"repro/internal/metrics"
	"repro/internal/netsim"
	"repro/internal/routing"
)

// RecoveryDurations is the partition-duration grid (ticks) of the
// recovery experiment.
var RecoveryDurations = []int64{20, 40, 80}

// Recovery experiment shape: each sweep point runs recoveryWindows full
// partition periods of recoveryPeriod ticks. Within each period the
// network is severed along a fresh random bipartition for the point's
// duration, then healed; the span until cluster invariants and routing
// tables converge is the measured recovery time, with the next onset as
// the SLO deadline. The background pathology (loss, delayed and jittered
// delivery, duplication) stays on throughout so healing is measured
// under realistic medium conditions, not in a calm sea.
const (
	recoveryPeriod  = 240
	recoveryWindows = 4
	recoveryLoss    = 0.05
	recoveryDelay   = 1
	recoveryJitter  = 2
	recoveryDup     = 0.05
)

// recoveryCascadeTicks bounds which violations a heal is held
// accountable for. Under continuous loss, delay and duplication some
// node is almost always mid-handshake or mid-refresh — demanding an
// instant with zero violations network-wide would make "converged" a
// coin flip that gets rarer as N grows. Instead, each heal owns the
// nodes violating when the links come back PLUS any violation run that
// starts within this window after the heal (the knock-on cascade: head
// merges triggering resignations triggering re-affiliations), and
// recovery is complete once every owned node has been observed clean.
// The window is sized at the soft-state TTL (32 ticks = 4 refresh
// cycles, ≫ the 2-tick JOIN retry and the delivery delays of the
// recovery scenarios), long enough to catch the cascade, short enough
// to exclude unrelated steady-state churn.
const recoveryCascadeTicks = 32

// RecoveryPoint is one partition-duration row of the recovery sweep.
type RecoveryPoint struct {
	// DurationTicks is the partition duration of this point; the period
	// (onset-to-onset spacing) is recoveryPeriod ticks.
	DurationTicks int64
	// Heals counts partition heals observed (one per window).
	Heals int
	// Unconverged counts heals whose recovery did not complete before
	// the next partition onset — SLO violations.
	Unconverged int
	// ClusterMeanTicks / ClusterMaxTicks summarize the heal-to-cluster-
	// converged spans: the first post-heal tick at which every node the
	// heal owns (violating the clustering invariants at heal time or
	// within the recoveryCascadeTicks window after it) has been
	// observed invariant-clean — see that constant for why convergence
	// is defined per heal-owned node rather than network-wide.
	ClusterMeanTicks, ClusterMaxTicks float64
	// RouteMeanTicks / RouteMaxTicks summarize the heal-to-route-
	// converged spans: cluster convergence AND every heal-owned route
	// violator (a node owing a route it cannot serve — loop-free,
	// complete, live-hop tables, see routing.RouteViolations) observed
	// clean. Route convergence implies cluster convergence, so these
	// dominate the cluster spans.
	RouteMeanTicks, RouteMaxTicks float64
	// DropRate / DupRate are the realized medium rates over the whole
	// run (empirical check on the fault pipeline), both relative to
	// settled deliveries (Delivered + Dropped). Pending-queue overflow
	// evictions are in neither term, so when a delaying medium overflows
	// the per-receiver bound DropRate reads above the medium's loss
	// probability (see netsim.Tallies.DropRate).
	DropRate, DupRate float64
}

// Recovery measures partition-heal convergence across a grid of
// partition durations. Every point runs the hardened stack (handshake
// cluster maintenance, soft-state distance-vector routing) over a
// medium with loss, delay, jitter, duplication and a periodic moving
// partition; it reports how long cluster and routing state take to
// converge after each heal and whether any heal missed the
// next-onset deadline. Points fan across opts.Workers and each seed
// derives from (opts.Seed, "recovery", i), so the grid is
// bit-reproducible for any worker count.
func Recovery(net core.Network, durations []int64, opts Options) ([]RecoveryPoint, error) {
	opts, err := opts.validate()
	if err != nil {
		return nil, err
	}
	if err := net.Validate(); err != nil {
		return nil, err
	}
	base := opts.Seed
	res, err := RunSweepCtx(opts.context(), opts.sweep("recovery"), len(durations),
		func(ctx context.Context, i int) (RecoveryPoint, error) {
			pointOpts := opts
			pointOpts.Ctx = ctx
			pointOpts.Seed = SweepSeed(base, "recovery", i)
			fcfg := faults.Config{
				Loss:    recoveryLoss,
				Delay:   faults.Delay{BaseTicks: recoveryDelay, JitterTicks: recoveryJitter},
				DupProb: recoveryDup,
				Partition: faults.Partition{
					PeriodTicks:   recoveryPeriod,
					DurationTicks: durations[i],
				},
			}
			pt, err := measureRecovery(net, fcfg, recoveryWindows, pointOpts)
			if err != nil {
				return RecoveryPoint{}, fmt.Errorf("experiments: recovery at duration=%d: %w", durations[i], err)
			}
			return pt, nil
		})
	return res.Results, err
}

// measureRecovery runs one partition-duration point: the hardened stack
// over the full fault pipeline, stepped tick by tick so convergence can
// be audited against the partition schedule.
func measureRecovery(net core.Network, fcfg faults.Config, windows int, opts Options) (RecoveryPoint, error) {
	opts, err := opts.validate()
	if err != nil {
		return RecoveryPoint{}, err
	}
	if err := net.Validate(); err != nil {
		return RecoveryPoint{}, err
	}
	if fcfg.Partition.PeriodTicks <= 0 || fcfg.Partition.DurationTicks <= 0 {
		return RecoveryPoint{}, fmt.Errorf("experiments: recovery needs an enabled partition model")
	}
	cfg, err := opts.SimConfig(net)
	if err != nil {
		return RecoveryPoint{}, err
	}
	inj, err := faults.New(fcfg)
	if err != nil {
		return RecoveryPoint{}, err
	}
	cfg.Medium = inj
	// The engine's default 64-frame per-receiver queue is sized for
	// light delay; a partitioned network healing under multi-tick
	// delays re-floods its whole control state at once, and a
	// too-shallow queue evicts the very JOIN/ACK frames recovery
	// depends on — the retry storm then keeps the queue saturated.
	cfg.PendingLimit = 1024
	sim, err := netsim.New(cfg)
	if err != nil {
		return RecoveryPoint{}, err
	}
	st, err := newHardenedStack(opts.Policy, fcfg.Delay, cfg.Dt)
	if err != nil {
		return RecoveryPoint{}, err
	}
	if err := sim.Register(st.hello, st.maint, st.dv); err != nil {
		return RecoveryPoint{}, err
	}

	period := fcfg.Partition.PeriodTicks
	dur := fcfg.Partition.DurationTicks
	mon := newSLOMonitor(sim, st.maint, st.dv, inj.Alive)
	tick := int64(0)
	step := func() error {
		tick++
		return sim.Step()
	}
	pt := RecoveryPoint{DurationTicks: dur}
	var clusterSum, routeSum int64
	for w := int64(0); w < int64(windows); w++ {
		healTick := w*period + dur
		// The tick before the next onset is the SLO deadline: recovery
		// must complete while the network is whole.
		deadline := (w+1)*period - 1
		for tick < healTick-1 {
			if err := step(); err != nil {
				return RecoveryPoint{}, err
			}
		}
		pt.Heals++
		mon.beginHeal()
		clusterAt, routeAt := int64(-1), int64(-1)
		for tick < healTick || routeAt < 0 && tick < deadline {
			if err := step(); err != nil {
				return RecoveryPoint{}, err
			}
			mon.observe(tick <= healTick+recoveryCascadeTicks)
			if clusterAt < 0 && mon.pendingClusterCount == 0 {
				clusterAt = tick
			}
			if routeAt < 0 && mon.pendingClusterCount == 0 && mon.pendingRouteCount == 0 {
				routeAt = tick
			}
		}
		if routeAt >= 0 {
			cspan, rspan := clusterAt-healTick, routeAt-healTick
			clusterSum += cspan
			routeSum += rspan
			pt.ClusterMaxTicks = maxf(pt.ClusterMaxTicks, float64(cspan))
			pt.RouteMaxTicks = maxf(pt.RouteMaxTicks, float64(rspan))
		} else {
			pt.Unconverged++
		}
		for tick < (w+1)*period-1 {
			if err := step(); err != nil {
				return RecoveryPoint{}, err
			}
		}
	}
	if n := pt.Heals - pt.Unconverged; n > 0 {
		pt.ClusterMeanTicks = float64(clusterSum) / float64(n)
		pt.RouteMeanTicks = float64(routeSum) / float64(n)
	}
	t := sim.Tallies()
	pt.DropRate = t.DropRate()
	if attempts := t.Delivered + t.Dropped; attempts > 0 {
		pt.DupRate = t.Duplicated / attempts
	}
	return pt, nil
}

// sloMonitor tracks the heal-owned violator sets for the two
// convergence conditions: clustering invariants
// (cluster.Maintainer.Violations) and owed routes
// (routing.RouteViolations). A heal owns every node violating while
// the accumulation window is open; an owned node leaves the pending
// set the first time it is observed clean.
type sloMonitor struct {
	env   netsim.Env
	maint *cluster.Maintainer
	dv    *routing.IntraDV
	alive func(netsim.NodeID) bool

	badCluster, badRoute         []bool
	pendingCluster, pendingRoute []bool
	// pendingClusterCount / pendingRouteCount are the live sizes of the
	// pending sets; recovery is complete when both reach zero.
	pendingClusterCount, pendingRouteCount int
}

func newSLOMonitor(env netsim.Env, maint *cluster.Maintainer, dv *routing.IntraDV, alive func(netsim.NodeID) bool) *sloMonitor {
	n := env.NumNodes()
	return &sloMonitor{
		env: env, maint: maint, dv: dv, alive: alive,
		badCluster: make([]bool, n), badRoute: make([]bool, n),
		pendingCluster: make([]bool, n), pendingRoute: make([]bool, n),
	}
}

// beginHeal resets the pending sets for the next heal's measurement.
func (m *sloMonitor) beginHeal() {
	for i := range m.pendingCluster {
		m.pendingCluster[i] = false
		m.pendingRoute[i] = false
	}
	m.pendingClusterCount = 0
	m.pendingRouteCount = 0
}

// observe audits both conditions at the current tick: while accumulate
// is true (the cascade window) current violators join the pending sets,
// and any pending node observed clean leaves them.
func (m *sloMonitor) observe(accumulate bool) {
	m.maint.Violations(m.alive, m.badCluster)
	routing.RouteViolations(m.env, m.maint, m.dv, m.alive, m.badRoute)
	m.pendingClusterCount = settle(m.badCluster, m.pendingCluster, m.pendingClusterCount, accumulate)
	m.pendingRouteCount = settle(m.badRoute, m.pendingRoute, m.pendingRouteCount, accumulate)
}

// settle advances one pending set against the current violation
// snapshot and returns its new size.
func settle(bad, pending []bool, count int, accumulate bool) int {
	for i, b := range bad {
		switch {
		case b && accumulate && !pending[i]:
			pending[i] = true
			count++
		case !b && pending[i]:
			pending[i] = false
			count--
		}
	}
	return count
}

func maxf(a, b float64) float64 {
	if a > b {
		return a
	}
	return b
}

// RecoveryFigure renders the sweep as a figure/CSV: convergence spans
// and SLO violations versus partition duration.
func RecoveryFigure(points []RecoveryPoint) *metrics.Figure {
	fig := &metrics.Figure{
		Title:  "Figure 9: partition-heal convergence vs partition duration (hardened stack)",
		XLabel: "partition duration (ticks)",
		YLabel: "ticks / counts / rates",
	}
	heals := fig.AddSeries("heals")
	unconv := fig.AddSeries("unconverged heals")
	cMean := fig.AddSeries("cluster converge mean (ticks)")
	cMax := fig.AddSeries("cluster converge max (ticks)")
	rMean := fig.AddSeries("route converge mean (ticks)")
	rMax := fig.AddSeries("route converge max (ticks)")
	drop := fig.AddSeries("drop rate")
	dup := fig.AddSeries("dup rate")
	for _, p := range points {
		x := float64(p.DurationTicks)
		heals.Add(x, float64(p.Heals))
		unconv.Add(x, float64(p.Unconverged))
		cMean.Add(x, p.ClusterMeanTicks)
		cMax.Add(x, p.ClusterMaxTicks)
		rMean.Add(x, p.RouteMeanTicks)
		rMax.Add(x, p.RouteMaxTicks)
		drop.Add(x, p.DropRate)
		dup.Add(x, p.DupRate)
	}
	return fig
}

// Figure9 runs the partition-recovery experiment on a mid-size variant
// of the paper's scenario (the per-tick convergence audit is quadratic
// in N, so the figure uses N = 60 rather than Figure 8's N = 400).
// When some sweep points fail, the figure built from the healthy points
// is returned alongside the aggregated error, so callers can render the
// partial result and still exit non-zero.
func Figure9(opts Options) (*metrics.Figure, error) {
	net := core.Network{N: 60, Density: 4}
	a := net.Side()
	net.R = 0.25 * a
	net.V = 0.005 * a
	points, err := Recovery(net, RecoveryDurations, opts)
	healthy := points[:0:0]
	for _, pt := range points {
		// A failed point is the zero value; every measured point
		// observes at least one heal.
		if pt.Heals > 0 {
			healthy = append(healthy, pt)
		}
	}
	return RecoveryFigure(healthy), err
}
