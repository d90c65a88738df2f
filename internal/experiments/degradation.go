package experiments

import (
	"context"
	"fmt"
	"math"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/faults"
	"repro/internal/metrics"
	"repro/internal/netsim"
	"repro/internal/routing"
)

// DegradationLosses is the loss-rate grid of the degradation experiment.
var DegradationLosses = []float64{0, 0.05, 0.1, 0.2, 0.4}

// DegradationPoint is one measured row of the loss-degradation sweep: the
// scenario is re-run at loss rate Loss with handshake cluster
// maintenance, soft-state distance-vector routing and the invariant
// auditor, and compared against the paper's ideal-medium bound.
type DegradationPoint struct {
	// Loss is the per-delivery Bernoulli loss probability p.
	Loss float64
	// FCluster is the measured per-node CLUSTER frequency; FClusterBound
	// is the paper's Eqn (11) lower bound at the measured head ratio. As
	// p→0 the measurement converges onto the bound; as p grows,
	// JOIN/ACK retransmissions pull it above.
	FCluster, FClusterBound float64
	// FRoute is the measured per-node ROUTE frequency of the soft-state
	// distance-vector tables (refresh traffic included).
	FRoute float64
	// DropRate is Tallies.DropRate over the window: the fraction of
	// settled point deliveries that were lost. Without delay it is the
	// empirical check that the injector realized p. Pending-queue
	// overflow evictions count neither as losses nor as deliveries, so
	// under a delaying medium that overflows the bound it reads above p
	// (about 0.3 at loss 0.05 and delay 1, N=100).
	DropRate float64
	// RepairMeanTicks / RepairMaxTicks / RepairCount summarize the
	// auditor's closed violation spans (time-to-repair).
	RepairMeanTicks, RepairMaxTicks float64
	RepairCount                     int
	// ViolatedNodeFraction is the mean fraction of nodes in violation
	// per tick.
	ViolatedNodeFraction float64
	// HeadRatio is the time-averaged empirical cluster-head ratio.
	HeadRatio float64
}

// Degradation measures clustering and routing overhead as the medium
// degrades: the same scenario is simulated at every loss rate in losses,
// with the hardened stack (handshake maintenance, soft-state DV, per-tick
// invariant auditor). Points are fanned across opts.Workers like every
// other sweep, and each point's seed derives from (opts.Seed,
// "degradation", i) so the grid is bit-reproducible for any worker count.
func Degradation(net core.Network, losses []float64, opts Options) ([]DegradationPoint, error) {
	opts, err := opts.validate()
	if err != nil {
		return nil, err
	}
	if err := net.Validate(); err != nil {
		return nil, err
	}
	base := opts.Seed
	res, err := RunSweepCtx(opts.context(), opts.sweep("degradation"), len(losses),
		func(ctx context.Context, i int) (DegradationPoint, error) {
			pointOpts := opts
			pointOpts.Ctx = ctx
			pointOpts.Seed = SweepSeed(base, "degradation", i)
			pt, err := MeasureFaulty(net, faults.Config{Loss: losses[i]}, pointOpts)
			if err != nil {
				return DegradationPoint{}, fmt.Errorf("experiments: degradation at p=%g: %w", losses[i], err)
			}
			return pt, nil
		})
	return res.Results, err
}

// MeasureFaulty runs one scenario under the hardened protocol stack —
// handshake cluster maintenance, soft-state distance-vector routing and
// the per-tick invariant auditor — over a medium degraded per fcfg, and
// reports the measured overhead next to the paper's ideal-medium bound
// together with the auditor's time-to-repair statistics. It is the
// measurement core of the degradation experiment and of manetsim's
// -loss/-churn mode.
func MeasureFaulty(net core.Network, fcfg faults.Config, opts Options) (DegradationPoint, error) {
	opts, err := opts.validate()
	if err != nil {
		return DegradationPoint{}, err
	}
	if err := net.Validate(); err != nil {
		return DegradationPoint{}, err
	}
	cfg, err := opts.SimConfig(net)
	if err != nil {
		return DegradationPoint{}, err
	}
	duration := measureDuration(net, opts)
	warmup := duration * opts.WarmupFrac

	// An inactive fault config keeps Medium nil: the exact ideal engine
	// path, so the sweep's left edge is the regime the paper analyzes.
	var alive func(netsim.NodeID) bool
	if fcfg.Active() {
		inj, err := faults.New(fcfg)
		if err != nil {
			return DegradationPoint{}, err
		}
		cfg.Medium = inj
		alive = inj.Alive
	}
	sim, err := netsim.New(cfg)
	if err != nil {
		return DegradationPoint{}, err
	}
	st, err := newHardenedStack(opts.Policy, fcfg.Delay, cfg.Dt)
	if err != nil {
		return DegradationPoint{}, err
	}
	auditor, err := cluster.NewAuditor(st.maint, alive)
	if err != nil {
		return DegradationPoint{}, err
	}
	if err := sim.Register(st.hello, st.maint, st.dv, auditor); err != nil {
		return DegradationPoint{}, err
	}
	if err := sim.Run(warmup); err != nil {
		return DegradationPoint{}, err
	}

	var ratioSum float64
	w, samples, err := measureWindow(sim, int(duration/cfg.Dt), func() {
		ratioSum += st.maint.HeadRatio()
	})
	if err != nil {
		return DegradationPoint{}, err
	}

	headRatio := ratioSum / math.Max(float64(samples), 1)
	rates, err := net.ControlRates(headRatio)
	if err != nil {
		return DegradationPoint{}, err
	}
	perNode := 1 / (float64(net.N) * duration)
	mean, max, count := auditor.RepairStats()
	return DegradationPoint{
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
	}, nil
}

// hardenedStack is the protocol stack of the fault experiments:
// handshake cluster maintenance, HELLO and soft-state intra-cluster
// distance-vector routing. Callers register hello, maint and dv in that
// order.
type hardenedStack struct {
	maint *cluster.Maintainer
	hello *routing.Hello
	dv    *routing.IntraDV
}

// newHardenedStack builds the hardened stack for a medium with the
// given delivery delay and a tick of dt time units.
func newHardenedStack(policy cluster.Policy, delay faults.Delay, dt float64) (hardenedStack, error) {
	maint, err := cluster.NewMaintainer(policy, core.DefaultMessageSizes.Cluster)
	if err != nil {
		return hardenedStack{}, err
	}
	// Retry every 2 ticks plus a round trip of the configured delivery
	// latency: fast enough that repairs stay well inside the event
	// timescale, slow enough that a retry never fires while its JOIN or
	// ACK is still in flight (RTT is 2·(Base+Jitter) in the worst case;
	// an earlier retry would double the traffic into a storm). With no
	// delay configured this is the historical 2 ticks.
	retry := 2 + 2*int(math.Ceil(delay.BaseTicks+delay.JitterTicks))
	if err := maint.EnableHandshake(retry); err != nil {
		return hardenedStack{}, err
	}
	hello, err := routing.NewHello(core.DefaultMessageSizes.Hello)
	if err != nil {
		return hardenedStack{}, err
	}
	dv, err := routing.NewIntraDV(maint, core.DefaultMessageSizes.RouteEntry)
	if err != nil {
		return hardenedStack{}, err
	}
	// Refresh every 8 ticks, expire after 4 missed refreshes.
	if err := dv.EnableSoftState(8*dt, 32*dt); err != nil {
		return hardenedStack{}, err
	}
	return hardenedStack{maint: maint, hello: hello, dv: dv}, nil
}

// DegradationFigure renders the sweep as a figure/CSV: overhead and
// repair metrics versus loss rate p.
func DegradationFigure(points []DegradationPoint) *metrics.Figure {
	fig := &metrics.Figure{
		Title:  "Figure 8: overhead degradation vs loss rate (hardened stack)",
		XLabel: "loss rate p",
		YLabel: "messages per node per unit time / ticks",
	}
	clusterA := fig.AddSeries("f_cluster analysis")
	clusterS := fig.AddSeries("f_cluster simulation")
	routeS := fig.AddSeries("f_route simulation")
	drop := fig.AddSeries("drop rate")
	repairMean := fig.AddSeries("repair mean (ticks)")
	repairMax := fig.AddSeries("repair max (ticks)")
	violated := fig.AddSeries("violated node fraction")
	for _, p := range points {
		clusterA.Add(p.Loss, p.FClusterBound)
		clusterS.Add(p.Loss, p.FCluster)
		routeS.Add(p.Loss, p.FRoute)
		drop.Add(p.Loss, p.DropRate)
		repairMean.Add(p.Loss, p.RepairMeanTicks)
		repairMax.Add(p.Loss, p.RepairMaxTicks)
		violated.Add(p.Loss, p.ViolatedNodeFraction)
	}
	return fig
}

// Figure8 runs the degradation experiment on the Figure 1 scenario at
// r = 0.12·a: overhead and invariant-repair time versus loss rate. When
// some sweep points fail, the figure built from the healthy points is
// returned alongside the aggregated error, so callers can render the
// partial result and still exit non-zero.
func Figure8(opts Options) (*metrics.Figure, error) {
	net := core.Network{N: 400, Density: 4}
	a := net.Side()
	net.R = 0.12 * a
	net.V = 0.005 * a
	points, err := Degradation(net, DegradationLosses, opts)
	healthy := points[:0:0]
	for _, pt := range points {
		// A failed point is the zero value; every measured point carries a
		// positive analytic bound.
		if pt.FClusterBound > 0 {
			healthy = append(healthy, pt)
		}
	}
	return DegradationFigure(healthy), err
}
