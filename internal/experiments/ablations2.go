package experiments

import (
	"context"
	"fmt"
	"math"

	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/netsim"
	"repro/internal/routing"
)

// GroupMobilityRow compares clustering dynamics under independent
// (epoch-RWP) and group-correlated (RPGM) mobility at one speed.
type GroupMobilityRow struct {
	Model          string
	LinkChangeRate float64
	FCluster       float64
	HeadRatio      float64
}

// AblationGroupMobility measures how correlated motion changes the
// clustering economy: under RPGM, co-group nodes share velocity, so
// links inside a group persist and CLUSTER maintenance traffic collapses
// relative to independent mobility at the same nominal speed — the
// scenario family (platoons, squads) that clustered MANETs were designed
// for. The analysis column does not apply to RPGM (Claim 2 assumes
// independent headings); the comparison is sim-vs-sim.
func AblationGroupMobility(opts Options) ([]GroupMobilityRow, error) {
	opts, err := opts.validate()
	if err != nil {
		return nil, err
	}
	net := ablationBase()
	kinds := []MobilityKind{MobilityEpochRWP, MobilityRPGM}
	res, err := RunSweepCtx(opts.context(), opts.sweep("ablation-group-mobility"), len(kinds),
		func(ctx context.Context, i int) (GroupMobilityRow, error) {
			kind := kinds[i]
			o := opts
			o.Ctx = ctx
			o.Mobility = kind
			m, err := MeasureRates(net, o)
			if err != nil {
				return GroupMobilityRow{}, fmt.Errorf("experiments: group mobility %d: %w", int(kind), err)
			}
			name := "epoch-rwp"
			if kind == MobilityRPGM {
				name = "rpgm"
			}
			return GroupMobilityRow{
				Model:          name,
				LinkChangeRate: m.LinkChangeRate,
				FCluster:       m.FCluster,
				HeadRatio:      m.HeadRatio,
			}, nil
		})
	return res.Results, err
}

// GroupMobilityTable renders the comparison.
func GroupMobilityTable(rows []GroupMobilityRow) string {
	header := []string{"mobility", "λ sim", "f_cluster sim", "head ratio P"}
	body := make([][]string, 0, len(rows))
	for _, r := range rows {
		body = append(body, []string{
			r.Model,
			fmt.Sprintf("%.4f", r.LinkChangeRate),
			fmt.Sprintf("%.5f", r.FCluster),
			fmt.Sprintf("%.4f", r.HeadRatio),
		})
	}
	return metrics.RenderTable(header, body)
}

// LifetimeRow compares measured mean link lifetime against the Claim 2
// closed form π²r/(8v) at one transmission range.
type LifetimeRow struct {
	R        float64
	Measured float64
	Analysis float64
	Samples  int
}

// AblationLinkLifetime sweeps the transmission range and measures mean
// link lifetimes with a LifetimeProbe, against E[lifetime] = π²r/(8v) —
// the connection-stability quantity (Cho & Hayes, ref [8]) from which
// Claim 2's rates descend.
func AblationLinkLifetime(opts Options) ([]LifetimeRow, error) {
	opts, err := opts.validate()
	if err != nil {
		return nil, err
	}
	base := ablationBase()
	fracs := []float64{0.08, 0.15, 0.25}
	res, err := RunSweepCtx(opts.context(), opts.sweep("ablation-lifetime"), len(fracs),
		func(ctx context.Context, i int) (LifetimeRow, error) {
			net := base
			net.R = fracs[i] * base.Side()
			o := opts
			o.Ctx = ctx
			cfg, err := o.SimConfig(net)
			if err != nil {
				return LifetimeRow{}, err
			}
			sim, err := netsim.New(cfg)
			if err != nil {
				return LifetimeRow{}, err
			}
			probe := netsim.NewLifetimeProbe()
			if err := sim.Register(probe); err != nil {
				return LifetimeRow{}, err
			}
			life, err := net.ExpectedLinkLifetime()
			if err != nil {
				return LifetimeRow{}, err
			}
			// Run long enough to complete a few thousand lifetimes.
			if err := sim.Run(8 * life); err != nil {
				return LifetimeRow{}, err
			}
			return LifetimeRow{
				R:        net.R,
				Measured: probe.MeanLifetime(),
				Analysis: life,
				Samples:  probe.Samples(),
			}, nil
		})
	return res.Results, err
}

// LifetimeTable renders the comparison.
func LifetimeTable(rows []LifetimeRow) string {
	header := []string{"r", "mean lifetime sim", "π²r/(8v)", "samples"}
	body := make([][]string, 0, len(rows))
	for _, r := range rows {
		body = append(body, []string{
			fmt.Sprintf("%.2f", r.R),
			fmt.Sprintf("%.2f", r.Measured),
			fmt.Sprintf("%.2f", r.Analysis),
			fmt.Sprintf("%d", r.Samples),
		})
	}
	return metrics.RenderTable(header, body)
}

// HelloScheduleRow compares a periodic beacon schedule against the
// event-driven lower bound at one interval.
type HelloScheduleRow struct {
	Interval float64
	// Rate is the per-node beacon frequency 1/interval.
	Rate float64
	// LowerBoundRate is the event-driven rate (Eqn 4) for reference.
	LowerBoundRate float64
	// StaleFraction is the measured fraction of live links missing from
	// neighbor tables.
	StaleFraction float64
	// AnalysisStale is the UndiscoveredLinkFraction estimate.
	AnalysisStale float64
}

// AblationHelloSchedule quantifies what Eqn (4)'s idealization hides:
// for periodic beacon intervals it measures the per-node HELLO rate and
// the fraction of true links absent from the protocol's neighbor tables,
// against the closed-form staleness estimate 4·v·interval/(π²·r).
func AblationHelloSchedule(opts Options) ([]HelloScheduleRow, error) {
	opts, err := opts.validate()
	if err != nil {
		return nil, err
	}
	net := ablationBase()
	lower := net.HelloRate()
	intervals := []float64{0.5, 2, 8}
	res, err := RunSweepCtx(opts.context(), opts.sweep("ablation-hello-schedule"), len(intervals),
		func(ctx context.Context, idx int) (HelloScheduleRow, error) {
			interval := intervals[idx]
			o := opts
			o.Ctx = ctx
			cfg, err := o.SimConfig(net)
			if err != nil {
				return HelloScheduleRow{}, err
			}
			sim, err := netsim.New(cfg)
			if err != nil {
				return HelloScheduleRow{}, err
			}
			hello, err := routing.NewPeriodicHello(core.DefaultMessageSizes.Hello, interval)
			if err != nil {
				return HelloScheduleRow{}, err
			}
			if err := sim.Register(hello); err != nil {
				return HelloScheduleRow{}, err
			}
			if err := sim.Run(5 * interval); err != nil { // warm the tables
				return HelloScheduleRow{}, err
			}
			// Sample staleness at every tick across a 20-interval window:
			// sampling must not align with the beacon phase, or the tables
			// would always look freshly refreshed.
			var stale, live float64
			for step := 0; step < int(20*interval/cfg.Dt); step++ {
				if err := sim.Step(); err != nil {
					return HelloScheduleRow{}, err
				}
				for i := 0; i < sim.NumNodes(); i++ {
					id := netsim.NodeID(i)
					for _, nb := range sim.Neighbors(id) {
						live++
						if !hello.Knows(id, nb) {
							stale++
						}
					}
				}
			}
			ana, err := net.UndiscoveredLinkFraction(interval)
			if err != nil {
				return HelloScheduleRow{}, err
			}
			return HelloScheduleRow{
				Interval:       interval,
				Rate:           1 / interval,
				LowerBoundRate: lower,
				StaleFraction:  stale / math.Max(live, 1),
				AnalysisStale:  ana,
			}, nil
		})
	return res.Results, err
}

// HelloScheduleTable renders the comparison.
func HelloScheduleTable(rows []HelloScheduleRow) string {
	header := []string{"interval", "beacon rate", "Eqn 4 lower bound", "stale links sim", "stale links analysis"}
	body := make([][]string, 0, len(rows))
	for _, r := range rows {
		body = append(body, []string{
			fmt.Sprintf("%.2g", r.Interval),
			fmt.Sprintf("%.3f", r.Rate),
			fmt.Sprintf("%.3f", r.LowerBoundRate),
			fmt.Sprintf("%.4f", r.StaleFraction),
			fmt.Sprintf("%.4f", r.AnalysisStale),
		})
	}
	return metrics.RenderTable(header, body)
}

// OptimalRatioRow compares LID's operating point with the
// overhead-optimal head ratio at one node speed.
type OptimalRatioRow struct {
	V          float64
	LIDRatio   float64
	LIDTotal   float64
	OptRatio   float64
	OptTotal   float64
	SavingsPct float64
}

// AblationOptimalRatio sweeps node speed and compares LID clustering's
// total analytical overhead against the achievable minimum over P — the
// design question the paper's introduction poses.
func AblationOptimalRatio() ([]OptimalRatioRow, error) {
	base := ablationBase()
	var rows []OptimalRatioRow
	for _, v := range []float64{0.02, 0.05, 0.1, 0.2} {
		net := base
		net.V = v
		lid, err := net.LIDHeadRatioExact()
		if err != nil {
			return nil, err
		}
		lidOvh, err := net.ControlOverheads(lid, core.DefaultMessageSizes)
		if err != nil {
			return nil, err
		}
		pOpt, total, err := net.OverheadAtOptimum(core.DefaultMessageSizes)
		if err != nil {
			return nil, err
		}
		rows = append(rows, OptimalRatioRow{
			V:          v,
			LIDRatio:   lid,
			LIDTotal:   lidOvh.Total(),
			OptRatio:   pOpt,
			OptTotal:   total,
			SavingsPct: 100 * (1 - total/lidOvh.Total()),
		})
	}
	return rows, nil
}

// OptimalRatioTable renders the comparison.
func OptimalRatioTable(rows []OptimalRatioRow) string {
	header := []string{"v", "LID P", "LID bits/node/s", "optimal P*", "optimal bits/node/s", "savings"}
	body := make([][]string, 0, len(rows))
	for _, r := range rows {
		body = append(body, []string{
			fmt.Sprintf("%.2g", r.V),
			fmt.Sprintf("%.3f", r.LIDRatio),
			fmt.Sprintf("%.1f", r.LIDTotal),
			fmt.Sprintf("%.3f", r.OptRatio),
			fmt.Sprintf("%.1f", r.OptTotal),
			fmt.Sprintf("%.0f%%", r.SavingsPct),
		})
	}
	return metrics.RenderTable(header, body)
}
