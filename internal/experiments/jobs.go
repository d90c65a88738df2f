package experiments

import (
	"context"
	"fmt"
	"strconv"
	"strings"

	"repro/internal/core"
	"repro/internal/metrics"
)

// This file holds the job-shaped entry points the service daemon
// (cmd/manetsimd) executes: parameters in, deterministic artifact bytes
// out. Both entry points run through RunSweepCtx, so a job inherits the
// sweep engine's whole robustness contract — per-point checkpoint
// journaling and byte-identical resume (Options.Journal), cooperative
// cancellation and deadline watchdogs (Options.Ctx, through
// netsim.StopFromContext), and panic isolation. Because the rendered
// bytes are a pure function of the replayed point results, a job
// interrupted at any instant and resumed from its journal produces an
// artifact byte-identical to an uninterrupted run — which is also what
// makes the fingerprint-keyed result cache sound.

// SweepPlan describes the point-space of one job-shaped driver: the
// sweep name its journal records are filed under and how many points it
// has. The distributed executor shards this space into leases; because
// the plan is derived from the same grids the drivers sweep, plan and
// driver cannot disagree.
type SweepPlan struct {
	// Sweep is the journal namespace ("fig1", "degradation", ...).
	Sweep string
	// Points is the number of sweep points, indexed 0..Points-1.
	Points int
}

// figureJob is one job-shaped figure driver: its figure id, its sweep
// plan and the driver that renders it.
type figureJob struct {
	id     int
	plan   SweepPlan
	driver func(Options) (*metrics.Figure, error)
}

// figureJobs lists every sweep-shaped, journal-resumable figure driver
// that FigureCSV can execute: 1, 2, 3 (frequency validations), 8 (loss
// degradation) and 9 (partition recovery). Figures 4 and 5 are
// excluded: 4 is closed-form (two panels, no sweep to resume) and 5
// renders paired panels that do not reduce to one CSV artifact.
var figureJobs = []figureJob{
	{1, SweepPlan{Sweep: "fig1", Points: len(Figure1Xs)}, Figure1},
	{2, SweepPlan{Sweep: "fig2", Points: len(Figure2Xs)}, Figure2},
	{3, SweepPlan{Sweep: "fig3", Points: len(Figure3Xs)}, Figure3},
	{8, SweepPlan{Sweep: "degradation", Points: len(DegradationLosses)}, Figure8},
	{9, SweepPlan{Sweep: "recovery", Points: len(RecoveryDurations)}, Figure9},
}

// lookupFigureJob returns the job-shaped driver of a figure id, or an
// error naming the supported ids.
func lookupFigureJob(id int) (figureJob, error) {
	ids := make([]string, len(figureJobs))
	for i, j := range figureJobs {
		if j.id == id {
			return j, nil
		}
		ids[i] = strconv.Itoa(j.id)
	}
	return figureJob{}, fmt.Errorf("experiments: figure %d has no job-shaped driver (supported: %s)", id, strings.Join(ids, ", "))
}

// FigurePlan returns the sweep plan of a job-shaped figure driver. Its
// error for any other id names the supported ones.
func FigurePlan(id int) (SweepPlan, error) {
	j, err := lookupFigureJob(id)
	return j.plan, err
}

// MeasurePlan returns the sweep plan of the single-point measure job.
func MeasurePlan() SweepPlan { return SweepPlan{Sweep: "measure", Points: 1} }

// FigureCSV runs one job-shaped figure driver and renders its CSV
// artifact. When the sweep is cut short (cancellation, deadline, point
// failure) the bytes of the valid partial figure are returned alongside
// the error, so callers can persist a partial artifact that is a strict
// prefix-subset of the complete one.
func FigureCSV(id int, opts Options) ([]byte, error) {
	j, err := lookupFigureJob(id)
	if err != nil {
		return nil, err
	}
	f, err := j.driver(opts)
	if f == nil || !figureHasPoints(f) {
		return nil, err
	}
	return []byte(f.CSV()), err
}

// figureHasPoints reports whether any series of the figure holds data.
func figureHasPoints(f *metrics.Figure) bool {
	for _, s := range f.Series {
		if len(s.Points) > 0 {
			return true
		}
	}
	return false
}

// MeasureCSV measures one scenario (MeasureRates plus the paper's
// analytic predictions at the measured head ratio) and renders it as a
// one-row CSV artifact. The measurement runs as a single-point
// orchestrated sweep under the name "measure", so it is journaled,
// resumable, deadline-bounded and panic-isolated exactly like the
// figure sweeps.
func MeasureCSV(net core.Network, opts Options) ([]byte, error) {
	if err := net.Validate(); err != nil {
		return nil, err
	}
	res, err := RunSweepCtx(opts.context(), opts.sweep("measure"), 1,
		func(ctx context.Context, _ int) (ratePoint, error) {
			o := opts
			o.Ctx = ctx
			meas, err := MeasureRates(net, o)
			if err != nil {
				return ratePoint{}, err
			}
			rates, err := net.ControlRates(meas.HeadRatio)
			if err != nil {
				return ratePoint{}, err
			}
			return ratePoint{Meas: meas, Rates: rates}, nil
		})
	if err != nil {
		return nil, err
	}
	p := res.Results[0]
	var b strings.Builder
	b.WriteString("duration,mean_degree,mean_degree_analysis,link_change_rate,link_change_rate_analysis,head_ratio,f_hello,f_hello_analysis,f_cluster,f_cluster_analysis,f_route,f_route_analysis\n")
	fmt.Fprintf(&b, "%g,%g,%g,%g,%g,%g,%g,%g,%g,%g,%g,%g\n",
		p.Meas.Duration,
		p.Meas.MeanDegree, net.ExpectedNeighbors(),
		p.Meas.LinkChangeRate, net.LinkChangeRate(),
		p.Meas.HeadRatio,
		p.Meas.FHello, p.Rates.Hello,
		p.Meas.FCluster, p.Rates.Cluster,
		p.Meas.FRoute, p.Rates.Route)
	return []byte(b.String()), nil
}
