// Command manetsim runs one clustered-MANET simulation scenario and
// reports measured topology statistics and per-node control message
// frequencies next to the paper's analytical predictions.
//
// Usage:
//
//	manetsim -n 400 -r 1.5 -v 0.05 -density 4 -policy lid -mobility epoch-rwp
//
// With any of -loss, -churn, -delay, -jitter, -dup or -partition the
// scenario instead runs under deterministic fault injection with the
// hardened protocol stack (JOIN/ACK handshake maintenance, soft-state
// routing tables, sequence-numbered control messages, per-tick
// invariant auditor) and reports overhead inflation and invariant
// time-to-repair:
//
//	manetsim -loss 0.2                 # 20% Bernoulli delivery loss
//	manetsim -churn 400:40             # crash/recover, mean 400 ticks up / 40 down
//	manetsim -delay 1 -jitter 3        # park frames 1 + u·3 ticks (reordering)
//	manetsim -dup 0.1                  # duplicate 10% of deliveries
//	manetsim -partition 240:40         # sever a moving cut 40 of every 240 ticks
//	manetsim -loss 0.1 -churn 800:80   # any combination composes
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"repro/internal/checkpoint"
	"repro/internal/cli"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/faults"
	"repro/internal/metrics"
	"repro/internal/netsim"
	"repro/internal/routing"
	"repro/internal/trace"
)

func main() {
	// Signal handling, drain messaging and exit codes are standardized
	// across all binaries by internal/cli: a SIGINT/SIGTERM drains
	// cooperatively (journal flushed, partial artifacts valid) and
	// exits 128+signal.
	cli.Main("manetsim", cli.OneShot, run)
}

// scenarioFingerprint binds every flag that shapes a measurement into
// the checkpoint journal header, so a -resume with different parameters
// is rejected instead of replaying a mismatched result.
type scenarioFingerprint struct {
	Tool                string
	N                   int
	R, V, Density       float64
	Policy, Mob, Metric string
	Seed                uint64
	Events              float64
	Border              bool
	Loss                float64
	Churn               string
	Delay, Jitter, Dup  float64
	Partition           string
}

func run(ctx context.Context, args []string, out io.Writer) error {
	fs := flag.NewFlagSet("manetsim", flag.ContinueOnError)
	n := fs.Int("n", 400, "number of nodes")
	r := fs.Float64("r", 1.5, "transmission range")
	v := fs.Float64("v", 0.05, "node speed")
	density := fs.Float64("density", 4, "node density ρ")
	policy := fs.String("policy", "lid", "clustering policy: lid, hcc, dmac")
	mob := fs.String("mobility", "epoch-rwp", "mobility model: epoch-rwp, bcv, rwp, random-walk")
	metric := fs.String("metric", "square", "distance metric: square, torus")
	seed := fs.Uint64("seed", 42, "random seed")
	events := fs.Float64("events", 40_000, "target link events for the measurement window")
	border := fs.Bool("border", false, "include border (teleport) events in measurements")
	workers := fs.Int("workers", 0, "worker goroutines for sweep points (0 = GOMAXPROCS; results are identical for any value)")
	traceFile := fs.String("trace", "", "write a JSONL event trace of a 20-time-unit run to this file")
	loss := fs.Float64("loss", 0, "Bernoulli delivery-loss probability p ∈ [0,1) (enables fault injection)")
	churn := fs.String("churn", "", "node crash/recover schedule as meanUpTicks:meanDownTicks, e.g. 400:40")
	delay := fs.Float64("delay", 0, "per-delivery latency floor in ticks (enables fault injection)")
	jitter := fs.Float64("jitter", 0, "uniform jitter width in ticks added to -delay; jittered frames reorder")
	dup := fs.Float64("dup", 0, "per-delivery duplication probability p ∈ [0,1)")
	partition := fs.String("partition", "", "periodic moving-cut partition as periodTicks:durationTicks, e.g. 240:40")
	ckpt := fs.String("checkpoint", "", "journal the completed measurement to this file (crash-safe; see -resume)")
	resume := fs.Bool("resume", false, "resume from an existing -checkpoint journal instead of refusing to overwrite it")
	pointTimeout := fs.Duration("point-timeout", 0, "abort the measurement if it runs longer than this (0 = no limit)")
	if err := fs.Parse(args); err != nil {
		return err
	}

	net := core.Network{N: *n, R: *r, V: *v, Density: *density}
	if err := net.Validate(); err != nil {
		return err
	}
	fcfg := faults.Config{
		Loss:    *loss,
		Delay:   faults.Delay{BaseTicks: *delay, JitterTicks: *jitter},
		DupProb: *dup,
	}
	if *churn != "" {
		c, err := parseChurn(*churn)
		if err != nil {
			return err
		}
		fcfg.Churn = c
	}
	if *partition != "" {
		p, err := parsePartition(*partition)
		if err != nil {
			return err
		}
		fcfg.Partition = p
	}
	if err := fcfg.Validate(); err != nil {
		return err
	}

	opts := experiments.DefaultOptions()
	opts.Seed = *seed
	opts.TargetEvents = *events
	opts.IncludeBorder = *border
	opts.Workers = *workers
	opts.Ctx = ctx
	opts.PointDeadline = *pointTimeout
	names := experiments.ScenarioNames{Metric: *metric, Mobility: *mob, Policy: *policy}
	if err := names.Apply(&opts, *n); err != nil {
		return err
	}

	if *resume && *ckpt == "" {
		return fmt.Errorf("-resume requires -checkpoint")
	}
	if *ckpt != "" {
		if _, err := os.Stat(*ckpt); err == nil && !*resume {
			return fmt.Errorf("checkpoint %s already exists; pass -resume to continue it or remove it to start over", *ckpt)
		}
		fp, err := checkpoint.Fingerprint(scenarioFingerprint{
			Tool: "manetsim", N: *n, R: *r, V: *v, Density: *density,
			Policy: *policy, Mob: *mob, Metric: *metric,
			Seed: *seed, Events: *events, Border: *border,
			Loss: *loss, Churn: *churn,
			Delay: *delay, Jitter: *jitter, Dup: *dup, Partition: *partition,
		})
		if err != nil {
			return err
		}
		j, err := checkpoint.Open(*ckpt, fp)
		if err != nil {
			return err
		}
		defer j.Close()
		opts.Journal = j
	}

	if *traceFile != "" {
		if err := writeTrace(*traceFile, net, opts); err != nil {
			return err
		}
		fmt.Fprintf(out, "trace written to %s\n", *traceFile)
	}

	if fcfg.Active() {
		return runFaulty(ctx, out, net, fcfg, opts)
	}

	m, err := measureOnce(ctx, "measure", opts, func(ctx context.Context) (experiments.Measured, error) {
		o := opts
		o.Ctx = ctx
		return experiments.MeasureRates(net, o)
	})
	if err != nil {
		return err
	}
	rates, err := net.ControlRates(m.HeadRatio)
	if err != nil {
		return err
	}

	fmt.Fprintf(out, "scenario: N=%d r=%g v=%g ρ=%g policy=%s mobility=%s metric=%s\n",
		*n, *r, *v, *density, *policy, *mob, *metric)
	fmt.Fprintf(out, "measured over %.4g time units (seed %d)\n\n", m.Duration, *seed)
	table := metrics.RenderTable(
		[]string{"quantity", "simulation", "analysis"},
		[][]string{
			{"mean degree d", fmt.Sprintf("%.4g", m.MeanDegree), fmt.Sprintf("%.4g", net.ExpectedNeighbors())},
			{"link change rate λ", fmt.Sprintf("%.4g", m.LinkChangeRate), fmt.Sprintf("%.4g", net.LinkChangeRate())},
			{"head ratio P", fmt.Sprintf("%.4g", m.HeadRatio), "(measured P drives analysis)"},
			{"f_hello", fmt.Sprintf("%.5g", m.FHello), fmt.Sprintf("%.5g", rates.Hello)},
			{"f_cluster", fmt.Sprintf("%.5g", m.FCluster), fmt.Sprintf("%.5g", rates.Cluster)},
			{"f_route", fmt.Sprintf("%.5g", m.FRoute), fmt.Sprintf("%.5g", rates.Route)},
		})
	fmt.Fprint(out, table)
	return nil
}

// parsePartition parses a "periodTicks:durationTicks" flag value.
func parsePartition(s string) (faults.Partition, error) {
	var p faults.Partition
	parts := strings.Split(s, ":")
	if len(parts) != 2 {
		return p, fmt.Errorf("partition must be periodTicks:durationTicks, got %q", s)
	}
	if _, err := fmt.Sscanf(parts[0], "%d", &p.PeriodTicks); err != nil {
		return p, fmt.Errorf("partition period ticks %q: %w", parts[0], err)
	}
	if _, err := fmt.Sscanf(parts[1], "%d", &p.DurationTicks); err != nil {
		return p, fmt.Errorf("partition duration ticks %q: %w", parts[1], err)
	}
	return p, nil
}

// parseChurn parses a "meanUpTicks:meanDownTicks" flag value.
func parseChurn(s string) (faults.Churn, error) {
	var c faults.Churn
	parts := strings.Split(s, ":")
	if len(parts) != 2 {
		return c, fmt.Errorf("churn must be meanUpTicks:meanDownTicks, got %q", s)
	}
	if _, err := fmt.Sscanf(parts[0], "%g", &c.MeanUpTicks); err != nil {
		return c, fmt.Errorf("churn mean up ticks %q: %w", parts[0], err)
	}
	if _, err := fmt.Sscanf(parts[1], "%g", &c.MeanDownTicks); err != nil {
		return c, fmt.Errorf("churn mean down ticks %q: %w", parts[1], err)
	}
	return c, nil
}

// measureOnce runs one measurement as a single-point orchestrated sweep,
// so the CLI inherits the engine's crash safety: the finished result is
// journaled (when -checkpoint is set), a -resume replays it without
// re-simulating, SIGINT aborts cooperatively mid-tick, and
// -point-timeout bounds the wall-clock time.
func measureOnce[T any](ctx context.Context, name string, opts experiments.Options, f func(ctx context.Context) (T, error)) (T, error) {
	res, err := experiments.RunSweepCtx(ctx, experiments.SweepOptions{
		Name:          name,
		Workers:       1,
		Seed:          opts.Seed,
		Journal:       opts.Journal,
		PointDeadline: opts.PointDeadline,
	}, 1, func(ctx context.Context, _ int) (T, error) {
		return f(ctx)
	})
	if err != nil {
		var zero T
		return zero, err
	}
	return res.Results[0], nil
}

// runFaulty measures the scenario under fault injection with the
// hardened stack and reports degradation next to the ideal-medium
// analysis.
func runFaulty(ctx context.Context, out io.Writer, net core.Network, fcfg faults.Config, opts experiments.Options) error {
	pt, err := measureOnce(ctx, "measure-faulty", opts, func(ctx context.Context) (experiments.DegradationPoint, error) {
		o := opts
		o.Ctx = ctx
		return experiments.MeasureFaulty(net, fcfg, o)
	})
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "fault injection: loss=%g churn=%+v delay=%g+u·%g dup=%g partition=%+v (seed %d)\n",
		fcfg.Loss, fcfg.Churn, fcfg.Delay.BaseTicks, fcfg.Delay.JitterTicks,
		fcfg.DupProb, fcfg.Partition, opts.Seed)
	fmt.Fprintf(out, "hardened stack: handshake maintenance, soft-state routing, sequenced control messages, invariant auditor\n\n")
	table := metrics.RenderTable(
		[]string{"quantity", "simulation", "ideal-medium analysis"},
		[][]string{
			{"head ratio P", fmt.Sprintf("%.4g", pt.HeadRatio), "(measured P drives analysis)"},
			{"f_cluster", fmt.Sprintf("%.5g", pt.FCluster), fmt.Sprintf("%.5g", pt.FClusterBound)},
			{"f_route", fmt.Sprintf("%.5g", pt.FRoute), "(soft-state refresh traffic)"},
			{"delivery drop rate", fmt.Sprintf("%.4g", pt.DropRate), fmt.Sprintf("%.4g", fcfg.Loss)},
			{"violated-node fraction", fmt.Sprintf("%.4g", pt.ViolatedNodeFraction), "0"},
			{"time-to-repair mean (ticks)", fmt.Sprintf("%.4g", pt.RepairMeanTicks), "0"},
			{"time-to-repair max (ticks)", fmt.Sprintf("%.4g", pt.RepairMaxTicks), "0"},
			{"repaired violation spans", fmt.Sprintf("%d", pt.RepairCount), "0"},
		})
	fmt.Fprint(out, table)
	return nil
}

// writeTrace runs a short traced simulation of the scenario, on the
// engine configuration the measurement drivers use
// (experiments.Options.SimConfig), and writes the JSONL event log.
// The file is written atomically — a crash or an
// abort mid-run leaves either the previous trace or none, never a torn
// one — and close errors surface instead of vanishing in a defer.
func writeTrace(path string, net core.Network, opts experiments.Options) error {
	f, err := checkpoint.CreateAtomic(path)
	if err != nil {
		return err
	}
	defer f.Abort()
	tracer, err := trace.New(f, 1)
	if err != nil {
		return err
	}
	cfg, err := opts.SimConfig(net)
	if err != nil {
		return err
	}
	sim, err := netsim.New(cfg)
	if err != nil {
		return err
	}
	maint, err := cluster.NewMaintainer(opts.Policy, core.DefaultMessageSizes.Cluster)
	if err != nil {
		return err
	}
	hello, err := routing.NewHello(core.DefaultMessageSizes.Hello)
	if err != nil {
		return err
	}
	if err := sim.Register(tracer, hello, maint); err != nil {
		return err
	}
	if err := sim.Run(20); err != nil {
		return err
	}
	if err := tracer.Flush(); err != nil {
		return err
	}
	return f.Commit()
}
