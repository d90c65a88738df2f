package main

import (
	"bytes"
	"fmt"
	"io"
	"math"
	"os"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/faults"
	"repro/internal/netsim"
)

// simOp is one op of a simulation workload: an untraced run through the
// program's public entry points and a traced rebuild of the same computation.
// Both render their result as bytes, so equality is byte equality.
type simOp struct {
	name   string
	run    func() ([]byte, error)
	traced func(spans *spanLog, parent int64) ([]byte, *simTally, error)
}

// simInstance runs simulation ops in rounds. Round r runs ops(r), whose
// inputs derive from the workload seed and r, so a run covers as many
// distinct inputs as its time allows and its metrics follow no single
// input's cost. Round 0 is the same for every run of a seed: the
// recorded digests and the other-worker-count check cover it.
type simInstance struct {
	ops    func(round int) []simOp
	rounds int
	// first holds round 0's outputs; last and lastOut the latest
	// untraced round's ops and outputs (nil for an op that failed).
	first    [][]byte
	last     []simOp
	lastOut  [][]byte
	problems []string
	// extra checks round 0's outputs against references that do not
	// come from a round (other worker counts, recorded digests).
	extra func(first [][]byte) []string
	// warmUp runs the untimed warm-up ops of set-up.
	warmUp func() error
}

// warmSeed seeds every warm-up op. It does not depend on the workload
// seed, so set-up is the same CPU work whatever seed a run is given.
const warmSeed = 0x5e79

// warmed runs a freshly built simulation instance's warm-up.
func warmed(s *simInstance, err error) (instance, error) {
	if err != nil {
		return nil, err
	}
	if err := s.warmUp(); err != nil {
		return nil, fmt.Errorf("warm-up: %w", err)
	}
	return s, nil
}

func (s *simInstance) round() (roundResult, error) {
	ops := s.ops(s.rounds)
	s.rounds++
	outs := make([][]byte, len(ops))
	r := roundResult{opMS: make([]float64, len(ops))}
	start := time.Now()
	for i, op := range ops {
		t0 := time.Now()
		out, err := op.run()
		r.opMS[i] = ms(time.Since(t0))
		if err != nil {
			r.opMS[i] = math.NaN()
			s.problems = append(s.problems, fmt.Sprintf("%s: %v", op.name, err))
			continue
		}
		outs[i] = out
	}
	r.seconds = time.Since(start).Seconds()
	if s.first == nil {
		s.first = outs
	}
	s.last, s.lastOut = ops, outs
	return r, nil
}

// tracedRound rebuilds the latest untraced round with every layer
// wrapped; each op must reproduce its untraced output.
func (s *simInstance) tracedRound(spans *spanLog, parent int64) (layers, float64, error) {
	acc := &simLayers{}
	start := time.Now()
	for i, op := range s.last {
		id, begin := spans.begin()
		out, tally, err := op.traced(spans, id)
		if err != nil {
			return nil, 0, fmt.Errorf("%s traced: %w", op.name, err)
		}
		tally.finish()
		spans.end(id, parent, op.name, begin, layerAttrs(tally))
		if s.lastOut[i] != nil && !bytes.Equal(out, s.lastOut[i]) {
			s.problems = append(s.problems, fmt.Sprintf("%s: traced output differs from the untraced run", op.name))
		}
		acc.add(tally)
		acc.n++
	}
	return acc, time.Since(start).Seconds(), nil
}

// verify reports the rounds' failures, runs the latest round's first op
// once more (the same inputs must give the same bytes) and applies the
// round-0 checks.
func (s *simInstance) verify() []string {
	p := append([]string(nil), s.problems...)
	if len(s.last) > 0 && s.lastOut[0] != nil {
		if out, err := s.last[0].run(); err != nil {
			p = append(p, fmt.Sprintf("%s rerun: %v", s.last[0].name, err))
		} else if !bytes.Equal(out, s.lastOut[0]) {
			p = append(p, fmt.Sprintf("%s: a second run differs from the first", s.last[0].name))
		}
	}
	if s.extra != nil && s.first != nil {
		p = append(p, s.extra(s.first)...)
	}
	return p
}

func (s *simInstance) close() error { return nil }

// simLayers sums traced simulation ops.
type simLayers struct {
	simTally
	n       int
	indexes []float64
	idles   []float64
}

func (l *simLayers) add(t *simTally) {
	l.simTally.add(t)
	l.indexes = append(l.indexes, t.index)
	if len(t.points) > 0 {
		l.idles = append(l.idles, t.idle)
	}
}

func (l *simLayers) merge(o layers) {
	m := o.(*simLayers)
	l.simTally.add(&m.simTally)
	l.n += m.n
	l.indexes = append(l.indexes, m.indexes...)
	l.idles = append(l.idles, m.idles...)
}

func (l *simLayers) ops() int { return l.n }

func (l *simLayers) metrics(ops int) map[string]float64 {
	per := func(x float64) float64 { return x / float64(ops) }
	self := l.self
	w := l.tallies
	events := w.LinkGen + w.LinkBrk + w.BorderGen + w.BorderBrk
	m := map[string]float64{
		"mobility.step_ms":     per(self[layerMobility]),
		"netsim.self_ms":       per(self[layerStep]),
		"netsim.ticks":         per(l.ticks),
		"netsim.link_events":   per(events),
		"netsim.deliveries":    per(w.Delivered),
		"netsim.drop_frac":     w.DropRate(),
		"space.requery_frac":   sum(l.indexes) / float64(len(l.indexes)),
		"faults.advance_ms":    per(self[layerAdvance]),
		"faults.deliver_ms":    per(self[layerDeliver]),
		"faults.deliver_calls": per(l.calls[layerDeliver]),
		"cluster.maint_ms":     per(self[layerMaint]),
		"cluster.audit_ms":     per(self[layerAudit]),
		"cluster.msgs":         per(w.Of(netsim.MsgCluster).Msgs),
		"routing.hello_ms":     per(self[layerHello]),
		"routing.route_ms":     per(self[layerRoute]),
		"routing.hello_msgs":   per(w.Of(netsim.MsgHello).Msgs),
		"routing.route_msgs":   per(w.Of(netsim.MsgRoute).Msgs + w.Of(netsim.MsgRouteDiscovery).Msgs),
	}
	if outcomes := w.Delivered + w.Dropped + w.Overflow; outcomes > 0 {
		m["netsim.overflow_frac"] = w.Overflow / outcomes
	}
	if len(l.points) > 0 {
		m["experiments.point_ms_p50"] = median(l.points)
		m["experiments.pool_idle_frac"] = sum(l.idles) / float64(len(l.idles))
	}
	return m
}

func (l *simLayers) describe() string {
	var b strings.Builder
	step := l.stepMS()
	fmt.Fprintf(&b, "share of step time (%.1f ms/op):", step/float64(l.n))
	for i, name := range layerNames {
		fmt.Fprintf(&b, " %s %.3f", name, l.self[i]/step)
	}
	b.WriteString("\n")
	return b.String()
}

// figEvents sizes every paper_figs sweep point (experiments.Options
// TargetEvents); the paper's own runs use 40 000.
const figEvents = 8000

// newPaperFigs sets up paper_figs: Figures 1–3 regenerated through
// experiments.Figure1–3 on two sweep workers, one op per figure. Round r
// regenerates them under its own seed set derived from the workload
// seed: a figure's eight points share one seed, so a run's cost follows
// no single set.
func newPaperFigs(seed uint64, tiny bool) (*simInstance, error) {
	events := float64(figEvents)
	if tiny {
		events = 1000
	}
	optsFor := func(f paperFigure, set, workers int) experiments.Options {
		label := "paper_figs"
		if set > 0 {
			label = fmt.Sprintf("paper_figs/%d", set)
		}
		o := experiments.DefaultOptions()
		o.Seed = experiments.SweepSeed(seed, label, f.id)
		o.TargetEvents = events
		o.Workers = workers
		return o
	}
	figs := paperFigures()
	s := &simInstance{}
	s.ops = func(round int) []simOp {
		var ops []simOp
		for _, f := range figs {
			f, opts := f, optsFor(f, round, 2)
			ops = append(ops, simOp{
				name: fmt.Sprintf("fig%d/%d", f.id, round),
				run: func() ([]byte, error) {
					fig, err := f.run(opts)
					if err != nil {
						return nil, err
					}
					return []byte(fig.CSV()), nil
				},
				traced: func(spans *spanLog, parent int64) ([]byte, *simTally, error) {
					return tracedFigure(f, opts, spans, parent)
				},
			})
		}
		return ops
	}
	s.extra = func(first [][]byte) []string {
		var p []string
		for i, f := range figs {
			if first[i] == nil {
				continue
			}
			fig, err := f.run(optsFor(f, 0, 1))
			if err != nil {
				p = append(p, fmt.Sprintf("fig%d/0 with 1 worker: %v", f.id, err))
				continue
			}
			if !bytes.Equal([]byte(fig.CSV()), first[i]) {
				p = append(p, fmt.Sprintf("fig%d/0: CSV differs between 1 and 2 sweep workers", f.id))
			}
		}
		if !tiny {
			p = append(p, checkDigest(figDigests, "paper_figs", seed, first, os.Stderr)...)
		}
		return p
	}
	// Warm-up: Figure 1 under a fixed seed.
	s.warmUp = func() error {
		o := experiments.DefaultOptions()
		o.Seed = experiments.SweepSeed(warmSeed, "paper_figs", figs[0].id)
		o.TargetEvents = events
		o.Workers = 2
		_, err := figs[0].run(o)
		return err
	}
	return s, nil
}

// checkDigest compares outputs with the digest recorded in table for the
// workload seed. A seed without one skips the check, with a note on log.
func checkDigest(table map[uint64]string, name string, seed uint64, outputs [][]byte, log io.Writer) []string {
	want, ok := table[seed]
	if !ok {
		fmt.Fprintf(log, "perfbench: %s seed %d has no recorded output digest (seeds 0-%d have one); "+
			"its outputs are not checked against the commit that introduced the benchmark\n", name, seed, len(table)-1)
		return nil
	}
	if got := digest(outputs...); got != want {
		return []string{fmt.Sprintf("%s seed %d: output digest %s, recorded %s", name, seed, got, want)}
	}
	return nil
}

// recordDigests prints the digest table of a simulation workload for
// seeds 0..n-1: the SHA-256 of round 0's outputs.
func recordDigests(out io.Writer, name string, n int) error {
	for seed := uint64(0); seed < uint64(n); seed++ {
		var s *simInstance
		var err error
		switch name {
		case "paper_figs":
			s, err = newPaperFigs(seed, false)
		case "lossy_churn":
			s, err = newFaulty(lossyChurn(false), seed)
		case "delay_pipeline":
			s, err = newFaulty(delayPipeline(false), seed)
		default:
			return fmt.Errorf("no digests for workload %q", name)
		}
		if err != nil {
			return err
		}
		if _, err := s.round(); err != nil {
			return err
		}
		if len(s.problems) > 0 {
			return fmt.Errorf("seed %d: %v", seed, s.problems)
		}
		fmt.Fprintf(out, "\t%d: %q,\n", seed, digest(s.first...))
	}
	return nil
}

// faultyParams describes a fault workload: rounds of scenarios, each
// measured with experiments.MeasureFaulty.
type faultyParams struct {
	name      string
	net       core.Network
	faults    faults.Config
	events    float64
	scenarios int // per round
	// warmUps is how many scenarios, under fixed seeds, set-up runs.
	warmUps int
	// digests holds the recorded output digest per workload seed; nil
	// (tiny sizes) skips the check.
	digests map[uint64]string
}

// lossyChurn is the manetsim default scenario (N=400, r=1.5, v=0.05,
// ρ=4) under loss 0.2 and churn 600:60, with no delay. Scenarios are
// short (1000 events, ~0.4 s) and many, so that a run's job_ms_p90 is a
// quantile of 60–80 scenarios rather than of a handful.
func lossyChurn(tiny bool) faultyParams {
	p := faultyParams{
		name:      "lossy_churn",
		net:       core.Network{N: 400, R: 1.5, V: 0.05, Density: 4},
		faults:    faults.Config{Loss: 0.2, Churn: faults.Churn{MeanUpTicks: 600, MeanDownTicks: 60}},
		events:    1000,
		scenarios: 20,
		warmUps:   1,
		digests:   lossyDigests,
	}
	if tiny {
		p.net.N, p.events, p.scenarios, p.digests = 100, 300, 2, nil
	}
	return p
}

// delayPipeline parks every delivery in netsim's pending ring: loss
// 0.05, delay 1, jitter 2, dup 0.05. N is 100 rather than manetsim's 400
// at the same density and range: per-receiver load (degree ≈ 25 against
// the pending bound of 64) is unchanged, but one scenario costs ~0.13 s
// instead of 4–8 s, so a run can average the ~0.45 seed-to-seed
// coefficient of variation over 200–300 scenarios, 96 per round.
// Set-up warms up with 4 scenarios, so that its cost is not one
// scenario's.
func delayPipeline(tiny bool) faultyParams {
	p := faultyParams{
		name: "delay_pipeline",
		net:  core.Network{N: 100, R: 1.5, V: 0.05, Density: 4},
		faults: faults.Config{Loss: 0.05, DupProb: 0.05,
			Delay: faults.Delay{BaseTicks: 1, JitterTicks: 2}},
		events:    100,
		scenarios: 96,
		warmUps:   4,
		digests:   delayDigests,
	}
	if tiny {
		p.scenarios, p.warmUps, p.digests = 2, 1, nil
	}
	return p
}

// newFaulty sets up a fault workload: one op per scenario, each under its
// own seed derived from the workload seed; round r runs scenarios
// r·p.scenarios up to (r+1)·p.scenarios − 1.
func newFaulty(p faultyParams, seed uint64) (*simInstance, error) {
	optsFor := func(seed uint64, i int) experiments.Options {
		opts := experiments.DefaultOptions()
		opts.Seed = experiments.SweepSeed(seed, p.name, i)
		opts.TargetEvents = p.events
		return opts
	}
	s := &simInstance{}
	s.ops = func(round int) []simOp {
		var ops []simOp
		for k := round * p.scenarios; k < (round+1)*p.scenarios; k++ {
			opts := optsFor(seed, k)
			ops = append(ops, simOp{
				name: fmt.Sprintf("%s[%d]", p.name, k),
				run: func() ([]byte, error) {
					pt, err := experiments.MeasureFaulty(p.net, p.faults, opts)
					if err != nil {
						return nil, err
					}
					return faultyBytes(pt)
				},
				traced: func(*spanLog, int64) ([]byte, *simTally, error) {
					pt, tally, err := tracedFaulty(p.net, p.faults, opts)
					if err != nil {
						return nil, nil, err
					}
					out, err := faultyBytes(pt)
					return out, tally, err
				},
			})
		}
		return ops
	}
	if p.digests != nil {
		s.extra = func(first [][]byte) []string {
			return checkDigest(p.digests, p.name, seed, first, os.Stderr)
		}
	}
	// Warm-up: p.warmUps scenarios under fixed seeds.
	s.warmUp = func() error {
		for i := 0; i < p.warmUps; i++ {
			if _, err := experiments.MeasureFaulty(p.net, p.faults, optsFor(warmSeed, i)); err != nil {
				return err
			}
		}
		return nil
	}
	return s, nil
}

// faultyBytes renders a degradation point exactly (%v prints the
// shortest representation that round-trips each float64) and rejects
// values no correct measurement produces.
func faultyBytes(pt experiments.DegradationPoint) ([]byte, error) {
	for _, v := range []float64{pt.FCluster, pt.FClusterBound, pt.FRoute, pt.DropRate, pt.HeadRatio} {
		if math.IsNaN(v) || math.IsInf(v, 0) || v < 0 {
			return nil, fmt.Errorf("implausible degradation point %+v", pt)
		}
	}
	if pt.FClusterBound <= 0 || pt.HeadRatio <= 0 {
		return nil, fmt.Errorf("implausible degradation point %+v", pt)
	}
	return []byte(fmt.Sprintf("%+v", pt)), nil
}
