// Command bench measures the performance envelope of the simulator and
// the sweep engine and writes a machine-readable artifact (BENCH_8.json
// by default):
//
//   - wall-clock time of Figures 1–3 at each requested worker count
//     (-workers), after an untimed warm-up pass, with GOMAXPROCS pinned
//     (-maxprocs) and recorded; every parallel run must render CSV
//     byte-identical to the serial one;
//   - steady-state engine throughput at N=400 (the BENCH_3-comparable
//     row), measured on the ideal medium (must stay zero-alloc), with
//     the fault injector enabled (loss + churn), and with the full
//     delivery pipeline (loss + delay/jitter + duplication + a moving
//     partition);
//   - a node-count scaling sweep (-n, default 1k/10k/100k) at a chosen
//     tile count (-tiles), at the canonical mobility and a low-mobility
//     (1/10 speed) variant: each row records ns/tick, allocs/tick, the
//     fraction of adjacency rows the incremental index re-queried, the
//     naive full-rescan extrapolation from the BENCH_3 engine
//     (283220 ns × N/400) and the speedup against it, plus a
//     serial-vs-tiled equivalence check;
//   - a distributed-sweep speedup row per worker count (-dist-workers):
//     the same figure sweep executed by lease-based manetsimw-style
//     workers against an in-process coordinator, recording wall clock,
//     speedup over one worker, and efficiency — speedup divided by
//     min(workers, host CPUs), so a single-core runner reports the
//     protocol's overhead honestly instead of faking a parallel
//     speedup it cannot physically measure. Every distributed run must
//     merge to an artifact byte-identical to the local serial run;
//   - a storage-seam row: the hot journal-append operation (write one
//     record, fsync) timed through a raw *os.File and through the
//     internal/vfs passthrough the daemon actually uses. The seam's
//     contract is zero added allocations per append; any delta aborts
//     the bench.
//
// Usage:
//
//	bench -out BENCH_5.json -events 4000 -n 1000,10000,100000 -tiles 2
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/checkpoint"
	"repro/internal/experiments"
	"repro/internal/faults"
	"repro/internal/geom"
	"repro/internal/metrics"
	"repro/internal/mobility"
	"repro/internal/netsim"
	"repro/internal/service"
	"repro/internal/vfs"
)

// seedStep records the engine-throughput measurements taken on the
// growth seed revision (linked-list grid cells, sort.Slice adjacency,
// re-slicing message queue, serial sweep drivers) on the same class of
// runner, so the artifact carries the before/after comparison of the
// zero-alloc tick loop.
var seedStep = StepResult{N: 400, Ticks: 2000, NsPerTick: 690119, AllocsPerTick: 800, BytesPerTick: 22458}

// rescanNsN400 is the BENCH_3 full-rescan engine's measured ns/tick on
// the canonical 400-node low-mobility scenario (grid rebuild + every
// pair re-tested + counting-sort CSR, every tick). That engine is
// O(N·density) per tick, so its naive extrapolation to N nodes at
// constant density is rescanNsN400 · N/400 — the baseline the scaling
// rows are judged against.
const rescanNsN400 = 283220.4615

// FigureResult is the artifact entry for one figure driver at one
// worker count.
type FigureResult struct {
	Name    string  `json:"name"`
	Workers int     `json:"workers"`
	Ms      float64 `json:"ms"`
	// SpeedupVsSerial is the workers=1 row's wall-clock over this row's.
	// On a single-core runner it hovers around 1 by construction.
	SpeedupVsSerial float64 `json:"speedup_vs_serial"`
	// MeanRelGap/GapPairs report figure agreement with the paper's
	// analytic curves; identical at every worker count, recorded once on
	// the serial row.
	MeanRelGap float64 `json:"mean_rel_gap,omitempty"`
	GapPairs   int     `json:"gap_pairs,omitempty"`
	// BitIdentical reports whether this run rendered byte-identical CSV
	// to the serial run. Anything but true is a bug.
	BitIdentical bool `json:"bit_identical"`
}

// StepResult is one engine-throughput row of the artifact.
type StepResult struct {
	N     int `json:"n"`
	Tiles int `json:"tiles,omitempty"`
	// Mobility labels scaling rows: "canonical" is the bench speed
	// (0.05 units/s), "low" is a tenth of it. The full-rescan baseline
	// re-tests every pair every tick regardless of speed, so its
	// extrapolation is the same for both; the incremental index is the
	// reason the low row is cheaper, not an easier baseline.
	Mobility      string  `json:"mobility,omitempty"`
	Ticks         int     `json:"ticks"`
	NsPerTick     float64 `json:"ns_per_tick"`
	AllocsPerTick float64 `json:"allocs_per_tick"`
	BytesPerTick  float64 `json:"bytes_per_tick"`
	// RequeryFrac is the fraction of adjacency rows the incremental
	// index re-queried per tick over the measured window (1.0 on the
	// fault rows, where every row is re-queried by design).
	RequeryFrac float64 `json:"requery_frac"`
	// ExtrapolatedRescanNs and SpeedupVsRescan compare against the
	// BENCH_3 full-rescan engine scaled to this N (scaling rows only).
	ExtrapolatedRescanNs float64 `json:"extrapolated_rescan_ns,omitempty"`
	SpeedupVsRescan      float64 `json:"speedup_vs_rescan,omitempty"`
	// TilesBitIdentical reports the serial-vs-tiled cross-check on this
	// scenario (scaling rows only); anything but true is a bug.
	TilesBitIdentical bool `json:"tiles_bit_identical,omitempty"`
}

// DistResult is one distributed-sweep row: the bench figure sweep
// executed end to end by k lease-based workers claiming points from an
// in-process coordinator over HTTP, exactly as cmd/manetsimw does
// against cmd/manetsimd -distributed.
type DistResult struct {
	Workers int     `json:"workers"`
	Ms      float64 `json:"ms"`
	// SpeedupVsOneWorker is the one-worker distributed row's wall clock
	// over this row's.
	SpeedupVsOneWorker float64 `json:"speedup_vs_one_worker"`
	// Efficiency is SpeedupVsOneWorker / min(Workers, HostCPUs): the
	// fraction of the physically available parallelism the lease
	// protocol delivered. On a single-core host min(workers, cpus) is 1,
	// so efficiency ≈ 1 means the protocol adds little overhead — the
	// honest statement a core-starved runner can make, where a raw
	// "speedup at 4 workers" would be measuring the scheduler, not the
	// executor.
	Efficiency float64 `json:"efficiency"`
	// BitIdentical reports whether the merged artifact is byte-identical
	// to the local serial run of the same spec. Anything but true is a
	// bug.
	BitIdentical bool  `json:"bit_identical"`
	PointsMerged int64 `json:"points_merged"`
	// LeasesExpired counts mid-run lease re-dispatches; nonzero under an
	// unperturbed bench run means the TTL is too tight for the host.
	LeasesExpired int64 `json:"leases_expired"`
}

// StorageRow compares the hot journal-append operation — write one
// record, fsync — performed through a raw *os.File against the same
// loop through the internal/vfs passthrough seam the daemon journals
// through. The seam exists so storage faults can be injected in tests;
// its production cost must be nothing, and AllocsDelta is the assertion
// in artifact form: any nonzero value aborts the bench.
type StorageRow struct {
	Ops        int     `json:"ops"`
	RawNsPerOp float64 `json:"raw_ns_per_op"`
	VFSNsPerOp float64 `json:"vfs_ns_per_op"`
	// Overhead is VFSNsPerOp / RawNsPerOp; fsync dominates both sides,
	// so it hovers around 1 with disk noise.
	Overhead  float64 `json:"overhead_vs_raw"`
	RawAllocs float64 `json:"raw_allocs_per_op"`
	VFSAllocs float64 `json:"vfs_allocs_per_op"`
	// AllocsDelta is VFSAllocs - RawAllocs; the seam contract is 0.
	AllocsDelta float64 `json:"allocs_per_op_delta"`
}

// Report is the whole artifact document.
type Report struct {
	GoVersion string `json:"go_version"`
	// GoMaxProcs is the pinned GOMAXPROCS every measurement ran under;
	// HostCPUs is what the machine actually has, so a single-core runner
	// is visible in the artifact rather than masquerading as a parallel
	// speedup measurement.
	GoMaxProcs int `json:"go_maxprocs"`
	HostCPUs   int `json:"host_cpus"`
	// GitSHA and GitDirty pin the measured revision: the commit hash and
	// whether the working tree had uncommitted changes. Empty/false when
	// the binary runs outside a git checkout.
	GitSHA       string         `json:"git_sha,omitempty"`
	GitDirty     bool           `json:"git_dirty,omitempty"`
	Seed         uint64         `json:"seed"`
	TargetEvents float64        `json:"target_events"`
	Figures      []FigureResult `json:"figures,omitempty"`
	Step         StepResult     `json:"step"`
	// StepFaults is the same tick loop with the fault injector enabled
	// (20% Bernoulli loss + node churn); the ratio to Step is the cost of
	// fault injection on the hot path.
	StepFaults StepResult `json:"step_faults"`
	// StepFaultsDelay is the tick loop under the full delivery pipeline
	// (loss + delay/jitter + duplication + a moving partition): every
	// delivery transits the bounded pending queue, so this row proves
	// the parked/re-released path stays zero-alloc in steady state.
	StepFaultsDelay StepResult `json:"step_faults_delay"`
	// StepScaling sweeps the node count at constant density (side grows
	// as √N), two rows per N: the canonical mobility and the low-mobility
	// (1/10 speed) variant.
	StepScaling []StepResult `json:"step_scaling,omitempty"`
	// Distributed holds one row per -dist-workers entry: the lease-based
	// executor's wall clock, speedup and efficiency at that worker count.
	Distributed []DistResult `json:"distributed,omitempty"`
	// Storage is the vfs-seam overhead row on the journal-append path.
	Storage        StorageRow `json:"storage_vfs"`
	SeedStep       StepResult `json:"seed_step"`
	StepSpeedup    float64    `json:"step_speedup_vs_seed"`
	AllocReduction float64    `json:"step_alloc_reduction_vs_seed"`
	// FaultsOverhead is StepFaults.NsPerTick / Step.NsPerTick;
	// PipelineOverhead is StepFaultsDelay.NsPerTick / Step.NsPerTick.
	FaultsOverhead   float64 `json:"step_faults_overhead"`
	PipelineOverhead float64 `json:"step_faults_delay_overhead"`
}

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	outPath := fs.String("out", "BENCH_8.json", "artifact path")
	seed := fs.Uint64("seed", 42, "random seed")
	events := fs.Float64("events", 4_000, "target link events per measured point")
	stepTicks := fs.Int("step-ticks", 2000, "ticks measured per engine-throughput loop at N=400 (scaled down for larger N)")
	nList := fs.String("n", "1000,10000,100000", "comma-separated node counts for the scaling sweep (empty skips it)")
	tiles := fs.Int("tiles", 1, "tile count for the scaling sweep rows")
	workersList := fs.String("workers", "1,2", "comma-separated worker counts for the figure drivers")
	distList := fs.String("dist-workers", "1,2,4", "comma-separated worker counts for the distributed-sweep rows (empty skips them)")
	maxprocs := fs.Int("maxprocs", 0, "pin GOMAXPROCS to this value (0 pins to the host CPU count)")
	stepOnly := fs.Bool("step-only", false, "skip the figure drivers, measure only the tick loops")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *stepTicks < 1 {
		return fmt.Errorf("-step-ticks must be positive, got %d", *stepTicks)
	}
	if *tiles < 1 {
		return fmt.Errorf("-tiles must be positive, got %d", *tiles)
	}
	ns, err := parseIntList(*nList)
	if err != nil {
		return fmt.Errorf("-n: %w", err)
	}
	workers, err := parseIntList(*workersList)
	if err != nil {
		return fmt.Errorf("-workers: %w", err)
	}
	if !*stepOnly && (len(workers) == 0 || workers[0] != 1) {
		// Serial is the baseline every other worker count is compared
		// (and bit-checked) against; it must run first.
		workers = append([]int{1}, workers...)
	}
	distWorkers, err := parseIntList(*distList)
	if err != nil {
		return fmt.Errorf("-dist-workers: %w", err)
	}
	if !*stepOnly && len(distWorkers) > 0 && distWorkers[0] != 1 {
		// One worker is the baseline the speedup rows divide by.
		distWorkers = append([]int{1}, distWorkers...)
	}
	// Pin GOMAXPROCS to the host CPU count unless overridden: a shrunken
	// inherited setting (cgroup quota, GOMAXPROCS env) must never
	// masquerade as the host's parallel capacity in the artifact.
	if *maxprocs <= 0 {
		*maxprocs = runtime.NumCPU()
	}
	runtime.GOMAXPROCS(*maxprocs)

	sha, dirty := gitRevision()
	rep := Report{
		GoVersion:    runtime.Version(),
		GoMaxProcs:   runtime.GOMAXPROCS(0),
		HostCPUs:     runtime.NumCPU(),
		GitSHA:       sha,
		GitDirty:     dirty,
		Seed:         *seed,
		TargetEvents: *events,
		SeedStep:     seedStep,
	}
	fmt.Fprintf(out, "gomaxprocs %d (host cpus %d)\n", rep.GoMaxProcs, rep.HostCPUs)

	if !*stepOnly {
		if err := measureFigures(&rep, workers, *seed, *events, out); err != nil {
			return err
		}
		if err := measureDistributed(&rep, distWorkers, *seed, *events, out); err != nil {
			return err
		}
	}

	step, err := measureStepLoop(400, 1, nil, *stepTicks, 1)
	if err != nil {
		return err
	}
	rep.Step = step
	rep.StepSpeedup = seedStep.NsPerTick / step.NsPerTick
	rep.AllocReduction = seedStep.AllocsPerTick - step.AllocsPerTick
	fmt.Fprintf(out, "step: %.0f ns/tick, %.1f allocs/tick, %.0f B/tick, %.0f%% rows requeried (seed: %.0f ns, %.0f allocs → %.2fx)\n",
		step.NsPerTick, step.AllocsPerTick, step.BytesPerTick, 100*step.RequeryFrac,
		seedStep.NsPerTick, seedStep.AllocsPerTick, rep.StepSpeedup)

	inj, err := faults.New(faults.Config{
		Loss:  0.2,
		Churn: faults.Churn{MeanUpTicks: 2000, MeanDownTicks: 200},
	})
	if err != nil {
		return err
	}
	stepFaults, err := measureStepLoop(400, 1, inj, *stepTicks, 1)
	if err != nil {
		return err
	}
	rep.StepFaults = stepFaults
	rep.FaultsOverhead = stepFaults.NsPerTick / step.NsPerTick
	fmt.Fprintf(out, "step+faults (loss 0.2, churn 2000:200): %.0f ns/tick, %.1f allocs/tick, %.0f B/tick (%.2fx ideal)\n",
		stepFaults.NsPerTick, stepFaults.AllocsPerTick, stepFaults.BytesPerTick, rep.FaultsOverhead)

	// The delivery-pipeline row: delay/jitter park every frame in the
	// pending queue, duplication doubles a twentieth of them, and a
	// moving partition churns the adjacency — the worst case for the
	// parked-delivery path.
	injDelay, err := faults.New(faults.Config{
		Loss:      0.05,
		Delay:     faults.Delay{BaseTicks: 1, JitterTicks: 3},
		DupProb:   0.05,
		Partition: faults.Partition{PeriodTicks: 240, DurationTicks: 40},
	})
	if err != nil {
		return err
	}
	stepDelay, err := measureStepLoop(400, 1, injDelay, *stepTicks, 1)
	if err != nil {
		return err
	}
	rep.StepFaultsDelay = stepDelay
	rep.PipelineOverhead = stepDelay.NsPerTick / step.NsPerTick
	fmt.Fprintf(out, "step+pipeline (loss 0.05, delay 1+u·3, dup 0.05, partition 240:40): %.0f ns/tick, %.1f allocs/tick, %.0f B/tick (%.2fx ideal)\n",
		stepDelay.NsPerTick, stepDelay.AllocsPerTick, stepDelay.BytesPerTick, rep.PipelineOverhead)

	for _, n := range ns {
		for _, mob := range []struct {
			name  string
			scale float64
		}{{"canonical", 1}, {"low", 0.1}} {
			row, err := measureScaling(n, *tiles, *stepTicks, mob.scale, mob.name)
			if err != nil {
				return err
			}
			rep.StepScaling = append(rep.StepScaling, row)
			fmt.Fprintf(out, "scale n=%d tiles=%d %s: %.0f ns/tick (%d ticks), %.1f allocs/tick, %.0f%% rows requeried, rescan extrapolation %.0f ns → %.2fx, tiles bit-identical %v\n",
				row.N, row.Tiles, row.Mobility, row.NsPerTick, row.Ticks, row.AllocsPerTick, 100*row.RequeryFrac,
				row.ExtrapolatedRescanNs, row.SpeedupVsRescan, row.TilesBitIdentical)
			if !row.TilesBitIdentical {
				return fmt.Errorf("n=%d %s: tiled run diverged from serial — determinism contract broken", n, mob.name)
			}
		}
	}

	storage, err := measureStorage(128)
	if err != nil {
		return err
	}
	rep.Storage = storage
	fmt.Fprintf(out, "storage seam: raw %.0f ns/op (%.1f allocs), vfs %.0f ns/op (%.1f allocs) → %.2fx, allocs delta %.1f\n",
		storage.RawNsPerOp, storage.RawAllocs, storage.VFSNsPerOp, storage.VFSAllocs,
		storage.Overhead, storage.AllocsDelta)
	if storage.AllocsDelta != 0 {
		return fmt.Errorf("vfs passthrough adds %.1f allocs/op on the journal-append path — zero-overhead seam contract broken", storage.AllocsDelta)
	}

	blob, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	if err := checkpoint.WriteFileAtomic(*outPath, append(blob, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Fprintf(out, "wrote %s\n", *outPath)
	return nil
}

// measureFigures times each figure driver at each requested worker
// count, after one untimed warm-up pass that populates caches and lets
// the runtime reach steady state before any row is recorded.
func measureFigures(rep *Report, workers []int, seed uint64, events float64, out io.Writer) error {
	drivers := []struct {
		name string
		f    func(experiments.Options) (*metrics.Figure, error)
	}{
		{"fig1", experiments.Figure1},
		{"fig2", experiments.Figure2},
		{"fig3", experiments.Figure3},
	}
	for _, d := range drivers {
		opts := experiments.DefaultOptions()
		opts.Seed = seed
		opts.TargetEvents = events

		// Warm-up: one untimed serial pass.
		opts.Workers = 1
		if _, err := d.f(opts); err != nil {
			return fmt.Errorf("%s warm-up: %w", d.name, err)
		}

		var serialMs float64
		var serialCSV string
		for _, w := range workers {
			opts.Workers = w
			t0 := time.Now()
			fig, err := d.f(opts)
			if err != nil {
				return fmt.Errorf("%s workers=%d: %w", d.name, w, err)
			}
			ms := float64(time.Since(t0).Nanoseconds()) / 1e6
			r := FigureResult{Name: d.name, Workers: w, Ms: ms}
			if w == 1 {
				serialMs, serialCSV = ms, fig.CSV()
				r.SpeedupVsSerial = 1
				r.MeanRelGap, r.GapPairs = fig.MeanRelGap()
				r.BitIdentical = true
			} else {
				r.SpeedupVsSerial = serialMs / ms
				r.BitIdentical = fig.CSV() == serialCSV
			}
			rep.Figures = append(rep.Figures, r)
			fmt.Fprintf(out, "%s workers=%d: %.0f ms (%.2fx serial), bit-identical %v\n",
				r.Name, r.Workers, r.Ms, r.SpeedupVsSerial, r.BitIdentical)
			if !r.BitIdentical {
				return fmt.Errorf("%s workers=%d: run diverged from serial — determinism contract broken", d.name, w)
			}
		}
	}
	return nil
}

// measureDistributed runs the bench figure sweep through the real
// distributed executor — an in-process coordinator serving the lease
// HTTP API and k in-process workers claiming points over it, the same
// code paths cmd/manetsimd -distributed and cmd/manetsimw run — and
// records one row per worker count. Each run starts from a cold state
// directory (no journal reuse between rows) and is bit-checked against
// a local serial run of the same spec.
func measureDistributed(rep *Report, distWorkers []int, seed uint64, events float64, out io.Writer) error {
	if len(distWorkers) == 0 {
		return nil
	}
	spec := service.JobSpec{Kind: service.KindFigure, Tenant: "bench", Fig: 1, Seed: seed, Events: events}.Normalized()
	refBytes, err := spec.Run(experiments.Options{Workers: 1})
	if err != nil {
		return fmt.Errorf("distributed reference run: %w", err)
	}

	var oneWorkerMs float64
	for _, k := range distWorkers {
		ms, stats, got, err := runDistributedSweep(spec, k)
		if err != nil {
			return fmt.Errorf("distributed workers=%d: %w", k, err)
		}
		row := DistResult{
			Workers:       k,
			Ms:            ms,
			BitIdentical:  string(got) == string(refBytes),
			PointsMerged:  stats.PointsMerged,
			LeasesExpired: stats.LeasesExpired,
		}
		if k == distWorkers[0] {
			oneWorkerMs = ms
			row.SpeedupVsOneWorker = 1
		} else {
			row.SpeedupVsOneWorker = oneWorkerMs / ms
		}
		avail := k
		if rep.HostCPUs < avail {
			avail = rep.HostCPUs
		}
		row.Efficiency = row.SpeedupVsOneWorker / float64(avail)
		rep.Distributed = append(rep.Distributed, row)
		fmt.Fprintf(out, "distributed workers=%d: %.0f ms (%.2fx one worker, efficiency %.2f), %d points merged, %d leases expired, bit-identical %v\n",
			k, row.Ms, row.SpeedupVsOneWorker, row.Efficiency, row.PointsMerged, row.LeasesExpired, row.BitIdentical)
		if !row.BitIdentical {
			return fmt.Errorf("distributed workers=%d: merged artifact diverged from the local serial run — determinism contract broken", k)
		}
	}
	return nil
}

// runDistributedSweep executes spec once through a coordinator and k
// workers, all in-process, and reports wall-clock ms, the coordinator's
// stats and the merged artifact bytes.
func runDistributedSweep(spec service.JobSpec, k int) (float64, service.Stats, []byte, error) {
	state, err := os.MkdirTemp("", "bench-dist-*")
	if err != nil {
		return 0, service.Stats{}, nil, err
	}
	defer os.RemoveAll(state)
	m, err := service.Open(service.Config{
		StateDir:     state,
		QueueDepth:   4,
		JobWorkers:   1,
		SweepWorkers: 1,
		Admission:    service.AdmissionPolicy{Rate: 1000, Burst: 1000},
		Distributed:  true,
		// Generous deadlines: the bench perturbs nothing, so any expiry
		// is a finding (reported in the artifact), not a recovery test.
		LeaseTTL:    10 * time.Second,
		LeaseMaxAge: time.Hour,
	})
	if err != nil {
		return 0, service.Stats{}, nil, err
	}
	defer m.Close()

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, service.Stats{}, nil, err
	}
	srv := &http.Server{Handler: service.NewServer(m, 0).Handler()}
	go srv.Serve(ln)
	defer srv.Close()
	base := "http://" + ln.Addr().String()

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var wg sync.WaitGroup
	for i := 0; i < k; i++ {
		w, err := service.NewWorker(service.WorkerConfig{
			Coordinator:  base,
			Name:         fmt.Sprintf("bench-w%d", i),
			SweepWorkers: 1,
			Poll:         5 * time.Millisecond,
		})
		if err != nil {
			return 0, service.Stats{}, nil, err
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			w.Run(ctx)
		}()
	}
	defer wg.Wait()
	defer cancel()

	t0 := time.Now()
	st, err := m.Submit(spec)
	if err != nil {
		return 0, service.Stats{}, nil, err
	}
	deadline := time.Now().Add(30 * time.Minute)
	for {
		cur, ok := m.Status(st.ID)
		if !ok {
			return 0, service.Stats{}, nil, fmt.Errorf("job %s vanished", st.ID)
		}
		if cur.State == service.StateDone {
			break
		}
		if cur.State == service.StateFailed || cur.State == service.StateEvicted {
			return 0, service.Stats{}, nil, fmt.Errorf("job %s ended %s (%s)", st.ID, cur.State, cur.Reason)
		}
		if time.Now().After(deadline) {
			return 0, service.Stats{}, nil, fmt.Errorf("job %s did not finish in time", st.ID)
		}
		time.Sleep(2 * time.Millisecond)
	}
	ms := float64(time.Since(t0).Nanoseconds()) / 1e6
	got, err := m.Result(st.ID)
	if err != nil {
		return 0, service.Stats{}, nil, err
	}
	return ms, m.StatsSnapshot(), got, nil
}

// measureStorage produces the vfs-seam overhead row: ops journal-shaped
// append+fsync operations through a raw *os.File and through vfs.OS on
// files in the same directory. Allocations are measured first (the
// assertion that matters), then each loop is timed.
func measureStorage(ops int) (StorageRow, error) {
	dir, err := os.MkdirTemp("", "bench-vfs-*")
	if err != nil {
		return StorageRow{}, err
	}
	defer os.RemoveAll(dir)
	rec := []byte(`{"v":1,"sweep":"fig1","point":7,"seed":42,"csv":"0.10,12.375,11.930","sum":3735928559}` + "\n")

	flags := os.O_WRONLY | os.O_CREATE | os.O_APPEND
	raw, err := os.OpenFile(filepath.Join(dir, "raw.log"), flags, 0o644)
	if err != nil {
		return StorageRow{}, err
	}
	defer raw.Close()
	seam, err := vfs.OS.OpenFile(filepath.Join(dir, "vfs.log"), flags, 0o644)
	if err != nil {
		return StorageRow{}, err
	}
	defer seam.Close()

	var opErr error
	rawOp := func() {
		if _, err := raw.Write(rec); err != nil {
			opErr = err
		}
		if err := raw.Sync(); err != nil {
			opErr = err
		}
	}
	seamOp := func() {
		if _, err := seam.Write(rec); err != nil {
			opErr = err
		}
		if err := seam.Sync(); err != nil {
			opErr = err
		}
	}

	rawAllocs := testing.AllocsPerRun(ops, rawOp)
	vfsAllocs := testing.AllocsPerRun(ops, seamOp)

	t0 := time.Now()
	for i := 0; i < ops; i++ {
		rawOp()
	}
	rawNs := float64(time.Since(t0).Nanoseconds()) / float64(ops)
	t0 = time.Now()
	for i := 0; i < ops; i++ {
		seamOp()
	}
	vfsNs := float64(time.Since(t0).Nanoseconds()) / float64(ops)
	if opErr != nil {
		return StorageRow{}, opErr
	}
	return StorageRow{
		Ops:         ops,
		RawNsPerOp:  rawNs,
		VFSNsPerOp:  vfsNs,
		Overhead:    vfsNs / rawNs,
		RawAllocs:   rawAllocs,
		VFSAllocs:   vfsAllocs,
		AllocsDelta: vfsAllocs - rawAllocs,
	}, nil
}

// gitRevision reports the current commit hash and whether the working
// tree is dirty, so the artifact pins the exact code it measured. Both
// degrade to zero values when git (or a checkout) is unavailable —
// benchmarks must run anywhere.
func gitRevision() (sha string, dirty bool) {
	out, err := exec.Command("git", "rev-parse", "HEAD").Output()
	if err != nil {
		return "", false
	}
	sha = strings.TrimSpace(string(out))
	status, err := exec.Command("git", "status", "--porcelain").Output()
	if err != nil {
		return sha, false
	}
	return sha, len(strings.TrimSpace(string(status))) > 0
}

// scalingScenario is the canonical throughput scenario
// (BenchmarkSimulatorStep's shape) scaled to n nodes at constant
// density: the region side grows as √(n/400) so the mean degree — and
// therefore the per-row work — is the same at every n. speedScale
// multiplies the node speed (1 is the canonical bench mobility, 0.1
// the low-mobility variant).
func scalingScenario(n, tiles int, medium netsim.Medium, speedScale float64) netsim.Config {
	return netsim.Config{
		N: n, Side: 10 * math.Sqrt(float64(n)/400), Range: 1.5, Dt: 0.05, Seed: 1,
		Metric: geom.MetricSquare,
		Model:  mobility.EpochRWP{Speed: 0.05 * speedScale, Epoch: 10},
		Medium: medium,
		Tiles:  tiles,
	}
}

// measureStepLoop times the steady-state tick loop of the canonical
// scenario at n nodes. ticks is the measured loop length at N=400,
// scaled down in proportion for larger n (floored at 30) so the sweep
// finishes in bounded time; the warm-up phase reaches steady-state
// buffer capacities before the timed window opens.
func measureStepLoop(n, tiles int, medium netsim.Medium, ticks int, speedScale float64) (StepResult, error) {
	if n > 400 {
		ticks = ticks * 400 / n
	}
	if ticks < 30 {
		ticks = 30
	}
	warm := 200
	if warm > ticks*2 && n > 400 {
		warm = ticks * 2
	}
	sim, err := netsim.New(scalingScenario(n, tiles, medium, speedScale))
	if err != nil {
		return StepResult{}, err
	}
	if err := sim.Start(); err != nil {
		return StepResult{}, err
	}
	for i := 0; i < warm; i++ { // reach steady-state buffer capacities
		if err := sim.Step(); err != nil {
			return StepResult{}, err
		}
	}
	statsBefore := sim.IndexStats()
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	t0 := time.Now()
	for i := 0; i < ticks; i++ {
		if err := sim.Step(); err != nil {
			return StepResult{}, err
		}
	}
	elapsed := time.Since(t0)
	runtime.ReadMemStats(&after)
	statsAfter := sim.IndexStats()
	return StepResult{
		N:             n,
		Tiles:         tiles,
		Ticks:         ticks,
		NsPerTick:     float64(elapsed.Nanoseconds()) / float64(ticks),
		AllocsPerTick: float64(after.Mallocs-before.Mallocs) / float64(ticks),
		BytesPerTick:  float64(after.TotalAlloc-before.TotalAlloc) / float64(ticks),
		RequeryFrac:   float64(statsAfter.RequeriedRows-statsBefore.RequeriedRows) / float64(ticks*n),
	}, nil
}

// measureScaling produces one scaling-sweep row: the timed loop plus
// the full-rescan extrapolation baseline and a serial-vs-tiled
// equivalence check on the same scenario.
func measureScaling(n, tiles, ticks int, speedScale float64, mobility string) (StepResult, error) {
	row, err := measureStepLoop(n, tiles, nil, ticks, speedScale)
	if err != nil {
		return StepResult{}, err
	}
	row.Mobility = mobility
	row.ExtrapolatedRescanNs = rescanNsN400 * float64(n) / 400
	row.SpeedupVsRescan = row.ExtrapolatedRescanNs / row.NsPerTick
	ok, err := tilesAgree(n, speedScale)
	if err != nil {
		return StepResult{}, err
	}
	row.TilesBitIdentical = ok
	return row, nil
}

// tilesAgree runs the scenario serially and with an oversubscribed tile
// split for a short window and compares the observable outcomes (all
// tallies and the final mean degree). The full byte-level equivalence
// is pinned by the engine's own tests; this is the artifact-level
// cross-check on the exact measured scenario.
func tilesAgree(n int, speedScale float64) (bool, error) {
	const ticks = 40
	run := func(tiles int) (netsim.Tallies, float64, error) {
		sim, err := netsim.New(scalingScenario(n, tiles, nil, speedScale))
		if err != nil {
			return netsim.Tallies{}, 0, err
		}
		for i := 0; i < ticks; i++ {
			if err := sim.Step(); err != nil {
				return netsim.Tallies{}, 0, err
			}
		}
		return sim.Tallies(), sim.MeanDegree(), nil
	}
	ta1, deg1, err := run(1)
	if err != nil {
		return false, err
	}
	ta4, deg4, err := run(4)
	if err != nil {
		return false, err
	}
	return ta1 == ta4 && deg1 == deg4, nil
}

// parseIntList parses a comma-separated list of positive integers; an
// empty string yields an empty list.
func parseIntList(s string) ([]int, error) {
	if strings.TrimSpace(s) == "" {
		return nil, nil
	}
	var out []int
	for _, part := range strings.Split(s, ",") {
		v, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil {
			return nil, fmt.Errorf("bad entry %q", part)
		}
		if v < 1 {
			return nil, fmt.Errorf("entries must be positive, got %d", v)
		}
		out = append(out, v)
	}
	return out, nil
}
