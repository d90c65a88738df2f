// Command perfbench is the repository's benchmark. It runs one named
// workload against the program's public entry points for a fixed number
// of seconds, checks every output, and prints its metrics; the last line
// of standard output is one JSON object:
//
//	{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
//
// With -trace 0 the metrics are the end-to-end ones; with -trace 1 the
// run pairs every untraced round with a traced rebuild of the same work
// and reports per-layer metrics instead. See README.md.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"
)

// setups is how many times a run sets its workload up; setup_s is the
// median.
const setups = 5

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the JSON object a run prints last.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// instance is one set-up workload. round runs its fixed work once,
// untraced; tracedRound runs the same work with every layer wrapped and
// checks that its outputs equal the untraced ones. verify checks the
// outputs the rounds kept and returns one message per failed op.
type instance interface {
	round() (roundResult, error)
	tracedRound(spans *spanLog, parent int64) (layers, float64, error)
	verify() []string
	close() error
}

// roundResult is the timing of one round: the wall-clock of its fixed
// work and each op's latency (NaN for an op that failed, which is never
// timed).
type roundResult struct {
	seconds float64
	opMS    []float64
}

// layers accumulates per-layer metrics across traced rounds.
type layers interface {
	merge(other layers)
	metrics(ops int) map[string]float64
	ops() int
	// describe summarizes where the traced time went, for people.
	describe() string
}

// workload is a named benchmark workload. setup builds the inputs from
// the seed and runs one untimed warm-up op per op kind.
type workload struct {
	name  string
	setup func(seed uint64, dir string) (instance, error)
}

func workloads(tiny bool) []workload {
	return []workload{
		{"paper_figs", func(seed uint64, _ string) (instance, error) { return warmed(newPaperFigs(seed, tiny)) }},
		{"lossy_churn", func(seed uint64, _ string) (instance, error) { return warmed(newFaulty(lossyChurn(tiny), seed)) }},
		{"delay_pipeline", func(seed uint64, _ string) (instance, error) { return warmed(newFaulty(delayPipeline(tiny), seed)) }},
		{"serve", func(seed uint64, dir string) (instance, error) { return newServe(serveParams(tiny), seed, dir) }},
	}
}

func lookup(name string, tiny bool) (workload, bool) {
	for _, w := range workloads(tiny) {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload: paper_figs, lossy_churn, delay_pipeline or serve")
	seed := fs.Uint64("seed", 1, "workload seed; every input derives from it")
	seconds := fs.Float64("seconds", 10, "measurement time in seconds")
	trace := fs.Int("trace", 0, "1 runs the traced per-layer run instead of the end-to-end one")
	dir := fs.String("dir", filepath.Join(".bench_build", "perfbench"), "directory for daemon state and span files")
	record := fs.Int("record-digests", 0, "print the output digests of -workload (paper_figs, lossy_churn or delay_pipeline) for seeds 0..n-1 and exit")
	if err := fs.Parse(args); err != nil {
		return err
	}
	runtime.GOMAXPROCS(2)
	if *record > 0 {
		return recordDigests(out, *name, *record)
	}
	w, ok := lookup(*name, false)
	if !ok {
		return fmt.Errorf("unknown workload %q", *name)
	}
	if *seconds <= 0 || (*trace != 0 && *trace != 1) {
		return errors.New("-seconds must be positive and -trace 0 or 1")
	}
	if err := os.MkdirAll(*dir, 0o755); err != nil {
		return err
	}
	res, err := measure(w, *seed, time.Duration(*seconds*float64(time.Second)), *trace == 1, *dir, out)
	if err != nil {
		return err
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(out, "%s\n", line)
	return err
}

// measure sets a workload up, runs it for the given time and checks its
// outputs. Human-readable lines go to out before the caller prints the
// JSON result.
func measure(w workload, seed uint64, seconds time.Duration, traced bool, dir string, out io.Writer) (result, error) {
	var setupS []float64
	var inst instance
	for i := 0; i < setups; i++ {
		if inst != nil {
			if err := inst.close(); err != nil {
				return result{}, err
			}
		}
		start := time.Now()
		var err error
		inst, err = w.setup(seed, filepath.Join(dir, fmt.Sprintf("%s-setup%d", w.name, i)))
		if err != nil {
			return result{}, fmt.Errorf("%s setup: %w", w.name, err)
		}
		setupS = append(setupS, time.Since(start).Seconds())
	}
	defer inst.close()

	res := result{Metrics: map[string]metric{}}
	var problems []string
	if !traced {
		heap := startHeapSampler(10 * time.Millisecond)
		alloc0 := allocatedMB()
		var roundS, opMS []float64
		attempted := 0
		start := time.Now()
		for len(roundS) == 0 || more(start, roundS[len(roundS)-1], seconds) {
			r, err := inst.round()
			if err != nil {
				heap.finish()
				return result{}, err
			}
			roundS = append(roundS, r.seconds)
			attempted += len(r.opMS)
			for _, v := range r.opMS {
				if !math.IsNaN(v) {
					opMS = append(opMS, v)
				}
			}
		}
		allocMB := allocatedMB() - alloc0
		heapMB := heap.finish()
		problems = inst.verify()
		res.Attempted = attempted
		set := func(k string, v float64, unit string) { res.Metrics[k] = metric{v, unit} }
		set("run_s", median(roundS), "s")
		set("op_ms_p50", median(opMS), "ms")
		set("job_ms_p90", quantile(opMS, 0.9), "ms")
		set("alloc_mb_per_op", allocMB/float64(attempted), "MB")
		set("heap_mb_p90", quantile(heapMB, 0.9), "MB")
		set("setup_s", median(setupS), "s")
		fmt.Fprintf(out, "workload %s seed %d: %d ops in %d rounds of %.3g s\n", w.name, seed, len(opMS), len(roundS), roundS)
	} else {
		spans := newSpanLog()
		var acc layers
		var plain, tracedS []float64
		start := time.Now()
		for len(plain) == 0 || more(start, plain[len(plain)-1]+tracedS[len(tracedS)-1], seconds) {
			r, err := inst.round()
			if err != nil {
				return result{}, err
			}
			plain = append(plain, r.seconds)
			id, begin := spans.begin()
			l, secs, err := inst.tracedRound(spans, id)
			if err != nil {
				return result{}, err
			}
			tracedS = append(tracedS, secs)
			spans.end(id, 0, "round "+w.name, begin, nil)
			if acc == nil {
				acc = l
			} else {
				acc.merge(l)
			}
		}
		problems = inst.verify()
		res.Attempted = acc.ops()
		for k, v := range acc.metrics(acc.ops()) {
			res.Metrics[k] = metric{v, unitOf(k)}
		}
		res.Metrics["bench.trace_overhead"] = metric{median(tracedS) / median(plain), "ratio"}
		for _, k := range perLayerNames {
			if _, ok := res.Metrics[k]; !ok {
				res.Metrics[k] = metric{0, unitOf(k)}
			}
		}
		path := filepath.Join(dir, fmt.Sprintf("spans-%s-seed%d.jsonl", w.name, seed))
		if err := spans.write(path); err != nil {
			return result{}, err
		}
		fmt.Fprintf(out, "workload %s seed %d: %d traced rounds, spans in %s\n", w.name, seed, len(tracedS), path)
		fmt.Fprint(out, acc.describe())
	}
	for k, m := range res.Metrics {
		// An empty sample (every op failed, or a layer never reached)
		// has no quantile; JSON has no NaN.
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			res.Metrics[k] = metric{0, m.Unit}
		}
	}
	res.Failed = len(problems)
	if res.Failed > res.Attempted {
		res.Failed = res.Attempted
	}
	res.Correct = len(problems) == 0
	for _, p := range problems {
		fmt.Fprintln(out, "CHECK FAILED:", p)
	}
	names := make([]string, 0, len(res.Metrics))
	for k := range res.Metrics {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		fmt.Fprintf(out, "  %-34s %14.6g %s\n", k, res.Metrics[k].Value, res.Metrics[k].Unit)
	}
	fmt.Fprintf(out, "  %-34s %14.6g %s\n", "fail_frac", float64(res.Failed)/float64(res.Attempted), "ratio")
	return res, nil
}

// more reports whether another round fits: the run measures for about
// the given time, ending on the round boundary nearest to it.
func more(start time.Time, lastRound float64, seconds time.Duration) bool {
	return time.Since(start).Seconds()+lastRound/2 < seconds.Seconds()
}

// perLayerNames lists every per-layer metric a traced run reports;
// workloads that never reach a layer report 0 for it.
var perLayerNames = []string{
	"experiments.point_ms_p50", "experiments.pool_idle_frac",
	"mobility.step_ms",
	"netsim.self_ms", "netsim.ticks", "netsim.link_events", "netsim.deliveries",
	"netsim.drop_frac", "netsim.overflow_frac",
	"space.requery_frac",
	"faults.advance_ms", "faults.deliver_ms", "faults.deliver_calls",
	"cluster.maint_ms", "cluster.audit_ms", "cluster.msgs",
	"routing.hello_ms", "routing.route_ms", "routing.hello_msgs", "routing.route_msgs",
	"checkpoint.joblog_sync_ms_p50", "checkpoint.joblog_sync_ms_p90",
	"checkpoint.journal_sync_ms_p50", "checkpoint.journal_sync_ms_p90",
	"vfs.syncs_per_job", "vfs.bytes_per_job",
	"service.queue_wait_ms_p50", "service.queue_wait_ms_p90",
	"service.run_ms_p50", "service.submit_rtt_ms_p50",
	"service.cache_hit_frac", "service.refused",
	"bench.late_ms_p90", "bench.trace_overhead",
}

// unitOf names a per-layer metric's unit from its name.
func unitOf(name string) string {
	switch name {
	case "experiments.point_ms_p50", "checkpoint.joblog_sync_ms_p50", "checkpoint.joblog_sync_ms_p90",
		"checkpoint.journal_sync_ms_p50", "checkpoint.journal_sync_ms_p90",
		"service.queue_wait_ms_p50", "service.queue_wait_ms_p90", "service.run_ms_p50",
		"service.submit_rtt_ms_p50", "bench.late_ms_p90":
		return "ms"
	case "experiments.pool_idle_frac", "netsim.drop_frac", "netsim.overflow_frac",
		"space.requery_frac", "service.cache_hit_frac", "bench.trace_overhead":
		return "ratio"
	case "mobility.step_ms", "netsim.self_ms", "faults.advance_ms", "faults.deliver_ms",
		"cluster.maint_ms", "cluster.audit_ms", "routing.hello_ms", "routing.route_ms":
		return "ms/op"
	case "vfs.syncs_per_job":
		return "count/job"
	case "vfs.bytes_per_job":
		return "B/job"
	case "service.refused":
		return "count"
	default:
		return "count/op"
	}
}
