package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/service"
	"repro/internal/simrand"
	"repro/internal/vfs"
)

// serveConfig shapes the serve workload: an in-process daemon fed by an
// open-loop generator at a fixed rate.
type serveConfig struct {
	jobs          int           // jobs per round
	interval      time.Duration // fixed gap between due times (open loop)
	measureEvents float64       // TargetEvents of a measure job
	figureEvents  float64       // TargetEvents of a figure job
	figureEvery   int           // every figureEvery-th job is a figure job
	repeatEvery   int           // every repeatEvery-th job repeats a recent spec
}

// serveParams returns the serve workload's sizes. The rate — one job
// every 200 ms, a little under half the capacity of one job worker at
// the commit that introduced the benchmark (a measure job computes for
// ~80 ms) — is fixed, so a faster daemon shows as lower latency, never as
// more load. One job worker: with two, latency depended on how jobs
// overlapped on the two CPUs. A round of 140 jobs lasts 28 s, so a
// 28-second run is one round.
func serveParams(tiny bool) serveConfig {
	c := serveConfig{
		jobs:          140,
		interval:      200 * time.Millisecond,
		measureEvents: 10000,
		figureEvents:  1000,
		figureEvery:   50,
		repeatEvery:   5,
	}
	if tiny {
		c.jobs, c.interval, c.measureEvents, c.figureEvery = 16, 50*time.Millisecond, 1000, 8
	}
	return c
}

// daemon is one in-process manetsimd: a service.Manager behind its HTTP
// handler on a loopback listener.
type daemon struct {
	dir  string
	m    *service.Manager
	srv  *http.Server
	done chan error
	base string
}

func startDaemon(dir string, fs *tracedFS) (*daemon, error) {
	if err := os.RemoveAll(dir); err != nil {
		return nil, err
	}
	cfg := service.Config{
		StateDir:     dir,
		QueueDepth:   256,
		JobWorkers:   1,
		SweepWorkers: 1,
		// Admission never refuses at the benchmark's rate: refusals
		// would make latency depend on retry policy, not on the daemon.
		Admission:   service.AdmissionPolicy{Rate: 1000, Burst: 1000},
		BackoffSeed: 1,
	}
	if fs != nil {
		cfg.FS = fs
	}
	m, err := service.Open(cfg)
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		m.Close()
		return nil, err
	}
	d := &daemon{dir: dir, m: m, done: make(chan error, 1), base: "http://" + ln.Addr().String()}
	d.srv = &http.Server{Handler: service.NewServer(m, 0).Handler()}
	go func() { d.done <- d.srv.Serve(ln) }()
	return d, nil
}

func (d *daemon) close() error {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err := d.srv.Shutdown(ctx)
	if serr := <-d.done; !errors.Is(serr, http.ErrServerClosed) && err == nil {
		err = serr
	}
	if cerr := d.m.Close(); err == nil {
		err = cerr
	}
	if rerr := os.RemoveAll(d.dir); err == nil {
		err = rerr
	}
	return err
}

// client is one keep-alive loopback connection.
func client() *http.Client {
	return &http.Client{
		Timeout:   60 * time.Second,
		Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true},
	}
}

// jobOutcome is what the generator and the collector learn about one
// scheduled job.
type jobOutcome struct {
	spec      service.JobSpec
	due       time.Time
	lateMS    float64 // generator lateness: submit start − due
	rttMS     float64 // submit round trip
	refused   bool
	latencyMS float64 // due → artifact fetched
	status    service.JobStatus
	artifact  []byte
	err       error
}

// schedule derives one round's job specs from the workload seed. The
// mix is fixed — every figureEvery-th job a figure job, every
// repeatEvery-th job a repeat of a recent measure spec (a cache hit),
// the rest distinct measure jobs — and the seed picks the scenarios.
func schedule(c serveConfig, seed uint64, round int) []service.JobSpec {
	src := simrand.New(seed).SplitN("serve-round", round)
	rng := src.Rand()
	specs := make([]service.JobSpec, c.jobs)
	var measures []int
	for i := range specs {
		tenant := fmt.Sprintf("tenant-%d", i%4)
		switch {
		case i%c.figureEvery == c.figureEvery/2:
			specs[i] = service.JobSpec{Kind: service.KindFigure, Tenant: tenant,
				Fig: 1 + (i/c.figureEvery)%3, Seed: src.SplitN("figure", i).Seed() | 1, Events: c.figureEvents}
		case len(measures) >= 4 && i%c.repeatEvery == 2:
			// Repeat a spec submitted 4–8 measure jobs ago: long
			// enough ago that it has finished, so it is a cache hit.
			spec := specs[measures[len(measures)-4-rng.Intn(min(5, len(measures)-3))]]
			spec.Tenant = tenant
			specs[i] = spec
		default:
			specs[i] = service.JobSpec{Kind: service.KindMeasure, Tenant: tenant,
				Seed: src.SplitN("measure", i).Seed() | 1, Events: c.measureEvents, V: 0.05}
			measures = append(measures, i)
		}
	}
	return specs
}

// serveInstance is the serve workload: a daemon set up by newServe and
// the outcomes of every job it was sent.
type serveInstance struct {
	cfg      serveConfig
	seed     uint64
	dir      string
	d        *daemon
	rounds   int
	outcomes []*jobOutcome
	problems []string
}

// newServe starts a daemon and warms it up with every op kind: measure
// jobs, a repeat (a cache hit) and a figure job.
func newServe(c serveConfig, seed uint64, dir string) (*serveInstance, error) {
	d, err := startDaemon(filepath.Join(dir, "state"), nil)
	if err != nil {
		return nil, err
	}
	s := &serveInstance{cfg: c, seed: seed, dir: dir, d: d}
	if err := warmUp(d, c); err != nil {
		d.close()
		return nil, err
	}
	return s, nil
}

// warmMeasures is how many distinct measure jobs set-up runs: with one,
// set-up took ~0.17 s, half of it directory, listener and fsync work,
// and its median over five set-ups spread 0.5 between runs.
const warmMeasures = 4

func warmUp(d *daemon, c serveConfig) error {
	src := simrand.New(warmSeed).Split("serve-warmup")
	var specs []service.JobSpec
	for i := 0; i < warmMeasures; i++ {
		specs = append(specs, service.JobSpec{Kind: service.KindMeasure, Seed: src.SplitN("measure", i).Seed() | 1,
			Events: c.measureEvents, V: 0.05})
	}
	specs = append(specs, service.JobSpec{Kind: service.KindFigure, Fig: 1, Seed: src.Seed() | 1, Events: c.figureEvents})
	// The repeat goes out after the first run finished, so it is a cache
	// hit rather than coalescing onto the running job.
	outs := append(runJobs(d, specs, 0), runJobs(d, specs[:1], 0)...)
	for _, o := range outs {
		if o.err != nil {
			return fmt.Errorf("warm-up: %w", o.err)
		}
		if o.refused {
			return errors.New("warm-up: job refused")
		}
	}
	if !outs[len(outs)-1].status.Cached {
		return errors.New("warm-up: repeated spec was not served from the cache")
	}
	return nil
}

func (s *serveInstance) round() (roundResult, error) {
	specs := schedule(s.cfg, s.seed, s.rounds)
	s.rounds++
	start := time.Now()
	outs := runJobs(s.d, specs, s.cfg.interval)
	r := roundResult{seconds: time.Since(start).Seconds()}
	for _, o := range outs {
		if o.err != nil || o.refused {
			r.opMS = append(r.opMS, math.NaN())
			continue
		}
		r.opMS = append(r.opMS, o.latencyMS)
	}
	s.outcomes = append(s.outcomes, outs...)
	return r, nil
}

// tracedRound runs one round against a fresh daemon whose storage goes
// through a recording vfs.FS; the round's clock starts after the
// daemon's warm-up, as in an untraced round.
func (s *serveInstance) tracedRound(spans *spanLog, parent int64) (layers, float64, error) {
	fs := newTracedFS(vfs.OS)
	d, err := startDaemon(filepath.Join(s.dir, "traced-state"), fs)
	if err != nil {
		return nil, 0, err
	}
	defer d.close()
	if err := warmUp(d, s.cfg); err != nil {
		return nil, 0, err
	}
	before := fs.totals()
	specs := schedule(s.cfg, s.seed, s.rounds)
	s.rounds++
	start := time.Now()
	outs := runJobs(d, specs, s.cfg.interval)
	secs := time.Since(start).Seconds()
	after := fs.totals()
	for _, o := range outs {
		end := o.due.Add(time.Duration(o.latencyMS * float64(time.Millisecond)))
		spans.add(parent, "service.job "+o.spec.Kind, o.due, end, map[string]float64{
			"submit_rtt_ms": o.rttMS, "late_ms": o.lateMS})
	}
	s.outcomes = append(s.outcomes, outs...)
	return &serveLayers{outs: outs, fs: []fsTotals{diffTotals(after, before)}}, secs, nil
}

func diffTotals(after, before fsTotals) fsTotals {
	return fsTotals{
		joblog:  after.joblog[len(before.joblog):],
		journal: after.journal[len(before.journal):],
		syncs:   after.syncs - before.syncs,
		written: after.written - before.written,
	}
}

// runJobs submits specs on one connection at start + i·interval (open
// loop: a slow daemon never delays the schedule, only makes the
// generator's own submissions late) while a collector polls on a second
// connection and fetches each artifact as soon as its job is done.
func runJobs(d *daemon, specs []service.JobSpec, interval time.Duration) []*jobOutcome {
	outs := make([]*jobOutcome, len(specs))
	submitted := make(chan *jobOutcome, len(specs)) // one send per job
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		collect(d, submitted)
	}()
	sub := client()
	start := time.Now()
	for i, spec := range specs {
		o := &jobOutcome{spec: spec, due: start.Add(time.Duration(i) * interval)}
		outs[i] = o
		if wait := time.Until(o.due); wait > 0 {
			time.Sleep(wait)
		}
		t0 := time.Now()
		o.lateMS = ms(t0.Sub(o.due))
		o.status, o.refused, o.err = submit(sub, d.base, spec)
		o.rttMS = ms(time.Since(t0))
		submitted <- o
	}
	close(submitted)
	wg.Wait()
	sub.CloseIdleConnections()
	return outs
}

func submit(c *http.Client, base string, spec service.JobSpec) (service.JobStatus, bool, error) {
	body, err := json.Marshal(spec)
	if err != nil {
		return service.JobStatus{}, false, err
	}
	resp, err := c.Post(base+"/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		return service.JobStatus{}, false, err
	}
	defer resp.Body.Close()
	if resp.StatusCode == http.StatusTooManyRequests || resp.StatusCode == http.StatusServiceUnavailable {
		io.Copy(io.Discard, resp.Body)
		return service.JobStatus{}, true, nil
	}
	if resp.StatusCode != http.StatusAccepted && resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(resp.Body)
		return service.JobStatus{}, false, fmt.Errorf("submit: HTTP %d: %s", resp.StatusCode, msg)
	}
	var st service.JobStatus
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		return service.JobStatus{}, false, fmt.Errorf("submit: %w", err)
	}
	return st, false, nil
}

// pollEvery paces status polls of unfinished jobs.
const pollEvery = 2 * time.Millisecond

// collect polls every submitted job until it is terminal, then fetches
// its artifact and stamps its latency.
func collect(d *daemon, submitted <-chan *jobOutcome) {
	c := client()
	defer c.CloseIdleConnections()
	var open []*jobOutcome
	in := submitted
	for in != nil || len(open) > 0 {
		if len(open) == 0 {
			o, ok := <-in
			if !ok {
				in = nil
				continue
			}
			open = append(open, o)
		}
		// Take every job submitted since the last sweep.
		for drained := false; !drained && in != nil; {
			select {
			case o, ok := <-in:
				if !ok {
					in = nil
				} else {
					open = append(open, o)
				}
			default:
				drained = true
			}
		}
		kept := open[:0]
		for _, o := range open {
			if o.err != nil || o.refused || poll(c, d.base, o) {
				continue
			}
			kept = append(kept, o)
		}
		open = kept
		if len(open) > 0 {
			time.Sleep(pollEvery)
		}
	}
}

// poll checks one job; it reports whether the job is settled (artifact
// fetched or failure recorded).
func poll(c *http.Client, base string, o *jobOutcome) bool {
	if o.status.State != service.StateDone {
		var st service.JobStatus
		if err := getJSON(c, base+"/v1/jobs/"+o.status.ID, &st); err != nil {
			o.err = err
			return true
		}
		o.status = st
		switch st.State {
		case service.StateDone:
		case service.StateFailed, service.StateEvicted:
			o.err = fmt.Errorf("job %s %s: %s", st.ID, st.State, st.Reason)
			return true
		default:
			return false
		}
	}
	resp, err := c.Get(base + "/v1/jobs/" + o.status.ID + "/result")
	if err != nil {
		o.err = err
		return true
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err == nil && resp.StatusCode != http.StatusOK {
		err = fmt.Errorf("result of %s: HTTP %d: %s", o.status.ID, resp.StatusCode, data)
	}
	o.latencyMS = ms(time.Since(o.due))
	o.artifact, o.err = data, err
	return true
}

func getJSON(c *http.Client, url string, v any) error {
	resp, err := c.Get(url)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(resp.Body)
		return fmt.Errorf("GET %s: HTTP %d: %s", url, resp.StatusCode, msg)
	}
	return json.NewDecoder(resp.Body).Decode(v)
}

// expectedArtifact computes a job's artifact in-process through the same
// experiments entry point the daemon runs.
func expectedArtifact(spec service.JobSpec) ([]byte, error) {
	opts := experiments.DefaultOptions()
	opts.Seed = spec.Seed
	opts.TargetEvents = spec.Events
	opts.Workers = 1
	if spec.Kind == service.KindFigure {
		return experiments.FigureCSV(spec.Fig, opts)
	}
	return experiments.MeasureCSV(core.Network{N: 400, R: 1.5, V: spec.V, Density: 4}, opts)
}

// verify compares every fetched artifact with an in-process run of the
// same spec, computed on two goroutines once per distinct spec.
func (s *serveInstance) verify() []string {
	p := append([]string(nil), s.problems...)
	type key struct {
		kind      string
		fig       int
		seed      uint64
		events, v float64
	}
	keyOf := func(sp service.JobSpec) key { return key{sp.Kind, sp.Fig, sp.Seed, sp.Events, sp.V} }
	want := map[key][]byte{}
	var specs []service.JobSpec
	for _, o := range s.outcomes {
		if o.err != nil {
			p = append(p, fmt.Sprintf("%s job: %v", o.spec.Kind, o.err))
			continue
		}
		if o.refused {
			p = append(p, fmt.Sprintf("%s job refused", o.spec.Kind))
			continue
		}
		if _, ok := want[keyOf(o.spec)]; !ok {
			want[keyOf(o.spec)] = nil
			specs = append(specs, o.spec)
		}
	}
	results := make([][]byte, len(specs))
	errs := make([]error, len(specs))
	var wg sync.WaitGroup
	next := make(chan int, len(specs)) // one send per spec
	for i := range specs {
		next <- i
	}
	close(next)
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				results[i], errs[i] = expectedArtifact(specs[i])
			}
		}()
	}
	wg.Wait()
	for i, sp := range specs {
		if errs[i] != nil {
			p = append(p, fmt.Sprintf("in-process %s job: %v", sp.Kind, errs[i]))
			continue
		}
		want[keyOf(sp)] = results[i]
	}
	for _, o := range s.outcomes {
		if o.err != nil || o.refused {
			continue
		}
		if w := want[keyOf(o.spec)]; w != nil && !bytes.Equal(o.artifact, w) {
			p = append(p, fmt.Sprintf("job %s: artifact differs from the in-process %s run", o.status.ID, o.spec.Kind))
		}
	}
	return p
}

func (s *serveInstance) close() error {
	err := s.d.close()
	if rerr := os.RemoveAll(s.dir); err == nil {
		err = rerr
	}
	return err
}

// serveLayers summarizes traced serve rounds.
type serveLayers struct {
	outs []*jobOutcome
	fs   []fsTotals
}

func (l *serveLayers) merge(o layers) {
	m := o.(*serveLayers)
	l.outs = append(l.outs, m.outs...)
	l.fs = append(l.fs, m.fs...)
}

func (l *serveLayers) ops() int { return len(l.outs) }

func (l *serveLayers) describe() string { return "" }

func (l *serveLayers) metrics(ops int) map[string]float64 {
	var wait, run, rtt, late, joblog, journal []float64
	refused, cached, computed := 0.0, 0.0, 0.0
	for _, o := range l.outs {
		late = append(late, o.lateMS)
		rtt = append(rtt, o.rttMS)
		if o.refused {
			refused++
			continue
		}
		if o.status.Cached {
			cached++
			continue
		}
		var queued, running, done time.Time
		for _, t := range o.status.Transitions {
			switch t.To {
			case service.StateQueued:
				queued = t.At
			case service.StateRunning:
				running = t.At
			case service.StateDone:
				done = t.At
			}
		}
		if !running.IsZero() && !done.IsZero() {
			computed++
			wait = append(wait, ms(running.Sub(queued)))
			run = append(run, ms(done.Sub(running)))
		}
	}
	syncs, written := 0.0, 0.0
	for _, f := range l.fs {
		joblog = append(joblog, f.joblog...)
		journal = append(journal, f.journal...)
		syncs += float64(f.syncs)
		written += float64(f.written)
	}
	return map[string]float64{
		"checkpoint.joblog_sync_ms_p50":  quantile(joblog, 0.5),
		"checkpoint.joblog_sync_ms_p90":  quantile(joblog, 0.9),
		"checkpoint.journal_sync_ms_p50": quantile(journal, 0.5),
		"checkpoint.journal_sync_ms_p90": quantile(journal, 0.9),
		"vfs.syncs_per_job":              syncs / float64(ops),
		"vfs.bytes_per_job":              written / float64(ops),
		"service.queue_wait_ms_p50":      quantile(wait, 0.5),
		"service.queue_wait_ms_p90":      quantile(wait, 0.9),
		"service.run_ms_p50":             quantile(run, 0.5),
		"service.submit_rtt_ms_p50":      quantile(rtt, 0.5),
		"service.cache_hit_frac":         cached / float64(ops),
		"service.refused":                refused,
		"bench.late_ms_p90":              quantile(late, 0.9),
	}
}
