package main

import (
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"repro/internal/geom"
	"repro/internal/mobility"
	"repro/internal/netsim"
	"repro/internal/simrand"
	"repro/internal/vfs"
)

// Layers a traced simulation op is split into. Each is a boundary the
// benchmark wraps from outside the program: a public seam
// (netsim.Protocol, netsim.Medium, mobility.Model) or a public call
// (netsim.Sim.Step).
const (
	layerStep     = iota // netsim.Sim.Step: the tick engine itself
	layerMobility        // mobility.Model.Step
	layerAdvance         // netsim.Medium.Advance (faults.Injector)
	layerDeliver         // netsim.Medium.Deliver (faults.Injector)
	layerMaint           // cluster.Maintainer callbacks
	layerAudit           // cluster.Auditor callbacks
	layerHello           // routing.Hello callbacks
	layerRoute           // routing.IntraDV / routing.Hybrid callbacks
	numLayers
)

var layerNames = [numLayers]string{
	"netsim.step", "mobility.step", "faults.advance", "faults.deliver",
	"cluster.maint", "cluster.audit", "routing.hello", "routing.route",
}

// layerClock accumulates inclusive and child time per layer for one
// single-threaded op. A layer's self time is its inclusive time minus
// the time of the layers it called. Calls nest (a layer may be entered
// only from the layer on top of the stack), so the accounting is exact
// except for the cost of reading the clock, which selfMS subtracts using
// a calibration taken once per process. Every call is timed: timing only
// a sample of the per-delivery callbacks reads a cold clock, which
// inflates exactly the calls it measures.
type layerClock struct {
	base       time.Time
	stack      []frame
	total      [numLayers]int64 // inclusive ns
	child      [numLayers]int64 // ns spent in direct children
	calls      [numLayers]int64
	childCalls [numLayers]int64 // direct children entered
}

type frame struct {
	layer int
	start int64
}

func newLayerClock() *layerClock {
	return &layerClock{base: time.Now(), stack: make([]frame, 0, 8)}
}

func (c *layerClock) now() int64 { return int64(time.Since(c.base)) }

func (c *layerClock) enter(layer int) {
	c.stack = append(c.stack, frame{layer: layer, start: c.now()})
}

func (c *layerClock) exit() {
	end := c.now()
	f := c.stack[len(c.stack)-1]
	c.stack = c.stack[:len(c.stack)-1]
	d := end - f.start
	c.total[f.layer] += d
	c.calls[f.layer]++
	if n := len(c.stack); n > 0 {
		c.child[c.stack[n-1].layer] += d
		c.childCalls[c.stack[n-1].layer]++
	}
}

// add folds another clock's totals into c.
func (c *layerClock) add(o *layerClock) {
	for l := range c.total {
		c.total[l] += o.total[l]
		c.child[l] += o.child[l]
		c.calls[l] += o.calls[l]
		c.childCalls[l] += o.childCalls[l]
	}
}

// selfMS returns every layer's self time in milliseconds, less the
// clock reads its own frames added to it and its children's frames
// added to its self time.
func (c *layerClock) selfMS() [numLayers]float64 {
	in, out := clockCost()
	var self [numLayers]float64
	for l := range self {
		v := float64(c.total[l]-c.child[l]) - in*float64(c.calls[l]) - out*float64(c.childCalls[l])
		self[l] = math.Max(v, 0) / 1e6
	}
	return self
}

var calibration struct {
	once    sync.Once
	in, out float64
}

// clockCost measures what one empty frame costs: in is the time it adds
// to its own inclusive span, out the time it adds to its parent's self
// time (nanoseconds). The minimum over several batches filters out
// preemption.
func clockCost() (in, out float64) {
	calibration.once.Do(func() {
		const n = 20000
		calibration.in, calibration.out = math.Inf(1), math.Inf(1)
		for batch := 0; batch < 5; batch++ {
			c := newLayerClock()
			c.enter(layerStep)
			for i := 0; i < n; i++ {
				c.enter(layerMobility)
				c.exit()
			}
			c.exit()
			calibration.in = math.Min(calibration.in, float64(c.total[layerMobility])/n)
			calibration.out = math.Min(calibration.out, float64(c.total[layerStep]-c.child[layerStep])/n)
		}
	})
	return calibration.in, calibration.out
}

// tracedProtocol times every callback of one protocol layer.
type tracedProtocol struct {
	inner netsim.Protocol
	clock *layerClock
	layer int
}

func (p *tracedProtocol) Name() string { return p.inner.Name() }

func (p *tracedProtocol) Start(env netsim.Env) error {
	p.clock.enter(p.layer)
	defer p.clock.exit()
	return p.inner.Start(env)
}

func (p *tracedProtocol) OnLinkEvent(ev netsim.LinkEvent) {
	p.clock.enter(p.layer)
	p.inner.OnLinkEvent(ev)
	p.clock.exit()
}

func (p *tracedProtocol) OnMessage(rcv netsim.NodeID, msg netsim.Message) {
	p.clock.enter(p.layer)
	p.inner.OnMessage(rcv, msg)
	p.clock.exit()
}

func (p *tracedProtocol) OnTick(now float64) {
	p.clock.enter(p.layer)
	p.inner.OnTick(now)
	p.clock.exit()
}

// tracedMedium times the fault layer's per-tick and per-delivery work.
// Alive and Cut pass through untimed: the engine calls them inside its
// own rebuild loops, so their cost is part of netsim's self time.
type tracedMedium struct {
	inner netsim.Medium
	clock *layerClock
}

func (m *tracedMedium) Reset(n int, src simrand.Source) { m.inner.Reset(n, src) }

func (m *tracedMedium) Advance(tick int64) {
	m.clock.enter(layerAdvance)
	m.inner.Advance(tick)
	m.clock.exit()
}

func (m *tracedMedium) Alive(id netsim.NodeID) bool { return m.inner.Alive(id) }

func (m *tracedMedium) Cut(a, b netsim.NodeID) bool { return m.inner.Cut(a, b) }

func (m *tracedMedium) Deliver(seq int64, from, to netsim.NodeID) netsim.Fate {
	m.clock.enter(layerDeliver)
	f := m.inner.Deliver(seq, from, to)
	m.clock.exit()
	return f
}

// tracedModel times the mobility layer.
type tracedModel struct {
	inner mobility.Model
	clock *layerClock
}

func (m *tracedModel) Name() string { return m.inner.Name() }

func (m *tracedModel) Init(n int, metric geom.Metric, rng *rand.Rand) (*mobility.Population, error) {
	return m.inner.Init(n, metric, rng)
}

func (m *tracedModel) Step(p *mobility.Population, metric geom.Metric, dt float64, rng *rand.Rand) {
	m.clock.enter(layerMobility)
	m.inner.Step(p, metric, dt, rng)
	m.clock.exit()
}

// tracedFS records every fsync and every written byte of the daemon's
// durable state, classified by file. It is safe for concurrent use.
type tracedFS struct {
	vfs.FS
	mu       sync.Mutex
	syncs    map[string][]float64 // file class → fsync latencies (ms)
	dirSyncs int
	written  int64
}

func newTracedFS(inner vfs.FS) *tracedFS {
	return &tracedFS{FS: inner, syncs: map[string][]float64{}}
}

// fileClass names the durable structure a path belongs to.
func fileClass(name string) string {
	switch {
	case filepath.Base(name) == "jobs.log":
		return "joblog"
	case filepath.Ext(name) == ".ckpt":
		return "journal"
	default:
		return "artifact"
	}
}

func (t *tracedFS) OpenFile(name string, flag int, perm os.FileMode) (vfs.File, error) {
	f, err := t.FS.OpenFile(name, flag, perm)
	if err != nil {
		return nil, err
	}
	return &tracedFile{File: f, fs: t, class: fileClass(name)}, nil
}

func (t *tracedFS) CreateTemp(dir, pattern string) (vfs.File, error) {
	f, err := t.FS.CreateTemp(dir, pattern)
	if err != nil {
		return nil, err
	}
	return &tracedFile{File: f, fs: t, class: "artifact"}, nil
}

func (t *tracedFS) SyncDir(dir string) error {
	t.mu.Lock()
	t.dirSyncs++
	t.mu.Unlock()
	return t.FS.SyncDir(dir)
}

type tracedFile struct {
	vfs.File
	fs    *tracedFS
	class string
}

func (f *tracedFile) Write(p []byte) (int, error) {
	n, err := f.File.Write(p)
	f.fs.mu.Lock()
	f.fs.written += int64(n)
	f.fs.mu.Unlock()
	return n, err
}

func (f *tracedFile) Sync() error {
	start := time.Now()
	err := f.File.Sync()
	d := ms(time.Since(start))
	f.fs.mu.Lock()
	f.fs.syncs[f.class] = append(f.fs.syncs[f.class], d)
	f.fs.mu.Unlock()
	return err
}

// fsTotals is a snapshot of a tracedFS.
type fsTotals struct {
	joblog, journal []float64
	syncs           int
	written         int64
}

func (t *tracedFS) totals() fsTotals {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := fsTotals{
		joblog:  append([]float64(nil), t.syncs["joblog"]...),
		journal: append([]float64(nil), t.syncs["journal"]...),
		syncs:   t.dirSyncs,
		written: t.written,
	}
	for _, v := range t.syncs {
		out.syncs += len(v)
	}
	return out
}

// span is one traced interval. Times are nanoseconds since the run
// started; Attrs carries the per-layer breakdown of an op span.
type span struct {
	ID     int64              `json:"id"`
	Parent int64              `json:"parent"`
	Name   string             `json:"name"`
	Start  int64              `json:"start_ns"`
	End    int64              `json:"end_ns"`
	Attrs  map[string]float64 `json:"attrs,omitempty"`
}

// spanLog keeps spans in memory until the run ends. It is safe for
// concurrent use.
type spanLog struct {
	base  time.Time
	mu    sync.Mutex
	next  int64
	spans []span
}

func newSpanLog() *spanLog { return &spanLog{base: time.Now()} }

// begin opens a span and returns its id and start time.
func (l *spanLog) begin() (int64, int64) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.next++
	return l.next, int64(time.Since(l.base))
}

// end records a span opened by begin.
func (l *spanLog) end(id, parent int64, name string, start int64, attrs map[string]float64) {
	end := int64(time.Since(l.base))
	l.mu.Lock()
	l.spans = append(l.spans, span{ID: id, Parent: parent, Name: name, Start: start, End: end, Attrs: attrs})
	l.mu.Unlock()
}

// add records a span whose interval was measured elsewhere.
func (l *spanLog) add(parent int64, name string, start, end time.Time, attrs map[string]float64) {
	l.mu.Lock()
	l.next++
	l.spans = append(l.spans, span{ID: l.next, Parent: parent, Name: name,
		Start: int64(start.Sub(l.base)), End: int64(end.Sub(l.base)), Attrs: attrs})
	l.mu.Unlock()
}

// write stores the spans as JSON lines, ordered by start time.
func (l *spanLog) write(path string) error {
	l.mu.Lock()
	spans := append([]span(nil), l.spans...)
	l.mu.Unlock()
	sort.Slice(spans, func(i, j int) bool { return spans[i].Start < spans[j].Start })
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return fmt.Errorf("writing spans: %w", err)
		}
	}
	return f.Close()
}
