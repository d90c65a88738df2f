package main

import (
	"encoding/json"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
	"time"
)

// benchmarkFile is the part of ../BENCHMARK.json the self-test checks
// the command against.
type benchmarkFile struct {
	Workloads []struct{ Name string } `json:"workloads"`
	EndToEnd  []struct {
		Name, Unit string
	} `json:"end_to_end"`
	PerLayer []struct {
		Name, Unit string
	} `json:"per_layer"`
}

func readBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkFile
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	return b
}

func tinyWorkload(t *testing.T, name string) workload {
	t.Helper()
	w, ok := lookup(name, true)
	if !ok {
		t.Fatalf("no workload %q", name)
	}
	return w
}

// TestMetricsEmitted runs every workload at a tiny size in both modes
// and checks that exactly the metrics BENCHMARK.json names come out,
// each with its unit, and that every output check passed.
func TestMetricsEmitted(t *testing.T) {
	b := readBenchmarkFile(t)
	for _, wl := range b.Workloads {
		w := tinyWorkload(t, wl.Name)
		for _, traced := range []bool{false, true} {
			want := b.EndToEnd
			if traced {
				want = b.PerLayer
			}
			res, err := measure(w, 3, time.Millisecond, traced, t.TempDir(), io.Discard)
			if err != nil {
				t.Fatalf("%s traced=%v: %v", wl.Name, traced, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s traced=%v: correct=%v failed=%d attempted=%d", wl.Name, traced, res.Correct, res.Failed, res.Attempted)
			}
			var got, names []string
			for k := range res.Metrics {
				got = append(got, k)
			}
			for _, m := range want {
				names = append(names, m.Name)
				r, ok := res.Metrics[m.Name]
				if !ok {
					continue
				}
				if r.Unit != m.Unit {
					t.Errorf("%s %s: unit %q, BENCHMARK.json says %q", wl.Name, m.Name, r.Unit, m.Unit)
				}
				if math.IsNaN(r.Value) || math.IsInf(r.Value, 0) {
					t.Errorf("%s %s: value %v", wl.Name, m.Name, r.Value)
				}
				if !traced && r.Value <= 0 {
					t.Errorf("%s %s: end-to-end value %v is not positive", wl.Name, m.Name, r.Value)
				}
			}
			sort.Strings(got)
			sort.Strings(names)
			if strings.Join(got, " ") != strings.Join(names, " ") {
				t.Errorf("%s traced=%v: metrics\n got %v\nwant %v", wl.Name, traced, got, names)
			}
		}
	}
}

// TestResultLine checks the command's output contract: the last line
// of standard output is the JSON result.
func TestResultLine(t *testing.T) {
	var out strings.Builder
	w := tinyWorkload(t, "delay_pipeline")
	res, err := measure(w, 1, time.Millisecond, false, t.TempDir(), &out)
	if err != nil {
		t.Fatal(err)
	}
	line, err := json.Marshal(res)
	if err != nil {
		t.Fatal(err)
	}
	var back map[string]any
	if err := json.Unmarshal(line, &back); err != nil {
		t.Fatal(err)
	}
	for _, k := range []string{"correct", "attempted", "failed", "metrics"} {
		if _, ok := back[k]; !ok {
			t.Errorf("result lacks %q", k)
		}
	}
	if len(back) != 4 {
		t.Errorf("result has keys %v", back)
	}
	if !strings.Contains(out.String(), "fail_frac") {
		t.Errorf("human-readable lines lack fail_frac:\n%s", out.String())
	}
}

func corrupt(b []byte) []byte {
	c := append([]byte(nil), b...)
	c[len(c)/2] ^= 1
	return c
}

// TestSimChecksFire corrupts each kind of simulation output and expects
// the matching check to report it.
func TestSimChecksFire(t *testing.T) {
	s, err := newPaperFigs(5, true)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.round(); err != nil {
		t.Fatal(err)
	}
	if p := s.verify(); len(p) != 0 {
		t.Fatalf("clean paper_figs run reported %v", p)
	}
	// Another worker count must reproduce round 0's bytes.
	good := s.first[1]
	s.first[1] = corrupt(good)
	if p := s.verify(); len(p) != 1 || !strings.Contains(p[0], "fig2/0: CSV differs between 1 and 2 sweep workers") {
		t.Errorf("corrupted fig2 CSV: got %v", p)
	}
	s.first[1] = good
	// A later round runs fresh inputs; its traced rebuild and a rerun
	// must reproduce its untraced bytes.
	if _, err := s.round(); err != nil {
		t.Fatal(err)
	}
	if s.last[0].name != "fig1/1" {
		t.Fatalf("second round starts with %s", s.last[0].name)
	}
	s.lastOut[0] = corrupt(s.lastOut[0])
	if _, _, err := s.tracedRound(newSpanLog(), 0); err != nil {
		t.Fatal(err)
	}
	if len(s.problems) != 1 || !strings.Contains(s.problems[0], "fig1/1: traced output differs from the untraced run") {
		t.Errorf("corrupted fig1 CSV against the traced rebuild: got %v", s.problems)
	}
	if p := s.verify(); len(p) != 2 || !strings.Contains(p[1], "fig1/1: a second run differs from the first") {
		t.Errorf("corrupted fig1 CSV against a rerun: got %v", p)
	}

	f, err := newFaulty(lossyChurn(true), 5)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.round(); err != nil {
		t.Fatal(err)
	}
	f.lastOut[0] = corrupt(f.lastOut[0])
	if p := f.verify(); len(p) != 1 || !strings.Contains(p[0], "lossy_churn[0]: a second run differs from the first") {
		t.Errorf("corrupted scenario result: got %v", p)
	}

	// Scenario results must match the digest recorded for the seed.
	p := lossyChurn(true)
	g, err := newFaulty(p, 5)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := g.round(); err != nil {
		t.Fatal(err)
	}
	p.digests = map[uint64]string{5: digest(g.first...)}
	if g, err = newFaulty(p, 5); err != nil {
		t.Fatal(err)
	}
	if _, err := g.round(); err != nil {
		t.Fatal(err)
	}
	if p := g.verify(); len(p) != 0 {
		t.Fatalf("clean lossy_churn run against its digest reported %v", p)
	}
	g.first[1] = corrupt(g.first[1])
	if p := g.verify(); len(p) != 1 || !strings.Contains(p[0], "lossy_churn seed 5: output digest") {
		t.Errorf("corrupted scenario result against the recorded digest: got %v", p)
	}
}

// TestDigestSkipNote checks that a seed without a recorded digest skips
// the check out loud, and that every table covers seeds 0–199.
func TestDigestSkipNote(t *testing.T) {
	var log strings.Builder
	if p := checkDigest(delayDigests, "delay_pipeline", 200, nil, &log); len(p) != 0 {
		t.Errorf("unrecorded seed reported %v", p)
	}
	if !strings.Contains(log.String(), "delay_pipeline seed 200 has no recorded output digest") {
		t.Errorf("no note for an unrecorded seed, got %q", log.String())
	}
	for name, table := range map[string]map[uint64]string{
		"paper_figs": figDigests, "lossy_churn": lossyDigests, "delay_pipeline": delayDigests,
	} {
		for seed := uint64(0); seed < 200; seed++ {
			if _, ok := table[seed]; !ok {
				t.Errorf("%s: no digest for seed %d", name, seed)
				break
			}
		}
	}
}

// TestFaultyDigest checks the recorded digests of one seed against
// full-size runs of both fault workloads.
func TestFaultyDigest(t *testing.T) {
	if testing.Short() {
		t.Skip("full-size scenarios")
	}
	for _, p := range []faultyParams{lossyChurn(false), delayPipeline(false)} {
		s, err := newFaulty(p, 0)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := s.round(); err != nil {
			t.Fatal(err)
		}
		if v := s.verify(); len(v) != 0 {
			t.Errorf("%s seed 0: %v", p.name, v)
		}
	}
}

// TestFigureDigest checks the recorded digest of one seed against a
// full-size run, and that a one-bit change breaks it.
func TestFigureDigest(t *testing.T) {
	if testing.Short() {
		t.Skip("full-size figures")
	}
	const seed = 0
	want, ok := figDigests[seed]
	if !ok {
		t.Fatalf("no digest recorded for seed %d", seed)
	}
	s, err := newPaperFigs(seed, false)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.round(); err != nil {
		t.Fatal(err)
	}
	if got := digest(s.first...); got != want {
		t.Fatalf("seed %d: digest %s, recorded %s", seed, got, want)
	}
	s.first[2] = corrupt(s.first[2])
	if p := checkDigest(figDigests, "paper_figs", seed, s.first, io.Discard); len(p) != 1 {
		t.Errorf("corrupted fig3 CSV: got %v", p)
	}
}

// TestServeChecks runs the serve workload at a tiny size, checks that
// the generator recorded its lateness for every job, and that a
// corrupted artifact is caught.
func TestServeChecks(t *testing.T) {
	s, err := newServe(serveParams(true), 5, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer s.close()
	if _, err := s.round(); err != nil {
		t.Fatal(err)
	}
	l, _, err := s.tracedRound(newSpanLog(), 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, o := range s.outcomes {
		if o.err != nil || o.refused {
			t.Fatalf("job %+v failed: %v", o.spec, o.err)
		}
		if math.IsNaN(o.lateMS) || o.due.IsZero() {
			t.Errorf("job %s: no lateness recorded", o.status.ID)
		}
	}
	m := l.metrics(l.ops())
	if v, ok := m["bench.late_ms_p90"]; !ok || math.IsNaN(v) {
		t.Errorf("bench.late_ms_p90 = %v, %v", v, ok)
	}
	if m["service.cache_hit_frac"] <= 0 || m["vfs.syncs_per_job"] <= 0 {
		t.Errorf("traced serve round saw no cache hits or no fsyncs: %v", m)
	}
	if p := s.verify(); len(p) != 0 {
		t.Fatalf("clean serve run reported %v", p)
	}
	s.outcomes[0].artifact = corrupt(s.outcomes[0].artifact)
	if p := s.verify(); len(p) != 1 || !strings.Contains(p[0], "artifact differs") {
		t.Errorf("corrupted artifact: got %v", p)
	}
}
