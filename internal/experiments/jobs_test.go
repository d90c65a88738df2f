package experiments

import (
	"bytes"
	"context"
	"strings"
	"sync/atomic"
	"testing"

	"repro/internal/core"
)

func TestFigureCSVRejectsUnsupportedIDs(t *testing.T) {
	const supported = "supported: 1, 2, 3, 8, 9"
	for _, id := range []int{0, 4, 5, 6, 7, 10, -1} {
		if _, err := FigureCSV(id, DefaultOptions()); err == nil {
			t.Errorf("figure id %d accepted, want rejection", id)
		}
		_, err := FigurePlan(id)
		if err == nil {
			t.Errorf("FigurePlan(%d) accepted an unsupported id", id)
		} else if !strings.Contains(err.Error(), supported) {
			t.Errorf("FigurePlan(%d) error %q does not name the supported ids (%s)", id, err, supported)
		}
	}
	for _, id := range []int{1, 2, 3, 8, 9} {
		if plan, err := FigurePlan(id); err != nil || plan.Points == 0 {
			t.Errorf("FigurePlan(%d) = %+v, %v; want a plan with points", id, plan, err)
		}
	}
}

// TestMeasureCSVDeterministic verifies the job-shaped entry point's
// core contract: identical parameters yield byte-identical artifacts.
func TestMeasureCSVDeterministic(t *testing.T) {
	net := core.Network{N: 60, R: 1.5, V: 0.05, Density: 4}
	opts := DefaultOptions()
	opts.TargetEvents = 300
	a, err := MeasureCSV(net, opts)
	if err != nil {
		t.Fatal(err)
	}
	b, err := MeasureCSV(net, opts)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, b) {
		t.Errorf("two identical measure jobs produced different bytes:\n%s\n%s", a, b)
	}
	lines := strings.Split(strings.TrimSpace(string(a)), "\n")
	if len(lines) != 2 {
		t.Fatalf("measure CSV has %d lines, want header + one row:\n%s", len(lines), a)
	}
	if !strings.HasPrefix(lines[0], "duration,") || !strings.Contains(lines[0], "f_hello") {
		t.Errorf("unexpected header %q", lines[0])
	}
}

// TestFigureCSVPartialOnInterruption verifies the drain contract: a
// figure job cancelled mid-sweep returns the valid partial artifact
// alongside the error, and the partial rows are a subset of the
// uninterrupted run's.
func TestFigureCSVPartialOnInterruption(t *testing.T) {
	base := func() Options {
		opts := DefaultOptions()
		opts.TargetEvents = 150
		opts.Workers = 1
		return opts
	}
	full, err := FigureCSV(1, base())
	if err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var settled atomic.Int64
	opts := base()
	opts.Ctx = ctx
	opts.OnProgress = func(Progress) {
		if settled.Add(1) == 2 {
			cancel()
		}
	}
	partial, err := FigureCSV(1, opts)
	if err == nil {
		t.Fatal("interrupted figure job reported no error")
	}
	if len(partial) == 0 {
		t.Fatal("interrupted figure job returned no partial bytes")
	}
	fullLines := strings.Split(strings.TrimSpace(string(full)), "\n")
	partialLines := strings.Split(strings.TrimSpace(string(partial)), "\n")
	if partialLines[0] != fullLines[0] {
		t.Errorf("partial header %q != full header %q", partialLines[0], fullLines[0])
	}
	if len(partialLines) >= len(fullLines) {
		t.Errorf("partial artifact has %d lines, want fewer than %d", len(partialLines), len(fullLines))
	}
	rows := map[string]bool{}
	for _, l := range fullLines[1:] {
		rows[l] = true
	}
	for _, l := range partialLines[1:] {
		if !rows[l] {
			t.Errorf("partial row %q absent from the uninterrupted artifact", l)
		}
	}
}
