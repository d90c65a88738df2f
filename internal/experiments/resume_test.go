package experiments

import (
	"context"
	"errors"
	"fmt"
	"math"
	"path/filepath"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/checkpoint"
	"repro/internal/netsim"
)

// TestFigure1ResumeByteIdentical is the crash-safety regression test:
// a Figure 1 sweep interrupted partway through and then resumed from
// its checkpoint journal must render CSV byte-identical to an
// uninterrupted run — for both the serial and the parallel engine.
func TestFigure1ResumeByteIdentical(t *testing.T) {
	for _, workers := range []int{1, 4} {
		workers := workers
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			base := func() Options {
				opts := DefaultOptions()
				opts.Seed = 42
				opts.TargetEvents = 300 // small window: determinism, not accuracy
				opts.Workers = workers
				return opts
			}

			// Reference: one uninterrupted run, no journal.
			ref, err := Figure1(base())
			if err != nil {
				t.Fatal(err)
			}
			want := ref.CSV()

			// Interrupted run: cancel after three settled points.
			path := filepath.Join(t.TempDir(), "journal.jsonl")
			j, err := checkpoint.Open(path, "test-fp")
			if err != nil {
				t.Fatal(err)
			}
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			var settled atomic.Int64
			opts := base()
			opts.Ctx = ctx
			opts.Journal = j
			opts.OnProgress = func(p Progress) {
				if settled.Add(1) == 3 {
					cancel()
				}
			}
			partial, err := Figure1(opts)
			if err == nil {
				t.Fatal("interrupted sweep reported no error")
			}
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("interrupted sweep error %v does not wrap context.Canceled", err)
			}
			// The partial figure must be valid: a subset of the reference
			// points, not garbage.
			if got := len(partial.Series[0].Points); got == 0 || got >= len(ref.Series[0].Points) {
				t.Fatalf("partial figure has %d points, want in (0,%d)", got, len(ref.Series[0].Points))
			}
			if err := j.Close(); err != nil {
				t.Fatal(err)
			}

			// Resume: reopen the journal, run to completion.
			j2, err := checkpoint.Open(path, "test-fp")
			if err != nil {
				t.Fatal(err)
			}
			defer j2.Close()
			if j2.Completed() == 0 {
				t.Fatal("journal empty after interrupted run")
			}
			opts2 := base()
			opts2.Journal = j2
			resumed, err := Figure1(opts2)
			if err != nil {
				t.Fatalf("resumed run: %v", err)
			}
			if got := resumed.CSV(); got != want {
				t.Errorf("resumed CSV differs from uninterrupted run:\n--- resumed ---\n%s\n--- reference ---\n%s", got, want)
			}
		})
	}
}

// TestResumeReplaysWithoutExecuting verifies that a fully journaled
// sweep re-runs zero points: every result is replayed from the journal.
func TestResumeReplaysWithoutExecuting(t *testing.T) {
	path := filepath.Join(t.TempDir(), "journal.jsonl")
	j, err := checkpoint.Open(path, "fp")
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()

	const n = 6
	opt := SweepOptions{Name: "s", Workers: 2, Seed: 9, Journal: j}
	first, err := RunSweepCtx(context.Background(), opt, n,
		func(_ context.Context, i int) (float64, error) { return float64(i) * 1.5, nil })
	if err != nil {
		t.Fatal(err)
	}
	if first.Executed != n || first.Cached != 0 {
		t.Fatalf("first run: executed %d cached %d, want %d/0", first.Executed, first.Cached, n)
	}

	second, err := RunSweepCtx(context.Background(), opt, n,
		func(_ context.Context, i int) (float64, error) {
			t.Errorf("point %d re-executed despite journal", i)
			return 0, nil
		})
	if err != nil {
		t.Fatal(err)
	}
	if second.Executed != 0 || second.Cached != n {
		t.Fatalf("second run: executed %d cached %d, want 0/%d", second.Executed, second.Cached, n)
	}
	for i := 0; i < n; i++ {
		if second.Results[i] != float64(i)*1.5 {
			t.Errorf("point %d replayed %v, want %v", i, second.Results[i], float64(i)*1.5)
		}
	}
	if !second.Complete() {
		t.Error("fully replayed sweep not Complete()")
	}
}

// TestResumeIgnoresOtherSeed verifies the resume guard: journal records
// written under a different sweep seed are not replayed.
func TestResumeIgnoresOtherSeed(t *testing.T) {
	path := filepath.Join(t.TempDir(), "journal.jsonl")
	j, err := checkpoint.Open(path, "fp")
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	if _, err := RunSweepCtx(context.Background(), SweepOptions{Name: "s", Seed: 1, Journal: j}, 2,
		func(_ context.Context, i int) (int, error) { return i, nil }); err != nil {
		t.Fatal(err)
	}
	res, err := RunSweepCtx(context.Background(), SweepOptions{Name: "s", Seed: 2, Journal: j}, 2,
		func(_ context.Context, i int) (int, error) { return i + 10, nil })
	if err != nil {
		t.Fatal(err)
	}
	if res.Cached != 0 || res.Executed != 2 {
		t.Fatalf("seed changed but cached %d executed %d, want 0/2", res.Cached, res.Executed)
	}
}

// TestPointDeadlineWatchdog verifies that a runaway point is cut off
// with ErrPointDeadline while healthy points are undisturbed.
func TestPointDeadlineWatchdog(t *testing.T) {
	opt := SweepOptions{Name: "s", Workers: 2, PointDeadline: 30 * time.Millisecond}
	res, err := RunSweepCtx(context.Background(), opt, 3,
		func(ctx context.Context, i int) (int, error) {
			if i == 1 { // the runaway: blocks until the watchdog fires
				<-ctx.Done()
				return 0, ctx.Err()
			}
			return i, nil
		})
	if !errors.Is(err, ErrPointDeadline) {
		t.Fatalf("err = %v, want ErrPointDeadline", err)
	}
	if res.Done[1] {
		t.Error("deadlined point marked done")
	}
	if !res.Done[0] || !res.Done[2] {
		t.Error("healthy points disturbed by the watchdog")
	}
	if res.Results[0] != 0 || res.Results[2] != 2 {
		t.Errorf("healthy results corrupted: %v", res.Results)
	}
}

// TestCancelledSweepSkipsRemaining verifies that a pre-cancelled
// context executes nothing and the error wraps the cancellation cause.
func TestCancelledSweepSkipsRemaining(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res, err := RunSweepCtx(ctx, SweepOptions{Name: "s"}, 4,
		func(_ context.Context, i int) (int, error) {
			t.Errorf("point %d ran under a cancelled context", i)
			return 0, nil
		})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if res.Interrupted != 4 || res.Executed != 0 {
		t.Fatalf("interrupted %d executed %d, want 4/0", res.Interrupted, res.Executed)
	}
	if res.Complete() {
		t.Error("cancelled sweep claims completion")
	}
}

// TestUnencodableResultSkipsJournal verifies that a NaN result — legal
// in degenerate measurements — is kept in memory and simply not
// journaled: the sweep succeeds, and a resume re-runs the point
// deterministically instead of replaying it.
func TestUnencodableResultSkipsJournal(t *testing.T) {
	path := filepath.Join(t.TempDir(), "journal.jsonl")
	j, err := checkpoint.Open(path, "fp")
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	nan := math.NaN()
	res, err := RunSweepCtx(context.Background(), SweepOptions{Name: "s", Journal: j}, 1,
		func(_ context.Context, _ int) (float64, error) { return nan, nil })
	if err != nil {
		t.Fatalf("NaN result failed the sweep: %v", err)
	}
	if !res.Done[0] {
		t.Error("point with unencodable result lost its result")
	}
	if res.Results[0] == res.Results[0] { // NaN != NaN
		t.Errorf("result %v, want NaN", res.Results[0])
	}
	if j.Completed() != 0 {
		t.Error("journal recorded an unencodable result")
	}
	again, err := RunSweepCtx(context.Background(), SweepOptions{Name: "s", Journal: j}, 1,
		func(_ context.Context, _ int) (float64, error) { return nan, nil })
	if err != nil || again.Executed != 1 || again.Cached != 0 {
		t.Fatalf("resume after skip: err %v, executed %d, cached %d; want nil/1/0", err, again.Executed, again.Cached)
	}
}

// TestSingleRunDriversHonourCancellation checks that the drivers which
// run one simulation outside any sweep still abort on Options.Ctx: with
// a context cancelled up front, each must fail with an error wrapping
// netsim.ErrStopped instead of running its whole window.
func TestSingleRunDriversHonourCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	opts := fastOptions()
	opts.Ctx = ctx
	drivers := map[string]func() error{
		"HeadRatioTimeline": func() error { _, err := HeadRatioTimeline(opts); return err },
		"SizeBiasStudy":     func() error { _, err := SizeBiasStudy(opts); return err },
	}
	for name, run := range drivers {
		if err := run(); !errors.Is(err, netsim.ErrStopped) {
			t.Errorf("%s with a cancelled context: err = %v, want netsim.ErrStopped", name, err)
		}
	}
}
