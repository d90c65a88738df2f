package experiments

import (
	"context"
	"math"

	"errors"
	"fmt"
	"repro/internal/checkpoint"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
)

func TestRunSweepOrderingAcrossWorkerCounts(t *testing.T) {
	for _, workers := range []int{-1, 0, 1, 2, 3, 8, 64} {
		got, err := RunSweep(workers, 50, func(i int) (int, error) {
			return i * i, nil
		})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if len(got) != 50 {
			t.Fatalf("workers=%d: len = %d", workers, len(got))
		}
		for i, v := range got {
			if v != i*i {
				t.Fatalf("workers=%d: result[%d] = %d, want %d", workers, i, v, i*i)
			}
		}
	}
}

func TestRunSweepEmpty(t *testing.T) {
	got, err := RunSweep(4, 0, func(i int) (int, error) {
		t.Fatal("point called for empty sweep")
		return 0, nil
	})
	if err != nil || got != nil {
		t.Fatalf("empty sweep = (%v, %v), want (nil, nil)", got, err)
	}
}

func TestRunSweepAggregatesAllErrors(t *testing.T) {
	errAt := func(bad ...int) func(i int) (int, error) {
		return func(i int) (int, error) {
			for _, b := range bad {
				if i == b {
					return 0, fmt.Errorf("point %d failed", i)
				}
			}
			return i, nil
		}
	}
	for _, workers := range []int{1, 4} {
		got, err := RunSweep(workers, 20, errAt(13, 5, 17))
		if err == nil {
			t.Fatalf("workers=%d: err = nil, want aggregated errors", workers)
		}
		for _, b := range []int{5, 13, 17} {
			if want := fmt.Sprintf("point %d failed", b); !strings.Contains(err.Error(), want) {
				t.Errorf("workers=%d: aggregated error lacks %q:\n%v", workers, want, err)
			}
		}
		// Healthy points still produced results (partial output contract).
		for _, i := range []int{0, 6, 19} {
			if got[i] != i {
				t.Errorf("workers=%d: healthy point %d = %d, want %d", workers, i, got[i], i)
			}
		}
	}
}

func TestRunSweepRecoversPanics(t *testing.T) {
	for _, workers := range []int{1, 4} {
		var calls atomic.Int64
		got, err := RunSweep(workers, 12, func(i int) (int, error) {
			calls.Add(1)
			if i == 4 {
				panic("deliberate test panic")
			}
			return i + 100, nil
		})
		if calls.Load() != 12 {
			t.Fatalf("workers=%d: a panicking point aborted the sweep: %d/12 points ran", workers, calls.Load())
		}
		if err == nil || !strings.Contains(err.Error(), "sweep point 4 panicked: deliberate test panic") {
			t.Fatalf("workers=%d: err = %v, want panic surfaced as point-4 error", workers, err)
		}
		for i, v := range got {
			switch {
			case i == 4 && v != 0:
				t.Errorf("workers=%d: panicked point has non-zero result %d", workers, v)
			case i != 4 && v != i+100:
				t.Errorf("workers=%d: result[%d] = %d, want %d", workers, i, v, i+100)
			}
		}
	}
}

func TestRunSweepRunsEveryPointDespiteError(t *testing.T) {
	// Matching a serial loop's *reported* error is required; workers keep
	// draining remaining points rather than racing a cancellation flag,
	// which keeps the pool free of shared mutable state.
	var calls atomic.Int64
	sentinel := errors.New("boom")
	_, err := RunSweep(4, 32, func(i int) (int, error) {
		calls.Add(1)
		if i%7 == 0 {
			return 0, sentinel
		}
		return i, nil
	})
	if !errors.Is(err, sentinel) {
		t.Fatalf("err = %v", err)
	}
	if calls.Load() != 32 {
		t.Fatalf("points run = %d, want 32", calls.Load())
	}
}

func TestSweepSeedDeterministicAndDistinct(t *testing.T) {
	seen := map[uint64]string{}
	for _, label := range []string{"fig1", "fig2"} {
		for i := 0; i < 100; i++ {
			s := SweepSeed(42, label, i)
			if s != SweepSeed(42, label, i) {
				t.Fatalf("SweepSeed(%q, %d) not deterministic", label, i)
			}
			key := fmt.Sprintf("%s/%d", label, i)
			if prev, dup := seen[s]; dup {
				t.Fatalf("seed collision: %s and %s both map to %d", prev, key, s)
			}
			seen[s] = key
		}
	}
	if SweepSeed(1, "x", 0) == SweepSeed(2, "x", 0) {
		t.Error("base seed ignored")
	}
}

// TestRunSweepPointSetAndOnRecord pins the distributed sharding seam:
// PointSet restricts execution to the shard (others counted Skipped, no
// error), OnRecord observes exactly the shard's records, and a result
// that cannot be encoded is a hard point error when streaming (OnRecord
// set) but a benign checkpoint gap otherwise.
func TestRunSweepPointSetAndOnRecord(t *testing.T) {
	ctx := context.Background()
	shard := map[int]bool{1: true, 3: true}
	// OnRecord may be called concurrently from worker goroutines, so the
	// records are collected under a lock and compared in point order.
	var (
		mu   sync.Mutex
		recs []string
	)
	res, err := RunSweepCtx(ctx, SweepOptions{
		Name:     "s",
		Seed:     7,
		PointSet: func(i int) bool { return shard[i] },
		OnRecord: func(rec checkpoint.Record) {
			if !rec.Verify() {
				t.Errorf("point %d: record CRC invalid", rec.Point)
			}
			mu.Lock()
			recs = append(recs, fmt.Sprintf("%s/%d/%d", rec.Sweep, rec.Point, rec.Seed))
			mu.Unlock()
		},
	}, 5, func(_ context.Context, i int) (int, error) { return 10 * i, nil })
	if err != nil {
		t.Fatalf("sharded sweep errored: %v", err)
	}
	if res.Skipped != 3 || res.Executed != 2 {
		t.Fatalf("skipped=%d executed=%d, want 3/2", res.Skipped, res.Executed)
	}
	for i, want := range []bool{false, true, false, true, false} {
		if res.Done[i] != want {
			t.Errorf("Done[%d] = %v, want %v", i, res.Done[i], want)
		}
	}
	sort.Strings(recs)
	if got, want := fmt.Sprint(recs), "[s/1/7 s/3/7]"; got != want {
		t.Errorf("records = %s, want %s", got, want)
	}

	// NaN result: hard error when streaming...
	_, err = RunSweepCtx(ctx, SweepOptions{
		Name:     "s",
		OnRecord: func(checkpoint.Record) { t.Error("unencodable result streamed") },
	}, 1, func(_ context.Context, i int) (float64, error) { return math.NaN(), nil })
	if err == nil || !strings.Contains(err.Error(), "not encodable") {
		t.Errorf("streaming NaN result: err = %v, want a not-encodable point error", err)
	}
	// ...benign without OnRecord (the historical local-journal gap).
	res2, err := RunSweepCtx(ctx, SweepOptions{Name: "s"}, 1,
		func(_ context.Context, i int) (float64, error) { return math.NaN(), nil })
	if err != nil || !res2.Done[0] {
		t.Errorf("local NaN result: err = %v, done = %v, want benign success", err, res2.Done)
	}
}
