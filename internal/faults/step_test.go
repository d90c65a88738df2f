package faults

import (
	"runtime"
	"testing"

	"repro/internal/geom"
	"repro/internal/mobility"
	"repro/internal/netsim"
)

// stepMedia are the two fault media the tick loop is pinned and timed
// under: loss with node churn (every delivery consults the injector,
// every row is requeried), and the full delivery pipeline, where delay
// and jitter park every frame in netsim's pending queue, duplication
// adds copies with their own delay and a moving partition churns the
// adjacency.
var stepMedia = []struct {
	name string
	cfg  Config
}{
	{"faults", Config{Loss: 0.2, Churn: Churn{MeanUpTicks: 2000, MeanDownTicks: 200}}},
	{"pipeline", Config{
		Loss:      0.05,
		Delay:     Delay{BaseTicks: 1, JitterTicks: 3},
		DupProb:   0.05,
		Partition: Partition{PeriodTicks: 240, DurationTicks: 40},
	}},
}

// warmStepSim builds a scenario of n nodes on a side×side square with
// the canonical bench mobility over medium (nil is the ideal medium),
// registers a protocol that broadcasts from every node every tick, and
// runs it until its buffers reach working capacity. The pending queue's
// slot arena stops growing once it holds the most frames ever parked at
// once (at most N × PendingLimit), so a few hundred ticks suffice under
// the delay pipeline too.
func warmStepSim(tb testing.TB, n int, side float64, medium netsim.Medium) *netsim.Sim {
	tb.Helper()
	sim, err := netsim.New(netsim.Config{
		N: n, Side: side, Range: 1.5, Dt: 0.05, Seed: 1,
		Metric: geom.MetricSquare,
		Model:  mobility.EpochRWP{Speed: 0.05, Epoch: 10},
		Medium: medium,
	})
	if err != nil {
		tb.Fatal(err)
	}
	if err := sim.Register(&chatter{}); err != nil {
		tb.Fatal(err)
	}
	if err := sim.Start(); err != nil {
		tb.Fatal(err)
	}
	for i := 0; i < 200; i++ {
		if err := sim.Step(); err != nil {
			tb.Fatal(err)
		}
	}
	return sim
}

// TestStepZeroAllocsUnderMedia pins the zero-alloc tick loop through
// the fault injector and the delivery pipeline: once warm, Step must not
// allocate. The measured window must carry traffic (and, under the
// pipeline, duplicates), so the check cannot pass on a silent engine.
// It runs 100 nodes at a quarter of the bench density, so the scenario
// stays quick under the race detector.
func TestStepZeroAllocsUnderMedia(t *testing.T) {
	for _, m := range stepMedia {
		t.Run(m.name, func(t *testing.T) {
			inj, err := New(m.cfg)
			if err != nil {
				t.Fatal(err)
			}
			sim := warmStepSim(t, 100, 10, inj)
			before := sim.Tallies()
			allocs := testing.AllocsPerRun(100, func() {
				if err := sim.Step(); err != nil {
					t.Fatal(err)
				}
			})
			if allocs != 0 {
				t.Errorf("Step allocates %v times per tick, want 0", allocs)
			}
			window := sim.Tallies().Sub(before)
			if window.Delivered == 0 {
				t.Error("no deliveries in the measured window")
			}
			if m.cfg.DupProb > 0 && window.Duplicated == 0 {
				t.Error("no duplicates in the measured window")
			}
		})
	}
}

// BenchmarkStepMedia times netsim.BenchmarkStep's n400/canonical
// scenario with every node broadcasting every tick, on the ideal medium
// and under stepMedia. Each row warms its Sim once and reuses it across
// the framework's rounds.
func BenchmarkStepMedia(b *testing.B) {
	row := func(name string, medium netsim.Medium) {
		var sim *netsim.Sim
		b.Run(name, func(b *testing.B) {
			if sim == nil {
				sim = warmStepSim(b, 400, 10, medium)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := sim.Step(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
	row("ideal", nil)
	for _, m := range stepMedia {
		inj, err := New(m.cfg)
		if err != nil {
			b.Fatal(err)
		}
		row(m.name, inj)
	}
}

// TestPendingHeapBoundedUnderPipeline runs BenchmarkStepMedia's N=400
// pipeline scenario for six laps of netsim's 513-tick pending ring and
// requires the live heap to stop growing after the second lap and to
// stay within a budget derived from the pending bound: 400 receivers ×
// DefaultPendingLimit parked frames, at 256 B of live heap per frame
// (its arena slot, its share of the release buffer and the rest of the
// engine). A queue that keeps per-bucket or tombstoned storage holds
// hundreds of megabytes here.
func TestPendingHeapBoundedUnderPipeline(t *testing.T) {
	if testing.Short() {
		t.Skip("runs six 513-tick laps of a 400-node broadcasting scenario")
	}
	const (
		n     = 400
		lap   = netsim.MaxDelayTicks + 1
		laps  = 6
		slack = 64 << 10
	)
	budget := uint64(n * netsim.DefaultPendingLimit * 256)
	live := func() uint64 {
		var ms runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}
	inj, err := New(stepMedia[1].cfg) // pipeline
	if err != nil {
		t.Fatal(err)
	}
	base := live()
	sim := warmStepSim(t, n, 10, inj)
	var lap2 uint64
	for l := 1; l <= laps; l++ {
		for i := 0; i < lap; i++ {
			if err := sim.Step(); err != nil {
				t.Fatal(err)
			}
		}
		if l == 2 {
			lap2 = live()
		}
	}
	lap6 := live()
	t.Logf("live heap above baseline: lap 2 %d B, lap 6 %d B (budget %d B)", lap2-base, lap6-base, budget)
	if lap6 > lap2+slack {
		t.Errorf("live heap grew %d B between laps 2 and 6, want ≈ 0", lap6-lap2)
	}
	if lap6-base > budget {
		t.Errorf("live heap %d B above baseline after %d laps, budget %d B", lap6-base, laps, budget)
	}
	if sim.Tallies().Overflow == 0 {
		t.Error("no pending overflow: the scenario never filled a receiver's queue")
	}
}
