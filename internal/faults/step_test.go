package faults

import (
	"testing"

	"repro/internal/geom"
	"repro/internal/mobility"
	"repro/internal/netsim"
)

// stepMedia are the two fault media the tick loop is pinned and timed
// under: loss with node churn (every delivery consults the injector,
// every row is requeried), and the full delivery pipeline, where delay
// and jitter park every frame in netsim's pending ring, duplication
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
// runs it until its buffers reach working capacity. The warm-up spans a
// full lap of netsim's pending ring plus 200 ticks: a ring bucket grows
// its backing array whenever its due tick parks more frames than it has
// held, so under the delay pipeline the first lap allocates on most
// ticks and later laps rarely.
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
	for i := 0; i < netsim.MaxDelayTicks+201; i++ {
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
// It runs 100 nodes at a quarter of the bench density: the pending ring
// keeps every bucket's backing array, which at N=400 and full density
// holds hundreds of megabytes.
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
