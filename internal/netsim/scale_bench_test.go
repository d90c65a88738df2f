package netsim

import (
	"math"
	"testing"

	"repro/internal/geom"
	"repro/internal/mobility"
	"repro/internal/simrand"
)

// passMedium is a fault medium that injects no fault: every radio is up,
// no pair is cut and every delivery is immediate. Any non-nil Medium
// makes Begin flag every row, so it isolates the cost of the forced full
// rescan every fault run pays (rows gathered through RowFiltered) from
// the cost of the faults themselves.
type passMedium struct{}

func (passMedium) Reset(int, simrand.Source)          {}
func (passMedium) Advance(int64)                      {}
func (passMedium) Alive(NodeID) bool                  { return true }
func (passMedium) Cut(NodeID, NodeID) bool            { return false }
func (passMedium) Deliver(int64, NodeID, NodeID) Fate { return Fate{} }

// BenchmarkStep times the steady-state tick loop at constant density
// (side grows as √N, so the mean degree is the same at every N) for the
// canonical bench mobility and a low-mobility variant (1/10 speed). The
// spread between the two shows the margin mechanism at work: per-tick
// cost is dominated by the fraction of rows whose drift budget is
// exhausted, not by N itself. The rescan rows run the canonical scenario
// under passMedium, which requeries every row every tick: they measure
// what the incremental index saves over a full rescan, and their output
// equals the canonical rows' (the medium changes no link).
//
// Each row builds and warms its Sim once and reuses it across the
// rounds the benchmark framework runs, so the 100-tick warm-up is not
// repeated per round; requery/row/tick covers the timed ticks only.
func BenchmarkStep(b *testing.B) {
	for _, bc := range []struct {
		n      int
		speed  float64
		rescan bool
		name   string
	}{
		{400, 0.05, false, "n400/canonical"},
		{400, 0.005, false, "n400/low"},
		{400, 0.05, true, "n400/canonical-rescan"},
		{1000, 0.05, false, "n1k/canonical"},
		{1000, 0.005, false, "n1k/low"},
		{1000, 0.05, true, "n1k/canonical-rescan"},
		{10000, 0.05, false, "n10k/canonical"},
		{10000, 0.005, false, "n10k/low"},
		{10000, 0.05, true, "n10k/canonical-rescan"},
		{100000, 0.05, false, "n100k/canonical"},
		{100000, 0.005, false, "n100k/low"},
		{100000, 0.05, true, "n100k/canonical-rescan"},
	} {
		var s *Sim
		b.Run(bc.name, func(b *testing.B) {
			if s == nil {
				var err error
				cfg := Config{
					N: bc.n, Side: 10 * math.Sqrt(float64(bc.n)/400), Range: 1.5, Dt: 0.05, Seed: 1,
					Metric: geom.MetricSquare,
					Model:  mobility.EpochRWP{Speed: bc.speed, Epoch: 10},
				}
				if bc.rescan {
					cfg.Medium = passMedium{}
				}
				s, err = New(cfg)
				if err != nil {
					b.Fatal(err)
				}
				for i := 0; i < 100; i++ {
					if err := s.Step(); err != nil {
						b.Fatal(err)
					}
				}
			}
			before := s.IndexStats()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := s.Step(); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			after := s.IndexStats()
			b.ReportMetric(float64(after.RequeriedRows-before.RequeriedRows)/float64(b.N)/float64(bc.n), "requery/row/tick")
		})
	}
}
