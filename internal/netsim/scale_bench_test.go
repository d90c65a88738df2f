package netsim

import (
	"math"
	"testing"

	"repro/internal/geom"
	"repro/internal/mobility"
)

// BenchmarkStep times the steady-state tick loop at constant density
// (side grows as √N, so the mean degree is the same at every N) for the
// canonical bench mobility and a low-mobility variant (1/10 speed). The
// spread between the two shows the margin mechanism at work: per-tick
// cost is dominated by the fraction of rows whose drift budget is
// exhausted, not by N itself. The tiles rows run the same canonical
// scenario with tile-parallel topology maintenance; their output is
// byte-identical to the serial rows (TestTilesByteIdentical), so they
// differ only in time.
//
// Each row builds and warms its Sim once and reuses it across the
// rounds the benchmark framework runs, so the 100-tick warm-up is not
// repeated per round; requery/row/tick covers the timed ticks only.
func BenchmarkStep(b *testing.B) {
	for _, bc := range []struct {
		n     int
		speed float64
		tiles int
		name  string
	}{
		{400, 0.05, 1, "n400/canonical"},
		{400, 0.005, 1, "n400/low"},
		{1000, 0.05, 1, "n1k/canonical"},
		{1000, 0.005, 1, "n1k/low"},
		{1000, 0.05, 4, "n1k/canonical-tiles4"},
		{10000, 0.05, 1, "n10k/canonical"},
		{10000, 0.005, 1, "n10k/low"},
		{10000, 0.05, 2, "n10k/canonical-tiles2"},
		{100000, 0.05, 1, "n100k/canonical"},
		{100000, 0.005, 1, "n100k/low"},
		{100000, 0.05, 2, "n100k/canonical-tiles2"},
	} {
		var s *Sim
		b.Run(bc.name, func(b *testing.B) {
			if s == nil {
				var err error
				s, err = New(Config{
					N: bc.n, Side: 10 * math.Sqrt(float64(bc.n)/400), Range: 1.5, Dt: 0.05, Seed: 1,
					Metric: geom.MetricSquare,
					Model:  mobility.EpochRWP{Speed: bc.speed, Epoch: 10},
					Tiles:  bc.tiles,
				})
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
