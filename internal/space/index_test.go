package space

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/geom"
)

// bruteRow computes node i's neighbor row the obvious O(N) way; ascending
// order falls out of the scan order.
func bruteRow(metric geom.Metric, pos []geom.Vec2, radius float64, i int, filter func(i, j int32) bool) []int32 {
	r2 := radius * radius
	var row []int32
	for j := range pos {
		if j == i {
			continue
		}
		if filter != nil && !filter(int32(i), int32(j)) {
			continue
		}
		if metric.Dist2(pos[i], pos[j]) <= r2 {
			row = append(row, int32(j))
		}
	}
	return row
}

// stepChurn advances every position with a per-node heading at high speed
// (wrap-heavy: many nodes cross cell boundaries and the border seam every
// tick) and teleports a node outright every ~100 node-ticks.
func stepChurn(rng *rand.Rand, metric geom.Metric, pos []geom.Vec2, dir []float64, speed float64) {
	side := metric.Side()
	for i := range pos {
		if rng.Float64() < 0.01 {
			pos[i] = geom.Vec2{X: rng.Float64() * side, Y: rng.Float64() * side}
			dir[i] = rng.Float64() * 2 * math.Pi
			continue
		}
		p := pos[i].Add(geom.Heading(dir[i]).Scale(speed))
		pos[i], _ = metric.Wrap(p)
	}
}

// TestIndexMatchesRescanHighChurn is the incremental-maintenance property
// test: step the index and a from-scratch rescan side by side over
// boundary-crossing-heavy mobility and demand identical adjacency every
// tick. Rows not flagged for requery are reused from the previous tick —
// exactly the engine's reuse contract — so any unsoundness in the margin
// or teleport-marking logic shows up as a divergence here.
func TestIndexMatchesRescanHighChurn(t *testing.T) {
	cases := []struct {
		name   string
		kind   geom.MetricKind
		n      int
		side   float64
		radius float64
		speed  float64
	}{
		{"square", geom.MetricSquare, 120, 10, 1.5, 0.12},
		{"torus", geom.MetricTorus, 120, 10, 1.5, 0.12},
		{"square-fast", geom.MetricSquare, 80, 8, 1.0, 0.35},
		{"torus-whole-axis", geom.MetricTorus, 40, 2, 1.5, 0.2},
		{"square-whole-axis", geom.MetricSquare, 40, 2, 1.5, 0.2},
		{"torus-single-cell", geom.MetricTorus, 30, 2, 1.9, 0.15},
		{"square-radius-exceeds-side", geom.MetricSquare, 30, 10, 25, 0.5},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(7))
			metric, err := geom.NewMetric(tc.kind, tc.side)
			if err != nil {
				t.Fatal(err)
			}
			pos := make([]geom.Vec2, tc.n)
			dir := make([]float64, tc.n)
			for i := range pos {
				pos[i] = geom.Vec2{X: rng.Float64() * tc.side, Y: rng.Float64() * tc.side}
				dir[i] = rng.Float64() * 2 * math.Pi
			}
			x, err := NewIndex(metric, tc.radius, pos)
			if err != nil {
				t.Fatal(err)
			}
			rows := make([][]int32, tc.n)
			var buf []int32
			for i := range rows {
				if !x.Requery(i) {
					t.Fatalf("row %d not flagged after construction", i)
				}
				rows[i] = slices.Clone(x.Row(i, buf[:0]))
			}
			for tick := 1; tick <= 200; tick++ {
				stepChurn(rng, metric, pos, dir, tc.speed)
				x.Begin(false)
				for i := 0; i < tc.n; i++ {
					if x.Requery(i) {
						rows[i] = append(rows[i][:0], x.Row(i, buf[:0])...)
					}
					want := bruteRow(metric, pos, tc.radius, i, nil)
					if !slices.Equal(rows[i], want) {
						t.Fatalf("tick %d row %d diverged (requeried=%v):\nincremental %v\nrescan      %v",
							tick, i, x.Requery(i), rows[i], want)
					}
				}
			}
		})
	}
}

// TestIndexCostScalesWithMobility pins the payoff: the fraction of rows
// requeried per tick tracks node speed, not population — an order of
// magnitude less motion must buy roughly an order of magnitude fewer
// requeries (the correctness of the reused rows is covered by the
// high-churn test above, which shares the same code path).
func TestIndexCostScalesWithMobility(t *testing.T) {
	requeryFrac := func(step float64) float64 {
		rng := rand.New(rand.NewSource(5))
		metric, err := geom.NewMetric(geom.MetricTorus, 10)
		if err != nil {
			t.Fatal(err)
		}
		const n, radius, ticks = 400, 1.5, 200
		pos := make([]geom.Vec2, n)
		dir := make([]float64, n)
		for i := range pos {
			pos[i] = geom.Vec2{X: rng.Float64() * 10, Y: rng.Float64() * 10}
			dir[i] = rng.Float64() * 2 * math.Pi
		}
		x, err := NewIndex(metric, radius, pos)
		if err != nil {
			t.Fatal(err)
		}
		var buf []int32
		for i := 0; i < n; i++ {
			x.Row(i, buf[:0])
		}
		for tick := 0; tick < ticks; tick++ {
			for i := range pos {
				p := pos[i].Add(geom.Heading(dir[i]).Scale(step))
				pos[i], _ = metric.Wrap(p)
			}
			x.Begin(false)
			for i := 0; i < n; i++ {
				if x.Requery(i) {
					x.Row(i, buf[:0])
				}
			}
		}
		requeried := x.Stats().RequeriedRows - n // exclude the initial build
		return float64(requeried) / float64(ticks*n)
	}
	// 0.0025 is the step benchmark's per-tick displacement (v=0.05,
	// dt=0.05); a full rescan is 100% by definition.
	base := requeryFrac(0.0025)
	slow := requeryFrac(0.00025)
	if base > 0.7 {
		t.Errorf("bench-mobility requery fraction %.0f%%; incremental path not engaging", 100*base)
	}
	if slow > base/3 {
		t.Errorf("10× slower mobility only cut the requery fraction from %.1f%% to %.1f%%; cost is not mobility-bound",
			100*base, 100*slow)
	}
	t.Logf("requery fraction: %.1f%% at bench speed, %.1f%% at 1/10 speed", 100*base, 100*slow)
}

type parityFilter struct{}

func (parityFilter) Allow(i, j int32) bool { return (i+j)%2 == 0 }

// TestIndexRowFilteredMatchesRescan pins the filtered (radio-medium) path:
// with a filter active the engine requeries every row every tick, so only
// gather correctness is at stake.
func TestIndexRowFilteredMatchesRescan(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	metric, err := geom.NewMetric(geom.MetricTorus, 10)
	if err != nil {
		t.Fatal(err)
	}
	const n, radius = 90, 1.4
	pos := make([]geom.Vec2, n)
	dir := make([]float64, n)
	for i := range pos {
		pos[i] = geom.Vec2{X: rng.Float64() * 10, Y: rng.Float64() * 10}
		dir[i] = rng.Float64() * 2 * math.Pi
	}
	x, err := NewIndex(metric, radius, pos)
	if err != nil {
		t.Fatal(err)
	}
	var buf []int32
	allow := func(i, j int32) bool { return parityFilter{}.Allow(i, j) }
	for tick := 0; tick < 80; tick++ {
		if tick > 0 {
			stepChurn(rng, metric, pos, dir, 0.15)
			if dirty := x.Begin(true); dirty != n {
				t.Fatalf("tick %d: forceAll flagged %d rows, want %d", tick, dirty, n)
			}
		}
		for i := 0; i < n; i++ {
			got := x.RowFiltered(i, buf[:0], parityFilter{})
			want := bruteRow(metric, pos, radius, i, allow)
			if !slices.Equal(got, want) {
				t.Fatalf("tick %d filtered row %d diverged:\ngot  %v\nwant %v", tick, i, got, want)
			}
		}
	}
}

// TestIndexStationaryZeroRequeries is the fast-path regression test: when
// nothing moves, Begin must flag zero rows — per-tick topology cost drops
// to the O(N) bookkeeping pass, with no distance checks at all.
func TestIndexStationaryZeroRequeries(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	metric, err := geom.NewMetric(geom.MetricSquare, 10)
	if err != nil {
		t.Fatal(err)
	}
	const n = 100
	pos := make([]geom.Vec2, n)
	for i := range pos {
		pos[i] = geom.Vec2{X: rng.Float64() * 10, Y: rng.Float64() * 10}
	}
	x, err := NewIndex(metric, 1.5, pos)
	if err != nil {
		t.Fatal(err)
	}
	var buf []int32
	for i := 0; i < n; i++ {
		x.Row(i, buf[:0]) // initial build refreshes every margin
	}
	base := x.Stats().RequeriedRows
	for tick := 0; tick < 100; tick++ {
		if dirty := x.Begin(false); dirty != 0 {
			t.Fatalf("tick %d: stationary network flagged %d rows for requery", tick, dirty)
		}
	}
	if got := x.Stats().RequeriedRows; got != base {
		t.Errorf("stationary run accumulated requeries: %d → %d", base, got)
	}
}
