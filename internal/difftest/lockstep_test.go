package difftest

import (
	"fmt"
	"math"
	"math/rand"
	"sync"
	"testing"

	"repro/internal/faults"
	"repro/internal/geom"
	"repro/internal/mobility"
	"repro/internal/netsim"
	"repro/internal/space"
)

// scenarios generates the randomized lockstep matrix: count scenarios
// with N, density, range and speed drawn from a fixed-seed rng, cycling
// through both metrics, the mobility model families, the fault regimes
// and both maintenance modes. Fixed seed → the matrix is identical on
// every run, so a divergence is always reproducible by name.
func scenarios(count, ticks int) []Scenario {
	rng := rand.New(rand.NewSource(20060425)) // ICDCS 2006 — the paper's venue year
	metrics := []geom.MetricKind{geom.MetricSquare, geom.MetricTorus}
	var out []Scenario
	for i := 0; i < count; i++ {
		n := 8 + rng.Intn(41)          // 8..48 nodes
		density := 1 + 3*rng.Float64() // ρ ∈ [1,4) nodes per unit area
		side := math.Sqrt(float64(n) / density)
		// r down to 0.12·a forces fine grids (≥ 5 cells per axis), so the
		// windowed cell scan is exercised, not just the small-grid
		// whole-axis fallback.
		r := side * (0.12 + 0.3*rng.Float64()) // r ∈ [0.12,0.42)·a
		v := 0.02 + 0.2*rng.Float64()          // distance per unit time
		dt := r / v / 25                       // ~r/25 of travel per tick
		seed := rng.Uint64()
		s := Scenario{
			Cfg: netsim.Config{
				N: n, Side: side, Range: r, Dt: dt, Seed: seed,
				Metric: metrics[i%len(metrics)],
			},
			Ticks: ticks,
		}
		switch i % 4 {
		case 0:
			s.NewModel = func() mobility.Model { return mobility.BCV{Speed: v} }
		case 1:
			epoch := 8 * dt
			s.NewModel = func() mobility.Model { return mobility.EpochRWP{Speed: v, Epoch: epoch} }
		case 2:
			s.NewModel = func() mobility.Model {
				return mobility.RandomWaypoint{MinSpeed: v / 2, MaxSpeed: 2 * v}
			}
		case 3:
			// RPGM is pointer-stateful — exactly why NewModel is a
			// factory and not a shared Model value.
			epoch, radius, jitter := 10*dt, r/2, v/4
			groups := 1 + n/8
			s.NewModel = func() mobility.Model {
				m, err := mobility.NewRPGM(groups, v, epoch, radius, jitter)
				if err != nil {
					panic(err)
				}
				return m
			}
		}
		switch i % 5 {
		case 1:
			s.Faults = &faults.Config{Loss: 0.1 + 0.2*rng.Float64()}
		case 2:
			s.Faults = &faults.Config{
				Burst: faults.GilbertElliott{
					PGoodBad: 0.05, PBadGood: 0.3, LossGood: 0.01, LossBad: 0.7,
				},
				Churn: faults.Churn{MeanUpTicks: 400, MeanDownTicks: 40},
			}
		case 3:
			// The reordering regime: jitter wide enough that frames
			// routinely overtake each other, plus duplication, plus a
			// little loss so all three pipeline stages fire together.
			s.Faults = &faults.Config{
				Loss:    0.05,
				Delay:   faults.Delay{BaseTicks: 1 + 2*rng.Float64(), JitterTicks: 1 + 3*rng.Float64()},
				DupProb: 0.05 + 0.15*rng.Float64(),
			}
		case 4:
			// A moving partition with delayed delivery: several
			// sever/heal cycles fit inside the run, so the lockstep
			// comparison covers the cut draw, the severed adjacency and
			// the heal re-flood through the pending queue.
			s.Faults = &faults.Config{
				Delay: faults.Delay{BaseTicks: rng.Float64(), JitterTicks: 2 * rng.Float64()},
				Partition: faults.Partition{
					PeriodTicks:   20 + int64(rng.Intn(21)),
					DurationTicks: 5 + int64(rng.Intn(6)),
				},
			}
		}
		// Soft-state handshake mode on half the faulted scenarios and a
		// few ideal ones, periodic HELLO on every fifth scenario.
		s.Handshake = i%5 != 0 && i%2 == 1 || i%8 == 0
		s.PeriodicHello = i%5 == 0
		s.Name = name(i, s)
		out = append(out, s)
	}
	return out
}

// name builds a stable, self-describing scenario label. The t1/t2/t8
// segment selects nothing: it is the tile count the matrix once cycled
// through, kept so every scenario keeps the name that divergence reports
// and recorded test results know it by.
func name(i int, s Scenario) string {
	lbl := "square"
	if s.Cfg.Metric == geom.MetricTorus {
		lbl = "torus"
	}
	mode := "ideal"
	switch {
	case s.Faults == nil:
	case s.Faults.Partition.PeriodTicks > 0:
		mode = "partition+delay"
	case s.Faults.DupProb > 0:
		mode = "delay+dup"
	case s.Faults.Loss > 0:
		mode = "loss"
	default:
		mode = "burst+churn"
	}
	maint := "oracle"
	if s.Handshake {
		maint = "handshake"
	}
	hello := "event"
	if s.PeriodicHello {
		hello = "periodic"
	}
	return fmt.Sprintf("%s/%s/%s/%s-hello/n%d/t%d#%d", lbl, mode, maint, hello, s.Cfg.N, []int{1, 2, 8}[i%3], i)
}

// staticExtras appends deterministic static scenarios the randomized
// matrix never generates: they are where the tick engine's stationary
// fast path lives (zero dirty rows, so the adjacency rebuild and the
// link-event diff are skipped outright while timers, handshakes and
// periodic beacons keep running), so the lockstep must cover them
// explicitly.
func staticExtras(ticks int) []Scenario {
	base := netsim.Config{N: 40, Side: 8, Range: 2, Dt: 0.5, Seed: 20060425}
	return []Scenario{
		{Name: "static/ideal/oracle/periodic-hello/extra", Cfg: base, PeriodicHello: true, Ticks: ticks},
		{Name: "static/ideal/oracle/event-hello/extra", Cfg: base, Ticks: ticks},
		{Name: "static/ideal/handshake/periodic-hello/extra", Cfg: base, Handshake: true, PeriodicHello: true, Ticks: ticks},
	}
}

// TestLockstepMatrix is the differential gate: ≥ 20 randomized configs
// (24 in -short mode, 48 with more ticks otherwise) covering square and
// torus metrics, four mobility families, five media regimes (ideal,
// lossy, bursty+churn, delayed/reordered+duplicated, partitioned with
// delay) and oracle/handshake maintenance, plus deterministic static
// extras, each run in two-way lockstep (brute-force oracle, tick
// engine) with zero tolerated divergence. The tick engine's index
// counters must show its fast paths fired: the ideal mobile scenarios
// requery some rows but not all, and every static extra requeries none.
// The sequence check must have withheld frames in the delaying or
// duplicating scenarios (where the tick engine's lazily created filter
// meets the oracle's always-on one) and none anywhere else.
func TestLockstepMatrix(t *testing.T) {
	count, ticks := 48, 120
	if testing.Short() {
		count, ticks = 24, 60
	}
	covered := map[string]bool{}
	var (
		mu                 sync.Mutex
		idealRows, idealRq int64
		reorderStale       float64
	)
	t.Run("matrix", func(t *testing.T) {
		for _, s := range append(scenarios(count, ticks), staticExtras(ticks)...) {
			s := s
			t.Run(s.Name, func(t *testing.T) {
				t.Parallel()
				obs, err := LockstepObserved(s)
				if err != nil {
					t.Fatal(err)
				}
				switch {
				case s.NewModel == nil:
					checkStaticFastPath(t, obs.Index, ticks)
				case s.Faults == nil:
					mu.Lock()
					idealRows += obs.Index.Ticks * int64(s.Cfg.N)
					idealRq += obs.Index.RequeriedRows
					mu.Unlock()
				}
				if reorders(s) {
					mu.Lock()
					reorderStale += obs.Tallies.Stale
					mu.Unlock()
				} else if obs.Tallies.Stale != 0 {
					t.Errorf("%v stale frames without delay or duplication", obs.Tallies.Stale)
				}
			})
			if s.Cfg.Metric == geom.MetricTorus {
				covered["torus"] = true
			} else {
				covered["square"] = true
			}
			if s.Faults != nil {
				covered["faults"] = true
				if s.Faults.Delay.BaseTicks > 0 || s.Faults.Delay.JitterTicks > 0 {
					covered["delay"] = true
				}
				if s.Faults.DupProb > 0 {
					covered["dup"] = true
				}
				if s.Faults.Partition.PeriodTicks > 0 {
					covered["partition"] = true
				}
			}
			if s.Handshake {
				covered["handshake"] = true
			}
		}
	})
	for _, want := range []string{"square", "torus", "faults", "handshake", "delay", "dup", "partition"} {
		if !covered[want] {
			t.Errorf("scenario matrix lost %s coverage", want)
		}
	}
	if idealRq == 0 || idealRq >= idealRows {
		t.Errorf("ideal mobile scenarios requeried %d of %d rows; want a partial requery (0 < requeried < all)",
			idealRq, idealRows)
	}
	if reorderStale == 0 {
		t.Error("no stale frame in any delay or duplication scenario: the sequence check never fired")
	}
}

// reorders reports whether the scenario's medium delays or duplicates
// frames, the only way a sequenced frame can arrive stale.
func reorders(s Scenario) bool {
	f := s.Faults
	return f != nil && (f.Delay.BaseTicks > 0 || f.Delay.JitterTicks > 0 || f.DupProb > 0)
}

// checkStaticFastPath asserts the tick engine's stationary fast path
// held for a whole static run: Begin ran on every tick, and no row was
// requeried after the initial build.
func checkStaticFastPath(t *testing.T, st space.IndexStats, ticks int) {
	t.Helper()
	if st.Ticks != int64(ticks) || st.RequeriedRows != 0 {
		t.Errorf("static run: want %d index ticks and 0 requeried rows after the initial build, got %+v", ticks, st)
	}
}

// TestStaticExtrasExerciseFastPaths pins the stationary fast path on
// each deterministic static scenario, with a tick count the matrix does
// not use.
func TestStaticExtrasExerciseFastPaths(t *testing.T) {
	const ticks = 100
	for _, s := range staticExtras(ticks) {
		s := s
		t.Run(s.Name, func(t *testing.T) {
			t.Parallel()
			obs, err := LockstepObserved(s)
			if err != nil {
				t.Fatal(err)
			}
			checkStaticFastPath(t, obs.Index, ticks)
		})
	}
}

// TestLockstepRejectsBadScenario pins the harness's own input checking.
func TestLockstepRejectsBadScenario(t *testing.T) {
	if err := Lockstep(Scenario{Name: "no-ticks", Cfg: netsim.Config{N: 2, Side: 4, Range: 1, Dt: 1}}); err == nil {
		t.Fatal("Lockstep accepted Ticks=0")
	}
	if err := Lockstep(Scenario{Name: "bad-cfg", Cfg: netsim.Config{N: 0}, Ticks: 1}); err == nil {
		t.Fatal("Lockstep accepted an invalid config")
	}
}
