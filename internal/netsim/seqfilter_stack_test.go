package netsim_test

import (
	"testing"

	"repro/internal/cluster"
	"repro/internal/faults"
	"repro/internal/mobility"
	"repro/internal/netsim"
	"repro/internal/routing"
)

// TestSeqTablesOnlyUnderReorderingMedia runs the hardened protocol stack
// (HELLO, handshake maintenance, soft-state IntraDV) for 300 ticks at
// N=100 and checks the sequence filter's tables exist only once the
// medium has delayed or duplicated a sequenced frame: the ideal medium
// and loss plus churn, which never reorder, must leave them unallocated
// and withhold nothing, while duplication must create them and withhold
// the copies.
func TestSeqTablesOnlyUnderReorderingMedia(t *testing.T) {
	cases := []struct {
		name       string
		faults     *faults.Config
		wantTables bool
	}{
		{name: "ideal"},
		{name: "loss+churn", faults: &faults.Config{
			Loss: 0.2, Churn: faults.Churn{MeanUpTicks: 600, MeanDownTicks: 60},
		}},
		{name: "dup", faults: &faults.Config{DupProb: 0.05}, wantTables: true},
	}
	for _, c := range cases {
		c := c
		t.Run(c.name, func(t *testing.T) {
			t.Parallel()
			cfg := netsim.Config{
				N: 100, Side: 8, Range: 1.5, Dt: 1, Seed: 7,
				Model: mobility.EpochRWP{Speed: 0.05, Epoch: 50},
			}
			if c.faults != nil {
				inj, err := faults.New(*c.faults)
				if err != nil {
					t.Fatal(err)
				}
				cfg.Medium = inj
			}
			sim, err := netsim.New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			maint, err := cluster.NewMaintainer(cluster.LID{}, 128)
			if err != nil {
				t.Fatal(err)
			}
			if err := maint.EnableHandshake(2); err != nil {
				t.Fatal(err)
			}
			hello, err := routing.NewHello(64)
			if err != nil {
				t.Fatal(err)
			}
			dv, err := routing.NewIntraDV(maint, 32)
			if err != nil {
				t.Fatal(err)
			}
			if err := dv.EnableSoftState(8, 32); err != nil {
				t.Fatal(err)
			}
			if err := sim.Register(hello, maint, dv); err != nil {
				t.Fatal(err)
			}
			for i := 0; i < 300; i++ {
				if err := sim.Step(); err != nil {
					t.Fatal(err)
				}
			}
			tl := sim.Tallies()
			for _, k := range []netsim.MsgKind{netsim.MsgHello, netsim.MsgCluster, netsim.MsgRoute} {
				if tl.Of(k).Msgs == 0 {
					t.Fatalf("no %v traffic: the run exercised no sequenced class", k)
				}
			}
			if c.faults != nil && c.faults.Loss > 0 && (tl.Dropped == 0 || tl.Suppressed == 0) {
				t.Fatalf("loss and churn did not fire: dropped %v, suppressed %v", tl.Dropped, tl.Suppressed)
			}
			if got := netsim.SeqTablesAllocated(sim); got != c.wantTables {
				t.Errorf("sequence tables allocated = %v, want %v", got, c.wantTables)
			}
			if withheld := tl.Stale > 0; withheld != c.wantTables {
				t.Errorf("%v stale frames withheld; want some only under duplication", tl.Stale)
			}
		})
	}
}
