package experiments

import (
	"reflect"
	"strings"
	"testing"

	"repro/internal/cluster"
	"repro/internal/geom"
)

func TestScenarioNamesApply(t *testing.T) {
	opts := DefaultOptions()
	opts.Seed = 7
	if err := (ScenarioNames{Metric: "torus", Mobility: "random-walk", Policy: "dmac"}).Apply(&opts, 50); err != nil {
		t.Fatal(err)
	}
	if opts.Metric != geom.MetricTorus || opts.Mobility != MobilityRandomWalk {
		t.Errorf("metric %v, mobility %v", opts.Metric, opts.Mobility)
	}
	// DMAC weights come from the seed's "dmac-weights" stream, the same
	// draw the clusterer ablation uses.
	want, err := cluster.NewDMAC(dmacWeights(50, 7))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(opts.Policy, want) {
		t.Error("DMAC weights differ from dmacWeights(n, seed)")
	}

	for _, tc := range []struct {
		names ScenarioNames
		err   string
	}{
		{ScenarioNames{"hex", "bcv", "lid"}, `unknown metric "hex"`},
		{ScenarioNames{"square", "gauss-markov", "lid"}, `unknown mobility model "gauss-markov"`},
		{ScenarioNames{"square", "rwp", "maxdeg"}, `unknown policy "maxdeg"`},
	} {
		err := tc.names.Validate()
		if err == nil || !strings.Contains(err.Error(), tc.err) {
			t.Errorf("Validate(%+v) = %v, want %q", tc.names, err, tc.err)
		}
		if err := tc.names.Apply(&opts, 50); err == nil {
			t.Errorf("Apply(%+v) accepted", tc.names)
		}
	}
}
