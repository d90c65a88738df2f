package experiments

import (
	"fmt"

	"repro/internal/cluster"
	"repro/internal/geom"
	"repro/internal/simrand"
)

// ScenarioNames is the string-keyed part of a scenario, spelled the way
// cmd/manetsim's flags and the daemon's job specs spell it. It is the
// one mapping from those names to Options.
type ScenarioNames struct {
	Metric   string // "square" or "torus"
	Mobility string // "epoch-rwp", "bcv", "rwp" or "random-walk"
	Policy   string // "lid", "hcc" or "dmac"
}

var (
	metricNames = map[string]geom.MetricKind{
		"square": geom.MetricSquare,
		"torus":  geom.MetricTorus,
	}
	mobilityNames = map[string]MobilityKind{
		"epoch-rwp":   MobilityEpochRWP,
		"bcv":         MobilityBCV,
		"rwp":         MobilityRandomWaypoint,
		"random-walk": MobilityRandomWalk,
	}
	// policyNames builds each policy for n nodes; DMAC draws its
	// per-node weights from the seed.
	policyNames = map[string]func(n int, seed uint64) (cluster.Policy, error){
		"lid": func(int, uint64) (cluster.Policy, error) { return cluster.LID{}, nil },
		"hcc": func(int, uint64) (cluster.Policy, error) { return cluster.HCC{}, nil },
		"dmac": func(n int, seed uint64) (cluster.Policy, error) {
			p, err := cluster.NewDMAC(dmacWeights(n, seed))
			return p, err
		},
	}
)

// Validate reports the first unknown name, checking the metric, the
// mobility model and then the policy.
func (s ScenarioNames) Validate() error {
	if _, ok := metricNames[s.Metric]; !ok {
		return fmt.Errorf("unknown metric %q", s.Metric)
	}
	if _, ok := mobilityNames[s.Mobility]; !ok {
		return fmt.Errorf("unknown mobility model %q", s.Mobility)
	}
	if _, ok := policyNames[s.Policy]; !ok {
		return fmt.Errorf("unknown policy %q", s.Policy)
	}
	return nil
}

// Apply validates the names and sets opts' Metric, Mobility and Policy
// from them. n is the node count; DMAC weights are drawn from opts.Seed.
func (s ScenarioNames) Apply(opts *Options, n int) error {
	if err := s.Validate(); err != nil {
		return err
	}
	policy, err := policyNames[s.Policy](n, opts.Seed)
	if err != nil {
		return err
	}
	opts.Metric = metricNames[s.Metric]
	opts.Mobility = mobilityNames[s.Mobility]
	opts.Policy = policy
	return nil
}

// dmacWeights draws one random weight per node for DMAC experiments.
func dmacWeights(n int, seed uint64) []float64 {
	rng := simrand.New(seed).Split("dmac-weights").Rand()
	w := make([]float64, n)
	for i := range w {
		w[i] = rng.Float64()
	}
	return w
}
