// Package service is the robustness layer that turns the sweep engine
// into a long-lived, multi-tenant simulation daemon (cmd/manetsimd):
// strict job-spec admission, per-tenant token-bucket rate limiting with
// client-visible decorrelated-jitter retry hints, a bounded job queue
// with load shedding, per-job deadline watchdogs wired through the
// engine's cooperative stop seam, a fingerprint-keyed result cache
// under a byte budget, and crash-safe job recovery: every job-state
// transition and every completed sweep point is journaled through
// internal/checkpoint, so a daemon killed at any instant resumes its
// in-flight jobs on restart and produces artifacts byte-identical to an
// uninterrupted run.
package service

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"time"

	"repro/internal/checkpoint"
	"repro/internal/core"
	"repro/internal/experiments"
)

// Job kinds.
const (
	// KindMeasure measures one scenario (MeasureRates plus the paper's
	// analytic predictions) and yields a one-row CSV.
	KindMeasure = "measure"
	// KindFigure runs one of the sweep-shaped figure drivers (1, 2, 3,
	// 8, 9) and yields the figure's CSV.
	KindFigure = "figure"
)

// DefaultMaxSpecBytes bounds the size of an encoded job spec; larger
// request bodies are rejected before any decoding work.
const DefaultMaxSpecBytes = 16 << 10

// JobSpec is the HTTP job request. The decoder is strict: unknown
// fields, trailing data, out-of-range or non-finite parameters are all
// rejected before a request can reach admission control, so a malformed
// or hostile spec never costs simulation work.
//
// Fields that do not shape the result bytes (Tenant, DeadlineMS) are
// excluded from the scenario fingerprint, so two tenants asking for the
// same deterministic scenario share one cached result.
type JobSpec struct {
	// Kind is KindMeasure or KindFigure.
	Kind string `json:"kind"`
	// Tenant names the admission-control bucket this request draws
	// from. Empty maps to "anonymous".
	Tenant string `json:"tenant,omitempty"`
	// Seed roots all randomness of the job; 0 maps to the repository
	// default 42.
	Seed uint64 `json:"seed,omitempty"`
	// Events sizes the measurement window (target link events); 0 maps
	// to 4000 — deliberately smaller than the CLI default, since a
	// multi-tenant daemon should default to cheap jobs.
	Events float64 `json:"events,omitempty"`
	// DeadlineMS bounds the job's wall-clock runtime in milliseconds; 0
	// selects the daemon's default deadline. Values above the daemon's
	// maximum are clamped.
	DeadlineMS int64 `json:"deadline_ms,omitempty"`

	// Fig selects the figure driver for KindFigure: 1, 2, 3, 8 or 9.
	Fig int `json:"fig,omitempty"`

	// Scenario parameters, KindMeasure only. Zero N, R, Density map to
	// the CLI defaults (400, 1.5, 4); V is taken literally (0 = static).
	N        int     `json:"n,omitempty"`
	R        float64 `json:"r,omitempty"`
	V        float64 `json:"v,omitempty"`
	Density  float64 `json:"density,omitempty"`
	Policy   string  `json:"policy,omitempty"`
	Mobility string  `json:"mobility,omitempty"`
	Metric   string  `json:"metric,omitempty"`
}

// DecodeJobSpec reads, normalizes and validates one job spec from r,
// rejecting bodies over limit bytes. It never reads more than limit+1
// bytes. A returned nil error guarantees the spec is normalized and
// valid.
func DecodeJobSpec(r io.Reader, limit int64) (JobSpec, error) {
	if limit <= 0 {
		limit = DefaultMaxSpecBytes
	}
	lr := &io.LimitedReader{R: r, N: limit + 1}
	dec := json.NewDecoder(lr)
	dec.DisallowUnknownFields()
	var s JobSpec
	if err := dec.Decode(&s); err != nil {
		var maxErr *http.MaxBytesError
		if lr.N <= 0 || errors.As(err, &maxErr) {
			return JobSpec{}, fmt.Errorf("service: job spec exceeds %d bytes", limit)
		}
		return JobSpec{}, fmt.Errorf("service: decoding job spec: %w", err)
	}
	if lr.N <= 0 {
		return JobSpec{}, fmt.Errorf("service: job spec exceeds %d bytes", limit)
	}
	if _, err := dec.Token(); err != io.EOF {
		return JobSpec{}, fmt.Errorf("service: trailing data after job spec")
	}
	s = s.Normalized()
	if err := s.Validate(); err != nil {
		return JobSpec{}, err
	}
	return s, nil
}

// Normalized fills defaulted fields so that equivalent specs share one
// fingerprint (and therefore one cache entry).
func (s JobSpec) Normalized() JobSpec {
	if s.Tenant == "" {
		s.Tenant = "anonymous"
	}
	if s.Seed == 0 {
		s.Seed = 42
	}
	if s.Events == 0 {
		s.Events = 4000
	}
	if s.Kind == KindMeasure {
		if s.N == 0 {
			s.N = 400
		}
		if s.R == 0 {
			s.R = 1.5
		}
		if s.Density == 0 {
			s.Density = 4
		}
		if s.Policy == "" {
			s.Policy = "lid"
		}
		if s.Mobility == "" {
			s.Mobility = "epoch-rwp"
		}
		if s.Metric == "" {
			s.Metric = "square"
		}
	}
	return s
}

// Validate rejects malformed specs: unknown kinds, unsupported figure
// ids, non-finite or out-of-range parameters, and fields that do not
// belong to the requested kind. It expects a Normalized spec.
func (s JobSpec) Validate() error {
	if len(s.Tenant) > 64 {
		return fmt.Errorf("service: tenant name longer than 64 bytes")
	}
	for _, f := range []struct {
		name string
		v    float64
	}{{"events", s.Events}, {"r", s.R}, {"v", s.V}, {"density", s.Density}} {
		if math.IsNaN(f.v) || math.IsInf(f.v, 0) {
			return fmt.Errorf("service: %s must be finite, got %g", f.name, f.v)
		}
	}
	if s.Events < 1 || s.Events > 1e6 {
		return fmt.Errorf("service: events must be in [1, 1e6], got %g", s.Events)
	}
	if s.DeadlineMS < 0 || s.DeadlineMS > 24*60*60*1000 {
		return fmt.Errorf("service: deadline_ms must be in [0, 86400000], got %d", s.DeadlineMS)
	}
	switch s.Kind {
	case KindFigure:
		// FigurePlan's error names the servable figures.
		if _, err := experiments.FigurePlan(s.Fig); err != nil {
			return fmt.Errorf("service: %w", err)
		}
		// Figure drivers fix their own scenarios; scenario fields on a
		// figure job would silently not do what the client expects, so
		// they are rejected instead of ignored.
		if s.N != 0 || s.R != 0 || s.V != 0 || s.Density != 0 ||
			s.Policy != "" || s.Mobility != "" || s.Metric != "" {
			return fmt.Errorf("service: scenario fields (n, r, v, density, policy, mobility, metric) are not valid for kind %q", KindFigure)
		}
	case KindMeasure:
		if s.Fig != 0 {
			return fmt.Errorf("service: fig is not valid for kind %q", KindMeasure)
		}
		if s.N < 2 || s.N > 20000 {
			return fmt.Errorf("service: n must be in [2, 20000], got %d", s.N)
		}
		if s.R <= 0 || s.R > 1000 {
			return fmt.Errorf("service: r must be in (0, 1000], got %g", s.R)
		}
		if s.V < 0 || s.V > 1000 {
			return fmt.Errorf("service: v must be in [0, 1000], got %g", s.V)
		}
		if s.Density <= 0 || s.Density > 1000 {
			return fmt.Errorf("service: density must be in (0, 1000], got %g", s.Density)
		}
		if err := s.names().Validate(); err != nil {
			return fmt.Errorf("service: %w", err)
		}
	default:
		return fmt.Errorf("service: unknown job kind %q (want %q or %q)", s.Kind, KindMeasure, KindFigure)
	}
	return nil
}

// fingerprintSpec is the result-shaping subset of a JobSpec bound into
// fingerprints: Tenant and DeadlineMS are deliberately absent — they
// change who asked and how long we wait, never the bytes produced.
type fingerprintSpec struct {
	Tool     string
	Kind     string
	Fig      int
	N        int
	R        float64
	V        float64
	Density  float64
	Policy   string
	Mobility string
	Metric   string
	Seed     uint64
	Events   float64
}

// Fingerprint derives the spec's scenario fingerprint — the result
// cache key, and the binding of the job's per-sweep checkpoint journal.
// It expects a Normalized spec.
func (s JobSpec) Fingerprint() (string, error) {
	return checkpoint.Fingerprint(fingerprintSpec{
		Tool: "manetsimd/job/v1",
		Kind: s.Kind, Fig: s.Fig,
		N: s.N, R: s.R, V: s.V, Density: s.Density,
		Policy: s.Policy, Mobility: s.Mobility, Metric: s.Metric,
		Seed: s.Seed, Events: s.Events,
	})
}

// Plan returns the spec's sweep plan: which journal namespace its
// points live under and how many there are. This is the unit the
// distributed executor shards into leases. It expects a Normalized,
// valid spec.
func (s JobSpec) Plan() (experiments.SweepPlan, error) {
	switch s.Kind {
	case KindMeasure:
		return experiments.MeasurePlan(), nil
	case KindFigure:
		return experiments.FigurePlan(s.Fig)
	}
	return experiments.SweepPlan{}, fmt.Errorf("service: unknown job kind %q", s.Kind)
}

// options assembles the experiment options of one job run. The caller
// supplies orchestration state (context, journal, workers, point
// sharding); the spec supplies everything scenario-shaped.
func (s JobSpec) options(base experiments.Options) (experiments.Options, error) {
	opts := experiments.DefaultOptions()
	opts.Seed = s.Seed
	opts.TargetEvents = s.Events
	opts.Workers = base.Workers
	opts.Ctx = base.Ctx
	opts.Journal = base.Journal
	opts.PointFilter = base.PointFilter
	opts.OnRecord = base.OnRecord
	if s.Kind != KindMeasure {
		return opts, nil
	}
	err := s.names().Apply(&opts, s.N)
	return opts, err
}

// names is the spec's scenario names, KindMeasure only.
func (s JobSpec) names() experiments.ScenarioNames {
	return experiments.ScenarioNames{Metric: s.Metric, Mobility: s.Mobility, Policy: s.Policy}
}

// Run executes the job and returns its artifact bytes: a pure function
// of the normalized spec, which is what makes fingerprint caching and
// journal resume sound. On interruption mid-sweep the valid partial
// artifact (possibly empty) is returned alongside the error.
func (s JobSpec) Run(base experiments.Options) ([]byte, error) {
	opts, err := s.options(base)
	if err != nil {
		return nil, err
	}
	switch s.Kind {
	case KindMeasure:
		net := core.Network{N: s.N, R: s.R, V: s.V, Density: s.Density}
		return experiments.MeasureCSV(net, opts)
	case KindFigure:
		return experiments.FigureCSV(s.Fig, opts)
	default:
		return nil, fmt.Errorf("service: unknown job kind %q", s.Kind)
	}
}

// Deadline resolves the job's wall-clock budget against the daemon's
// default and ceiling.
func (s JobSpec) Deadline(def, max time.Duration) time.Duration {
	d := def
	if s.DeadlineMS > 0 {
		d = time.Duration(s.DeadlineMS) * time.Millisecond
	}
	if max > 0 && d > max {
		d = max
	}
	return d
}
