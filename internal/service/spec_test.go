package service

import (
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/experiments"
	"repro/internal/geom"
)

func TestDecodeJobSpecValid(t *testing.T) {
	cases := []struct {
		name string
		body string
		want func(t *testing.T, s JobSpec)
	}{
		{
			name: "measure with defaults filled",
			body: `{"kind":"measure"}`,
			want: func(t *testing.T, s JobSpec) {
				if s.Tenant != "anonymous" || s.Seed != 42 || s.N != 400 || s.R != 1.5 ||
					s.Density != 4 || s.Policy != "lid" || s.Mobility != "epoch-rwp" || s.Metric != "square" {
					t.Fatalf("defaults not applied: %+v", s)
				}
			},
		},
		{
			name: "figure",
			body: `{"kind":"figure","fig":8,"tenant":"team-a","deadline_ms":60000}`,
			want: func(t *testing.T, s JobSpec) {
				if s.Fig != 8 || s.Tenant != "team-a" || s.DeadlineMS != 60000 {
					t.Fatalf("fields lost: %+v", s)
				}
			},
		},
		{
			name: "measure with explicit scenario",
			body: `{"kind":"measure","n":100,"r":2.5,"v":0.1,"density":6,"policy":"hcc","mobility":"bcv","metric":"torus","seed":7,"events":500}`,
			want: func(t *testing.T, s JobSpec) {
				if s.N != 100 || s.Policy != "hcc" || s.Metric != "torus" || s.Events != 500 {
					t.Fatalf("fields lost: %+v", s)
				}
			},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s, err := DecodeJobSpec(strings.NewReader(tc.body), 0)
			if err != nil {
				t.Fatalf("DecodeJobSpec: %v", err)
			}
			tc.want(t, s)
		})
	}
}

func TestDecodeJobSpecRejects(t *testing.T) {
	cases := []struct {
		name string
		body string
	}{
		{"empty body", ``},
		{"malformed JSON", `{"kind":"measure"`},
		{"unknown field", `{"kind":"measure","bogus":1}`},
		{"trailing data", `{"kind":"measure"} {"kind":"measure"}`},
		{"unknown kind", `{"kind":"sweep"}`},
		{"missing kind", `{}`},
		{"infinite events", `{"kind":"measure","events":1e999}`},
		{"huge events", `{"kind":"measure","events":1e7}`},
		{"negative events", `{"kind":"measure","events":-1}`},
		{"negative deadline", `{"kind":"measure","deadline_ms":-5}`},
		{"unsupported figure", `{"kind":"figure","fig":4}`},
		{"figure with scenario fields", `{"kind":"figure","fig":1,"n":100}`},
		{"measure with fig", `{"kind":"measure","fig":1}`},
		{"tiny n", `{"kind":"measure","n":1}`},
		{"huge n", `{"kind":"measure","n":100000}`},
		{"negative r", `{"kind":"measure","r":-1}`},
		{"negative speed", `{"kind":"measure","v":-0.5}`},
		{"unknown policy", `{"kind":"measure","policy":"maxdeg"}`},
		{"unknown mobility", `{"kind":"measure","mobility":"gauss-markov"}`},
		{"unknown metric", `{"kind":"measure","metric":"hex"}`},
		{"long tenant", `{"kind":"measure","tenant":"` + strings.Repeat("x", 65) + `"}`},
		{"not an object", `"measure"`},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := DecodeJobSpec(strings.NewReader(tc.body), 0); err == nil {
				t.Fatalf("DecodeJobSpec accepted %q", tc.body)
			}
		})
	}
}

func TestDecodeJobSpecOversized(t *testing.T) {
	// A spec that is pure padding past the limit must be rejected by
	// size, not parsed.
	body := `{"kind":"measure","tenant":"` + strings.Repeat("a", 200) + `"}`
	if _, err := DecodeJobSpec(strings.NewReader(body), 64); err == nil {
		t.Fatal("oversized spec accepted")
	} else if !strings.Contains(err.Error(), "exceeds") {
		t.Fatalf("oversize rejected for the wrong reason: %v", err)
	}
}

func TestFingerprintIgnoresTenantAndDeadline(t *testing.T) {
	a, err := DecodeJobSpec(strings.NewReader(`{"kind":"measure","tenant":"alice","deadline_ms":1000}`), 0)
	if err != nil {
		t.Fatal(err)
	}
	b, err := DecodeJobSpec(strings.NewReader(`{"kind":"measure","tenant":"bob"}`), 0)
	if err != nil {
		t.Fatal(err)
	}
	fa, err := a.Fingerprint()
	if err != nil {
		t.Fatal(err)
	}
	fb, err := b.Fingerprint()
	if err != nil {
		t.Fatal(err)
	}
	if fa != fb {
		t.Fatalf("tenant/deadline leaked into fingerprint: %s vs %s", fa, fb)
	}

	c, err := DecodeJobSpec(strings.NewReader(`{"kind":"measure","seed":7}`), 0)
	if err != nil {
		t.Fatal(err)
	}
	fc, err := c.Fingerprint()
	if err != nil {
		t.Fatal(err)
	}
	if fc == fa {
		t.Fatal("different seeds share a fingerprint")
	}
}

// TestFingerprintGolden pins JobSpec.Fingerprint for one canonical
// measure spec and one figure spec. Result caches, job-log entries and
// resume journals are keyed by these strings, so state written by
// earlier builds must keep matching.
func TestFingerprintGolden(t *testing.T) {
	for _, c := range []struct{ body, want string }{
		{`{"kind":"measure","n":400,"r":1.5,"v":0.05,"density":4,"policy":"lid","mobility":"epoch-rwp","metric":"square","seed":42,"events":4000}`, "87a8ca804dd056ff"},
		{`{"kind":"figure","fig":1,"seed":42,"events":4000}`, "b8f2463d16db170a"},
	} {
		s, err := DecodeJobSpec(strings.NewReader(c.body), 0)
		if err != nil {
			t.Fatal(err)
		}
		fp, err := s.Fingerprint()
		if err != nil {
			t.Fatal(err)
		}
		if fp != c.want {
			t.Errorf("%s: fingerprint = %s, want %s", c.body, fp, c.want)
		}
	}
}

func TestSpecDeadlineClamping(t *testing.T) {
	def, max := 10*time.Second, 60*time.Second
	if d := (JobSpec{}).Deadline(def, max); d != def {
		t.Fatalf("unset deadline: got %v, want %v", d, def)
	}
	if d := (JobSpec{DeadlineMS: 5000}).Deadline(def, max); d != 5*time.Second {
		t.Fatalf("explicit deadline: got %v", d)
	}
	if d := (JobSpec{DeadlineMS: 3600000}).Deadline(def, max); d != max {
		t.Fatalf("deadline not clamped: got %v", d)
	}
}

// TestSpecOptionsApplyScenarioNames checks that a measure job runs the
// scenario its names select, with DMAC weights drawn from the job seed.
func TestSpecOptionsApplyScenarioNames(t *testing.T) {
	s := JobSpec{Kind: KindMeasure, N: 30, Seed: 9, Policy: "dmac", Mobility: "random-walk", Metric: "torus"}.Normalized()
	got, err := s.options(experiments.Options{})
	if err != nil {
		t.Fatal(err)
	}
	want := experiments.DefaultOptions()
	want.Seed = 9
	if err := (experiments.ScenarioNames{Metric: "torus", Mobility: "random-walk", Policy: "dmac"}).Apply(&want, 30); err != nil {
		t.Fatal(err)
	}
	if got.Metric != geom.MetricTorus || got.Mobility != experiments.MobilityRandomWalk ||
		!reflect.DeepEqual(got.Policy, want.Policy) {
		t.Errorf("options = metric %v, mobility %v, policy %+v; want %v, %v, %+v",
			got.Metric, got.Mobility, got.Policy, want.Metric, want.Mobility, want.Policy)
	}
}
