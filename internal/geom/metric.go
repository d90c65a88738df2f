package geom

import (
	"fmt"
	"math"
)

// MetricKind selects how distances are computed inside the square
// deployment region.
type MetricKind int

const (
	// MetricSquare measures plain Euclidean distance inside the square.
	// Nodes near opposite borders are far apart, so connectivity shows
	// the border effects captured by Miller's link-distance CDF
	// (Claim 1 of the paper).
	MetricSquare MetricKind = iota + 1
	// MetricTorus wraps distances around the borders, eliminating border
	// effects entirely. Link dynamics then match the unbounded-plane CV
	// model exactly; provided as an ablation of the paper's choice.
	MetricTorus
)

// String implements fmt.Stringer.
func (k MetricKind) String() string {
	switch k {
	case MetricSquare:
		return "square"
	case MetricTorus:
		return "torus"
	default:
		return fmt.Sprintf("MetricKind(%d)", int(k))
	}
}

// Metric computes distances between points in an axis-aligned square
// region [0,Side)×[0,Side). The zero value is not usable; construct with
// NewMetric.
type Metric struct {
	kind MetricKind
	side float64
}

// NewMetric returns a metric over a square of the given side length.
func NewMetric(kind MetricKind, side float64) (Metric, error) {
	if side <= 0 {
		return Metric{}, fmt.Errorf("geom: side must be positive, got %g", side)
	}
	switch kind {
	case MetricSquare, MetricTorus:
	default:
		return Metric{}, fmt.Errorf("geom: unknown metric kind %d", int(kind))
	}
	return Metric{kind: kind, side: side}, nil
}

// Kind reports the metric kind.
func (m Metric) Kind() MetricKind { return m.kind }

// Side reports the side length of the region.
func (m Metric) Side() float64 { return m.side }

// Dist2 returns the squared distance between p and q under the metric.
func (m Metric) Dist2(p, q Vec2) float64 {
	dx := p.X - q.X
	dy := p.Y - q.Y
	if m.kind == MetricTorus {
		dx = wrapDelta(dx, m.side)
		dy = wrapDelta(dy, m.side)
	}
	return dx*dx + dy*dy
}

// Dist returns the distance between p and q under the metric.
func (m Metric) Dist(p, q Vec2) float64 { return math.Sqrt(m.Dist2(p, q)) }

// Wrap maps a point back into [0,Side)×[0,Side) by wrapping coordinates
// around the borders, and reports whether any coordinate wrapped.
func (m Metric) Wrap(p Vec2) (Vec2, bool) {
	x, wx := wrapCoord(p.X, m.side)
	y, wy := wrapCoord(p.Y, m.side)
	return Vec2{x, y}, wx || wy
}

// Contains reports whether p lies inside [0,Side)×[0,Side).
func (m Metric) Contains(p Vec2) bool {
	return p.X >= 0 && p.X < m.side && p.Y >= 0 && p.Y < m.side
}

// wrapDelta maps a coordinate difference to the shortest wrapped
// equivalent in [-side/2, side/2].
func wrapDelta(d, side float64) float64 {
	d = math.Mod(d, side)
	switch {
	case d > side/2:
		d -= side
	case d < -side/2:
		d += side
	}
	return d
}

// wrapCoord maps x into [0, side), reporting whether wrapping occurred.
func wrapCoord(x, side float64) (float64, bool) {
	if x >= 0 && x < side {
		return x, false
	}
	x = math.Mod(x, side)
	if x < 0 {
		x += side
	}
	// math.Mod can return side itself through rounding; clamp.
	if x >= side {
		x = 0
	}
	return x, true
}
