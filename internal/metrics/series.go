package metrics

import (
	"fmt"
	"math"
	"sort"
	"strings"
)

// Series is a named sequence of (X, Y) points, e.g. one curve of a figure.
type Series struct {
	Name   string
	Points []Point
}

// Point is one (X, Y) sample of a series.
type Point struct {
	X, Y float64
}

// Add appends a point to the series.
func (s *Series) Add(x, y float64) {
	s.Points = append(s.Points, Point{X: x, Y: y})
}

// Ys returns the Y values in order.
func (s *Series) Ys() []float64 {
	ys := make([]float64, len(s.Points))
	for i, p := range s.Points {
		ys[i] = p.Y
	}
	return ys
}

// Figure is a set of series sharing an X axis — the in-memory form of one
// paper figure.
type Figure struct {
	Title  string
	XLabel string
	YLabel string
	Series []*Series
}

// AddSeries appends a series and returns a pointer for incremental
// population.
func (f *Figure) AddSeries(name string) *Series {
	s := &Series{Name: name}
	f.Series = append(f.Series, s)
	return s
}

// Lookup returns the series with the given name, or nil.
func (f *Figure) Lookup(name string) *Series {
	for _, s := range f.Series {
		if s.Name == name {
			return s
		}
	}
	return nil
}

// MeanRelGap returns the mean |simulation/analysis − 1| across the
// figure's "<quantity> analysis" / "<quantity> simulation" series pairs,
// and the number of point pairs averaged. Points whose analysis value is
// not positive are skipped. It is the repository's reproduction
// scoreboard metric: the figure benchmarks (`go test -bench`) report it.
func (f *Figure) MeanRelGap() (gap float64, pairs int) {
	for _, ana := range f.Series {
		const suffix = " analysis"
		if !strings.HasSuffix(ana.Name, suffix) {
			continue
		}
		sim := f.Lookup(strings.TrimSuffix(ana.Name, suffix) + " simulation")
		if sim == nil {
			continue
		}
		for i := range ana.Points {
			if ana.Points[i].Y > 0 {
				gap += math.Abs(sim.Points[i].Y/ana.Points[i].Y - 1)
				pairs++
			}
		}
	}
	if pairs > 0 {
		gap /= float64(pairs)
	}
	return gap, pairs
}

// CSV renders the figure as a comma-separated table: one row per distinct
// X value (in ascending order), one column per series. Missing points
// render as empty cells.
func (f *Figure) CSV() string {
	xsSet := map[float64]bool{}
	for _, s := range f.Series {
		for _, p := range s.Points {
			xsSet[p.X] = true
		}
	}
	xs := make([]float64, 0, len(xsSet))
	for x := range xsSet {
		xs = append(xs, x)
	}
	sort.Float64s(xs)

	var b strings.Builder
	b.WriteString(csvEscape(f.XLabel))
	for _, s := range f.Series {
		b.WriteByte(',')
		b.WriteString(csvEscape(s.Name))
	}
	b.WriteByte('\n')
	for _, x := range xs {
		fmt.Fprintf(&b, "%g", x)
		for _, s := range f.Series {
			b.WriteByte(',')
			if y, ok := lookupY(s, x); ok {
				fmt.Fprintf(&b, "%g", y)
			}
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// Table renders the figure as an aligned ASCII table for terminal output.
func (f *Figure) Table() string {
	header := append([]string{f.XLabel}, seriesNames(f.Series)...)
	xsSet := map[float64]bool{}
	for _, s := range f.Series {
		for _, p := range s.Points {
			xsSet[p.X] = true
		}
	}
	xs := make([]float64, 0, len(xsSet))
	for x := range xsSet {
		xs = append(xs, x)
	}
	sort.Float64s(xs)

	rows := make([][]string, 0, len(xs))
	for _, x := range xs {
		row := []string{fmt.Sprintf("%.4g", x)}
		for _, s := range f.Series {
			if y, ok := lookupY(s, x); ok {
				row = append(row, fmt.Sprintf("%.4g", y))
			} else {
				row = append(row, "-")
			}
		}
		rows = append(rows, row)
	}
	title := f.Title
	if title != "" {
		title += "\n"
	}
	return title + RenderTable(header, rows)
}

func seriesNames(ss []*Series) []string {
	names := make([]string, len(ss))
	for i, s := range ss {
		names[i] = s.Name
	}
	return names
}

func lookupY(s *Series, x float64) (float64, bool) {
	for _, p := range s.Points {
		if p.X == x {
			return p.Y, true
		}
	}
	return 0, false
}

// RenderTable aligns a header and rows into a fixed-width ASCII table.
func RenderTable(header []string, rows [][]string) string {
	widths := make([]int, len(header))
	for i, h := range header {
		widths[i] = len(h)
	}
	for _, row := range rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	var b strings.Builder
	writeRow := func(cells []string) {
		for i, cell := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], cell)
		}
		b.WriteByte('\n')
	}
	writeRow(header)
	for i, w := range widths {
		if i > 0 {
			b.WriteString("  ")
		}
		b.WriteString(strings.Repeat("-", w))
	}
	b.WriteByte('\n')
	for _, row := range rows {
		writeRow(row)
	}
	return b.String()
}

// csvEscape quotes a CSV cell when needed.
func csvEscape(s string) string {
	if strings.ContainsAny(s, ",\"\n") {
		return `"` + strings.ReplaceAll(s, `"`, `""`) + `"`
	}
	return s
}
