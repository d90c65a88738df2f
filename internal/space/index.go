// Package space provides an incrementally maintained uniform-grid
// spatial index over node positions in a square region. Neighbor queries
// within a fixed radius touch only the cells around a point, making
// whole-network topology maintenance O(N·d) per tick instead of O(N²),
// and rows no node's motion can have changed are not recomputed at all.
package space

import (
	"fmt"
	"math"

	"repro/internal/geom"
)

// PairFilter gates candidate pairs during a filtered row query. The
// engine uses it to apply radio-medium state (dead nodes, cut links)
// without the index importing the simulator.
type PairFilter interface {
	// Allow reports whether the pair (i, j) may be linked. It is always
	// called with the query row i first.
	Allow(i, j int32) bool
}

// IndexStats counts the work the incremental index performed.
type IndexStats struct {
	// Ticks is the number of Begin calls since construction.
	Ticks int64
	// RequeriedRows is the total number of rows flagged for
	// recomputation across all ticks (including the initial full build).
	RequeriedRows int64
	// Teleports is the number of teleport steps (border wraps under the
	// square metric) that triggered neighborhood marking.
	Teleports int64
}

// Index is an incrementally maintained spatial index over a population of
// moving positions. Rather than rebuilding a cell grid from scratch
// every tick, Index keeps its cell buckets current by moving only the
// nodes whose cell changed, and tells the caller which neighbor rows
// actually need recomputation ("requery") each tick. A row can be skipped soundly
// while the total displacement budget since its last recomputation stays
// below the row's cached distance margin to the nearest link flip.
//
// The contract: after Begin, the adjacency row of every node i with
// Requery(i) == false is guaranteed identical to the row a full rescan
// would produce, so the caller may reuse its previous row verbatim. Rows
// are gathered with Row/RowFiltered, which return candidates sorted
// ascending — the canonical CSR representation, making the incremental
// path bit-compatible with a from-scratch rebuild.
//
// Index is not safe for concurrent use.
type Index struct {
	metric    geom.Metric
	radius    float64
	r2        float64
	cells     int
	cellSize  float64
	span      int     // cells scanned on each side of a query cell
	wholeAxis bool    // scan window covers the whole grid
	marginCap float64 // span·cellSize − radius: distance bound to unscanned nodes
	theta     float64 // step length above which a move counts as a teleport
	invDenom  float64 // 1/(2·radius + marginCap): sqrt-free margin lower bound
	cullR2    float64 // (radius + marginCap)²: cell rectangles farther away are skipped

	pos    []geom.Vec2 // caller's live position slice
	last   []geom.Vec2 // positions at the previous Begin
	cellOf []int32     // current cell per node
	slot   []int32     // position of node i inside bucket[cellOf[i]]
	bucket [][]int32   // per-cell member lists (order deterministic, not sorted)
	// bpos mirrors bucket with each member's position, refreshed every
	// Begin: window scans then read candidate positions sequentially
	// from the cell instead of gathering them from pos[j] all over the
	// flat array — one streamed write per node per tick buys ~degree
	// random reads per requeried row.
	bpos [][]geom.Vec2

	// Per-row requery bookkeeping: row i was last recomputed when the
	// node's cumulative path length was baseA[i] and the global drift
	// budget was baseG[i]; it must be recomputed once
	// (stepSum[i]−baseA[i]) + (gSum−baseG[i]) reaches margin[i].
	stepSum []float64
	baseA   []float64
	baseG   []float64
	margin  []float64
	gSum    float64

	requery []bool
	telep   []int32 // scratch: this tick's teleporters
	teleOld []int32 // scratch: their pre-move cells

	stats IndexStats
}

// indexBeta is the slack factor applied to the query radius when sizing
// the scan window: the window reaches radius·(1+indexBeta) so the margin
// cap stays strictly positive and stationary nodes are never forced to
// requery just because an unscanned node sits exactly one window away.
const indexBeta = 0.15

// indexSpan is the cell count the slackened radius is split into per
// axis: finer cells hug the query disc tighter, so a gather visits
// ~π(r+cap)² worth of candidates instead of the 9 r² of a radius-sized
// 3×3 block.
const indexSpan = 2

// NewIndex builds an incremental index over pos, tuned for neighbor
// queries of the given radius. The slice is retained and read on every
// Begin; the caller mutates positions in place between ticks. All rows
// start flagged for requery so the first gather performs the full build.
func NewIndex(metric geom.Metric, radius float64, pos []geom.Vec2) (*Index, error) {
	if radius <= 0 {
		return nil, fmt.Errorf("space: radius must be positive, got %g", radius)
	}
	side := metric.Side()
	cells := int(math.Floor(side * indexSpan / (radius * (1 + indexBeta))))
	if cells < 1 {
		cells = 1
	}
	const maxCellsPerAxis = 1024
	if cells > maxCellsPerAxis {
		cells = maxCellsPerAxis
	}
	n := len(pos)
	x := &Index{
		metric:   metric,
		radius:   radius,
		r2:       radius * radius,
		cells:    cells,
		cellSize: side / float64(cells),
		pos:      pos,
		last:     make([]geom.Vec2, n),
		cellOf:   make([]int32, n),
		slot:     make([]int32, n),
		bucket:   make([][]int32, cells*cells),
		bpos:     make([][]geom.Vec2, cells*cells),
		stepSum:  make([]float64, n),
		baseA:    make([]float64, n),
		baseG:    make([]float64, n),
		margin:   make([]float64, n),
		requery:  make([]bool, n),
	}
	x.span = int(math.Ceil(x.radius / x.cellSize))
	x.wholeAxis = 2*x.span+1 >= x.cells
	x.marginCap = float64(x.span)*x.cellSize - x.radius
	x.theta = x.cellSize / 2
	x.invDenom = 1 / (2*x.radius + x.marginCap)
	reach := x.radius + x.marginCap
	x.cullR2 = reach * reach
	copy(x.last, pos)
	// Pre-size every bucket with headroom over its initial occupancy and
	// at least four times the mean occupancy: cell-crossers otherwise
	// keep tripping append growth in moveBucket for thousands of ticks
	// while per-cell maxima creep toward the occupancy distribution's
	// tail (at N=10k, thousands of cells of mean occupancy ~3 grew about
	// once every two ticks), and the steady-state tick loop is supposed
	// to be allocation-free.
	counts := make([]int32, cells*cells)
	for i := range pos {
		counts[x.cellIndex(pos[i])]++
	}
	floor := 4*n/len(counts) + 4
	for c, cnt := range counts {
		capc := max(int(cnt)+int(cnt)/2+4, floor)
		x.bucket[c] = make([]int32, 0, capc)
		x.bpos[c] = make([]geom.Vec2, 0, capc)
	}
	for i := range pos {
		c := int32(x.cellIndex(pos[i]))
		x.cellOf[i] = c
		x.slot[i] = int32(len(x.bucket[c]))
		x.bucket[c] = append(x.bucket[c], int32(i))
		x.bpos[c] = append(x.bpos[c], pos[i])
		x.requery[i] = true
	}
	x.stats.RequeriedRows += int64(n)
	return x, nil
}

// Stats returns the accumulated work counters.
func (x *Index) Stats() IndexStats { return x.stats }

// cellIndex maps a position to its cell, clamping strays at the border.
func (x *Index) cellIndex(p geom.Vec2) int {
	cx := int(p.X / x.cellSize)
	cy := int(p.Y / x.cellSize)
	if cx < 0 {
		cx = 0
	} else if cx >= x.cells {
		cx = x.cells - 1
	}
	if cy < 0 {
		cy = 0
	} else if cy >= x.cells {
		cy = x.cells - 1
	}
	return cy*x.cells + cx
}

// moveBucket relocates node i from cell oldC to newC with a swap-remove,
// keeping every bucket's order a deterministic function of the move
// history.
func (x *Index) moveBucket(i, oldC, newC int32) {
	b := x.bucket[oldC]
	s := x.slot[i]
	lastIdx := int32(len(b) - 1)
	moved := b[lastIdx]
	b[s] = moved
	x.slot[moved] = s
	x.bucket[oldC] = b[:lastIdx]
	bp := x.bpos[oldC]
	bp[s] = bp[lastIdx]
	x.bpos[oldC] = bp[:lastIdx]

	x.slot[i] = int32(len(x.bucket[newC]))
	x.bucket[newC] = append(x.bucket[newC], i)
	x.bpos[newC] = append(x.bpos[newC], x.pos[i])
	x.cellOf[i] = newC
}

// Begin advances the index one tick: it measures every node's step,
// patches cell membership for boundary crossers, and decides which rows
// need recomputation. With forceAll (radio-medium pathologies can flip
// links without any motion) every row is flagged. Returns the number of
// flagged rows; zero means the adjacency provably did not change.
func (x *Index) Begin(forceAll bool) int {
	n := len(x.pos)
	x.stats.Ticks++
	x.telep = x.telep[:0]
	x.teleOld = x.teleOld[:0]
	maxStep := 0.0
	for i := 0; i < n; i++ {
		d := x.metric.Dist(x.last[i], x.pos[i])
		x.stepSum[i] += d
		oldC := x.cellOf[i]
		newC := int32(x.cellIndex(x.pos[i]))
		if newC != oldC {
			x.moveBucket(int32(i), oldC, newC)
		}
		if d > x.theta {
			// A teleport (e.g. a border wrap under the square metric):
			// excluded from the shared drift budget, handled by marking
			// both neighborhoods below.
			x.telep = append(x.telep, int32(i))
			x.teleOld = append(x.teleOld, oldC)
		} else if d > maxStep {
			maxStep = d
		}
		x.last[i] = x.pos[i]
		x.bpos[x.cellOf[i]][x.slot[i]] = x.pos[i]
	}
	x.gSum += maxStep
	x.stats.Teleports += int64(len(x.telep))

	dirty := 0
	if forceAll || len(x.telep) > n/16 {
		for i := range x.requery {
			x.requery[i] = true
		}
		dirty = n
	} else {
		for i := 0; i < n; i++ {
			x.requery[i] = x.stepSum[i]-x.baseA[i]+x.gSum-x.baseG[i] >= x.margin[i]
		}
		for k, j := range x.telep {
			x.requery[j] = true
			x.markAround(x.teleOld[k])
			x.markAround(x.cellOf[j])
		}
		for i := range x.requery {
			if x.requery[i] {
				dirty++
			}
		}
	}
	x.stats.RequeriedRows += int64(dirty)
	return dirty
}

// markAround flags every node within span+1 cells of cell c for requery.
// Unmarked nodes are then at least (span+1)·cellSize away from any
// position inside c, which dominates every margin the index hands out,
// so skipping them remains sound even across a teleport.
func (x *Index) markAround(c int32) {
	reach := x.span + 1
	cx := int(c) % x.cells
	cy := int(c) / x.cells
	wrap := x.metric.Kind() == geom.MetricTorus
	for dy := -reach; dy <= reach; dy++ {
		y := cy + dy
		if wrap {
			y = ((y % x.cells) + x.cells) % x.cells
		} else if y < 0 || y >= x.cells {
			continue
		}
		for dx := -reach; dx <= reach; dx++ {
			cxx := cx + dx
			if wrap {
				cxx = ((cxx % x.cells) + x.cells) % x.cells
			} else if cxx < 0 || cxx >= x.cells {
				continue
			}
			for _, j := range x.bucket[y*x.cells+cxx] {
				x.requery[j] = true
			}
		}
	}
}

// Requery reports whether row i was flagged by the last Begin.
func (x *Index) Requery(i int) bool { return x.requery[i] }

// Row appends the indices of all nodes within the query radius of node i
// (excluding i), sorted ascending, and returns the extended slice. It
// also refreshes row i's requery margin: a lower bound on the distance
// any node would have to drift to flip its link state with i, capped by
// the distance bound to uncovered cells. The per-candidate bound is
// |d²−r²|/(2r+cap) ≤ |d−r|, which avoids a sqrt per candidate; for
// candidates beyond the scan reach the quotient exceeds the cap, so the
// overestimate is absorbed by the cap.
func (x *Index) Row(i int, out []int32) []int32 {
	start := len(out)
	p := x.pos[i]
	if x.wholeAxis {
		// Everything is scanned, so there is no cap to absorb the
		// quotient's overestimate for far candidates; use exact margins.
		m := math.Inf(1)
		scan := func(j int32) {
			if int(j) == i {
				return
			}
			d2 := x.metric.Dist2(p, x.pos[j])
			if ad := math.Abs(math.Sqrt(d2) - x.radius); ad < m {
				m = ad
			}
			if d2 <= x.r2 {
				out = append(out, j)
			}
		}
		x.scanAll(scan)
		x.margin[i] = m
		x.baseA[i] = x.stepSum[i]
		x.baseG[i] = x.gSum
		insertionSort(out[start:])
		return out
	}
	// Hot path: the window scan is inlined with the raw |d²−r²| margin
	// minimum tracked un-normalized (one multiply at the end instead of
	// one per candidate). The self candidate contributes |0−r²|, which
	// normalizes to a value above the cap, so it never lowers the margin
	// and needs no branch; it is excluded from the row by the j != i
	// check inside the much rarer in-range case.
	mRaw := math.Inf(1)
	r2 := x.r2
	var wbuf [maxWindowCells]winCell
	win := x.windowCells(p, wbuf[:0])
	for _, c := range win {
		b := x.bucket[c.first]
		bp := x.bpos[c.first][:len(b)]
		for k, j := range b {
			q := bp[k]
			dx := p.X - q.X + c.ox
			dy := p.Y - q.Y + c.oy
			d2 := dx*dx + dy*dy
			lb := d2 - r2
			if lb < 0 {
				lb = -lb
			}
			if lb < mRaw {
				mRaw = lb
			}
			if d2 <= r2 && int(j) != i {
				out = append(out, j)
			}
		}
	}
	m := mRaw * x.invDenom
	if x.marginCap < m {
		m = x.marginCap
	}
	x.margin[i] = m
	x.baseA[i] = x.stepSum[i]
	x.baseG[i] = x.gSum
	insertionSort(out[start:])
	return out
}

// RowFiltered is Row with a pair filter applied (radio-medium state) and
// no margin refresh: when a medium is active every tick requeries every
// row, so margins are never consulted. The filter runs only on
// candidates already inside the radius — the cheap distance test
// rejects the bulk of the window first.
func (x *Index) RowFiltered(i int, out []int32, f PairFilter) []int32 {
	start := len(out)
	p := x.pos[i]
	if x.wholeAxis {
		scan := func(j int32) {
			if int(j) == i {
				return
			}
			if x.metric.Dist2(p, x.pos[j]) <= x.r2 && f.Allow(int32(i), j) {
				out = append(out, j)
			}
		}
		x.scanAll(scan)
		insertionSort(out[start:])
		return out
	}
	r2 := x.r2
	var wbuf [maxWindowCells]winCell
	win := x.windowCells(p, wbuf[:0])
	for _, c := range win {
		b := x.bucket[c.first]
		bp := x.bpos[c.first][:len(b)]
		for k, j := range b {
			q := bp[k]
			dx := p.X - q.X + c.ox
			dy := p.Y - q.Y + c.oy
			if dx*dx+dy*dy <= r2 && int(j) != i && f.Allow(int32(i), j) {
				out = append(out, j)
			}
		}
	}
	insertionSort(out[start:])
	return out
}

// maxWindowCells bounds the scan window: span ≤ 2 by construction
// (cellSize ≥ radius·(1+indexBeta)/indexSpan, so ceil(radius/cellSize)
// ≤ indexSpan), giving at most (2·span+1)² = 25 cells. The callers'
// stack buffers use this; windowCells itself appends, so even a
// miscounted bound would only cost a heap spill, never correctness.
const maxWindowCells = (2*indexSpan + 1) * (2*indexSpan + 1)

// winCell is one non-culled cell of a query window: the bucket index
// plus the wrap correction applied to candidate deltas.
type winCell struct {
	first  int32
	ox, oy float64
}

// windowCells appends every non-culled cell of the scan window around p
// to buf, each carrying the wrap correction (ox, oy) ∈ {−side, 0,
// +side}² for that cell's image: candidate deltas are then
// dx = p.X − q.X + ox with no per-candidate min-image branch or metric
// dispatch.
//
// Bit-exactness with Metric.Dist2: inside a non-wholeAxis window
// (cells ≥ 2·span+2) a wrapped cell's nodes satisfy
// |p−q| ∈ [side/2, side), which is exactly the regime where wrapDelta
// applies the same ±side correction — and that addition is exact by
// Sterbenz's lemma, so both paths round identically. At the
// |p−q| = side/2 boundary the two candidate images square to the same
// value, so the computed d² always equals Dist2, for both metrics.
func (x *Index) windowCells(p geom.Vec2, buf []winCell) []winCell {
	cs := x.cellSize
	side := x.metric.Side()
	cx := int(p.X / cs)
	cy := int(p.Y / cs)
	if cx >= x.cells {
		cx = x.cells - 1
	}
	if cy >= x.cells {
		cy = x.cells - 1
	}
	wrap := x.metric.Kind() == geom.MetricTorus
	for dy := -x.span; dy <= x.span; dy++ {
		y := cy + dy
		// Rectangle distance along Y in unwrapped coordinates; valid on
		// the torus too because the window spans less than half the
		// region (non-wholeAxis), so no wrapped image is closer.
		dym := 0.0
		if lo := float64(y) * cs; p.Y < lo {
			dym = lo - p.Y
		} else if hi := float64(y+1) * cs; p.Y > hi {
			dym = p.Y - hi
		}
		oy := 0.0
		if y < 0 {
			if !wrap {
				continue
			}
			y += x.cells
			oy = side // q sits on the high side; p−q corrects upward
		} else if y >= x.cells {
			if !wrap {
				continue
			}
			y -= x.cells
			oy = -side
		}
		rowBase := int32(y * x.cells)
		dym2 := dym * dym
		for dx := -x.span; dx <= x.span; dx++ {
			cxx := cx + dx
			dxm := 0.0
			if lo := float64(cxx) * cs; p.X < lo {
				dxm = lo - p.X
			} else if hi := float64(cxx+1) * cs; p.X > hi {
				dxm = p.X - hi
			}
			if dxm*dxm+dym2 > x.cullR2 {
				continue
			}
			ox := 0.0
			if cxx < 0 {
				if !wrap {
					continue
				}
				cxx += x.cells
				ox = side
			} else if cxx >= x.cells {
				if !wrap {
					continue
				}
				cxx -= x.cells
				ox = -side
			}
			buf = append(buf, winCell{first: rowBase + int32(cxx), ox: ox, oy: oy})
		}
	}
	return buf
}

// scanAll visits every node once, cell by cell. Row and RowFiltered
// use it when the scan window covers the whole grid, where visiting
// each cell once avoids the duplicates a wrapped window would produce.
// Callers append through the closure, which captures their slice
// variable.
func (x *Index) scanAll(fn func(j int32)) {
	for _, b := range x.bucket {
		for _, j := range b {
			fn(j)
		}
	}
}

// insertionSort sorts a short row ascending in place.
func insertionSort(s []int32) {
	for i := 1; i < len(s); i++ {
		v := s[i]
		j := i - 1
		for j >= 0 && s[j] > v {
			s[j+1] = s[j]
			j--
		}
		s[j+1] = v
	}
}
