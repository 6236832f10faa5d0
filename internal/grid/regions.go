package grid

import (
	"math"

	"cpm/internal/geom"
)

// CellsInRect invokes fn for every cell intersecting r, clamped to the
// grid. YPK-CNN's square search regions are enumerated with it.
func (g *Grid) CellsInRect(r geom.Rect, fn func(c CellIndex)) {
	iLo, jLo := g.ColRow(r.Lo)
	iHi, jHi := g.ColRow(r.Hi)
	for j := jLo; j <= jHi; j++ {
		for i := iLo; i <= iHi; i++ {
			fn(CellIndex(j*g.size + i))
		}
	}
}

// CellsInCircle invokes fn for every cell c with mindist(c, center) ≤
// radius — the cells intersecting the disk. SEA-CNN's answer and search
// regions and CPM's influence regions are disks.
func (g *Grid) CellsInCircle(center geom.Point, radius float64, fn func(c CellIndex)) {
	if radius < 0 {
		return
	}
	if math.IsInf(radius, 1) {
		// An infinite answer region (a query with fewer than k results)
		// covers the whole grid. Handled explicitly: converting ±Inf
		// coordinates to cell indices is implementation-defined.
		for c := range g.cells {
			fn(CellIndex(c))
		}
		return
	}
	bbox := geom.Rect{
		Lo: geom.Point{X: center.X - radius, Y: center.Y - radius},
		Hi: geom.Point{X: center.X + radius, Y: center.Y + radius},
	}
	iLo, jLo := g.ColRow(bbox.Lo)
	iHi, jHi := g.ColRow(bbox.Hi)
	for j := jLo; j <= jHi; j++ {
		for i := iLo; i <= iHi; i++ {
			if g.CellRect(i, j).MinDist(center) <= radius {
				fn(CellIndex(j*g.size + i))
			}
		}
	}
}

// RingCells invokes fn for the cells of the square ring at L∞ cell-distance
// ring around (col, row), clamped to the grid; ring 0 is the center cell
// itself. YPK-CNN's first search step expands rings until k objects are
// found. It returns the number of in-grid cells visited (0 means the whole
// ring lies outside the grid).
func (g *Grid) RingCells(col, row, ring int, fn func(c CellIndex)) int {
	if ring == 0 {
		if idx := g.Index(col, row); idx != NoCell {
			fn(idx)
			return 1
		}
		return 0
	}
	n := 0
	visit := func(i, j int) {
		if idx := g.Index(i, j); idx != NoCell {
			fn(idx)
			n++
		}
	}
	top, bottom := row+ring, row-ring
	for i := col - ring; i <= col+ring; i++ {
		visit(i, top)
		visit(i, bottom)
	}
	for j := row - ring + 1; j <= row+ring-1; j++ {
		visit(col-ring, j)
		visit(col+ring, j)
	}
	return n
}

// MemoryFootprint estimates the resident size of the grid index in the
// paper's abstract memory units of Section 4.1, where one unit stores one
// number: 3 units per object (id + two coordinates). The one unit per
// influence-list entry is counted by the monitor owning the lists
// (Influence.Entries). The benchmark harness uses it for the footnote-6
// space comparison.
func (g *Grid) MemoryFootprint() int64 { return int64(3 * g.count) }
