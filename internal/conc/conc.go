// Package conc implements the conceptual partitioning of the space around a
// query (paper Figure 3.1b, generalized to Section 5's aggregate queries).
//
// The grid cells around a center block B — the query's cell c_q for a point
// query, or the cells covering the MBR M of the query set for an aggregate
// query — are organized into direction strips DIR_lvl with DIR ∈ {U, D, L,
// R}. Strip DIR_lvl is one cell thick; lvl counts the strips between it and
// the block. The four directions pinwheel around B so that every cell of
// the (conceptually infinite) grid outside B belongs to exactly one strip:
//
//	            U2
//	   ┌─────────────────┐
//	L1 │        U0       │
//	   │   ┌─────────┐   │ R1
//	   │L0 │    B    │R0 │
//	   │   └─────────┘   │
//	   │        D0       │
//	   └─────────────────┘
//	            D1
//
// For a block [c_lo..c_hi] × [r_lo..r_hi] (cell coordinates, inclusive):
//
//	U_l: row r_hi+1+l, cols [c_lo-l   .. c_hi+1+l]
//	R_l: col c_hi+1+l, rows [r_lo-1-l .. r_hi+l  ]
//	D_l: row r_lo-1-l, cols [c_lo-1-l .. c_hi+l  ]
//	L_l: col c_lo-1-l, rows [r_lo-l   .. r_hi+1+l]
//
// The exact-tiling property (each cell in exactly one strip) is what makes
// the CPM search minimal: visiting strips in mindist order visits cells in
// mindist order without sorting the whole grid, and Lemma 3.1 / Corollaries
// 5.1–5.2 — mindist(DIR_{l+1}, q) = mindist(DIR_l, q) + δ (m·δ for sum) —
// follow from the strips being parallel lines δ apart. The package computes
// strip geometry exactly rather than incrementally, so the identities hold
// by construction and are verified by property tests.
package conc

import (
	"fmt"

	"cpm/internal/geom"
)

// Dir is a strip direction.
type Dir uint8

// The four directions of conceptual rectangles.
const (
	Up Dir = iota
	Down
	Left
	Right
)

// Dirs lists all directions, in the order the search seeds its heap.
var Dirs = [4]Dir{Up, Down, Left, Right}

// String returns the paper's single-letter name for the direction.
func (d Dir) String() string {
	switch d {
	case Up:
		return "U"
	case Down:
		return "D"
	case Left:
		return "L"
	case Right:
		return "R"
	default:
		return fmt.Sprintf("Dir(%d)", uint8(d))
	}
}

// Strip identifies the conceptual rectangle DIR_Level.
type Strip struct {
	Dir   Dir
	Level int32
}

// String formats the strip as in the paper, e.g. "U0" or "L2".
func (s Strip) String() string { return fmt.Sprintf("%s%d", s.Dir, s.Level) }

// Block is an inclusive rectangle of cells: the center of a partitioning.
type Block struct {
	ColLo, ColHi int
	RowLo, RowHi int
}

// CellBlock returns the 1×1 block of a point query's cell.
func CellBlock(col, row int) Block {
	return Block{ColLo: col, ColHi: col, RowLo: row, RowHi: row}
}

// Partition is the conceptual partitioning of a size×size grid around a
// block. It is pure geometry: it holds no per-query state, so one value can
// be recomputed cheaply whenever a query (re)starts a search.
type Partition struct {
	size   int
	delta  float64
	origin geom.Point // low-left corner of the workspace
	xs, ys []float64  // a grid's own lines, or nil for origin + i·delta
	block  Block
}

// NewPartition builds the partitioning around block for a grid of
// size×size cells of side delta anchored at origin, whose lines lie at
// origin + i·delta. The block must be non-empty and within the grid.
func NewPartition(size int, delta float64, origin geom.Point, block Block) Partition {
	if block.ColLo > block.ColHi || block.RowLo > block.RowHi {
		panic(fmt.Sprintf("conc: empty block %+v", block))
	}
	if block.ColLo < 0 || block.ColHi >= size || block.RowLo < 0 || block.RowHi >= size {
		panic(fmt.Sprintf("conc: block %+v outside %d×%d grid", block, size, size))
	}
	return Partition{size: size, delta: delta, origin: origin, block: block}
}

// NewGridPartition builds the partitioning around block for a grid with
// the given lines, len(xs) == len(ys) == size+1, and cells of side about
// delta (grid.Grid.Lines). Strip and block rectangles then contain the
// grid's cell rectangles exactly, whatever the rounding of i·delta; the
// strips beyond the grid step on by delta from its border lines.
func NewGridPartition(xs, ys []float64, delta float64, block Block) Partition {
	p := NewPartition(len(xs)-1, delta, geom.Point{X: xs[0], Y: ys[0]}, block)
	p.xs, p.ys = xs, ys
	return p
}

// Block returns the center block.
func (p *Partition) Block() Block { return p.block }

// span returns the fixed coordinate of the strip and the inclusive range of
// its varying coordinate, in cell units, before grid clamping.
func (p *Partition) span(s Strip) (fixed, lo, hi int) {
	l := int(s.Level)
	b := p.block
	switch s.Dir {
	case Up:
		return b.RowHi + 1 + l, b.ColLo - l, b.ColHi + 1 + l
	case Right:
		return b.ColHi + 1 + l, b.RowLo - 1 - l, b.RowHi + l
	case Down:
		return b.RowLo - 1 - l, b.ColLo - 1 - l, b.ColHi + l
	case Left:
		return b.ColLo - 1 - l, b.RowLo - l, b.RowHi + 1 + l
	default:
		panic("conc: unknown direction")
	}
}

// InGrid reports whether strip s contains at least one grid cell, i.e.
// whether its fixed coordinate lies inside the grid. Because each level
// moves the fixed coordinate one cell further from the block, once a strip
// leaves the grid all higher levels of that direction are outside too — the
// search uses this to stop en-heaping a direction.
func (p *Partition) InGrid(s Strip) bool {
	fixed, _, _ := p.span(s)
	return fixed >= 0 && fixed < p.size
}

// Cells invokes fn for every grid cell of strip s, clamped to the grid, in
// ascending varying-coordinate order. It is a no-op when the strip lies
// outside the grid.
func (p *Partition) Cells(s Strip, fn func(col, row int)) {
	fixed, lo, hi := p.CellSpan(s)
	horizontal := s.Dir == Up || s.Dir == Down
	for v := lo; v <= hi; v++ {
		if horizontal {
			fn(v, fixed)
		} else {
			fn(fixed, v)
		}
	}
}

// CellSpan returns the grid cells of strip s as its fixed coordinate — the
// row of an Up or Down strip, the column of a Left or Right one — and the
// inclusive range lo..hi of the other coordinate, clamped to the grid. The
// range is empty (lo > hi) when the strip lies outside the grid.
func (p *Partition) CellSpan(s Strip) (fixed, lo, hi int) {
	fixed, lo, hi = p.span(s)
	if fixed < 0 || fixed >= p.size {
		return fixed, 0, -1
	}
	return fixed, max(lo, 0), min(hi, p.size-1)
}

// Rect returns the geometric extent of strip s, unclamped: strips around a
// border block extend beyond the workspace. The mindist of the full strip
// lower-bounds the mindist of each of its in-grid cells, so using it as the
// strip's heap key preserves search correctness everywhere, including at
// the workspace border.
func (p *Partition) Rect(s Strip) geom.Rect {
	fixed, lo, hi := p.span(s)
	horizontal := s.Dir == Up || s.Dir == Down
	var r geom.Rect
	if horizontal {
		r.Lo = p.cellCorner(lo, fixed)
		r.Hi = p.cellCorner(hi+1, fixed+1)
	} else {
		r.Lo = p.cellCorner(fixed, lo)
		r.Hi = p.cellCorner(fixed+1, hi+1)
	}
	return r
}

// BlockRect returns the geometric extent of the center block.
func (p *Partition) BlockRect() geom.Rect {
	return geom.Rect{
		Lo: p.cellCorner(p.block.ColLo, p.block.RowLo),
		Hi: p.cellCorner(p.block.ColHi+1, p.block.RowHi+1),
	}
}

func (p *Partition) cellCorner(col, row int) geom.Point {
	return geom.Point{X: p.line(p.xs, p.origin.X, col), Y: p.line(p.ys, p.origin.Y, row)}
}

// line returns grid line i of an axis with lines ls starting at origin.
func (p *Partition) line(ls []float64, origin float64, i int) float64 {
	switch {
	case ls == nil || i < 0:
		return origin + float64(i)*p.delta
	case i > p.size:
		return ls[p.size] + float64(i-p.size)*p.delta
	default:
		return ls[i]
	}
}
