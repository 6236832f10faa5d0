// Package grid implements the regular main-memory grid index that all three
// monitoring methods (CPM, YPK-CNN, SEA-CNN) share, following Section 3 and
// Figure 3.3 of the paper.
//
// The workspace is partitioned into Size×Size square cells of side δ =
// extent/Size. Cell c_{i,j} (column i, row j, counted from the low-left
// corner) holds the objects with x ∈ [i·δ, (i+1)·δ) and y ∈ [j·δ, (j+1)·δ);
// conversely an object at (x,y) belongs to c_{⌊x/δ⌋,⌊y/δ⌋}. A cell keeps
// only the set of objects inside it. Figure 3.3's other per-cell list, the
// influence list — the queries whose influence (or answer) region contains
// the cell — is query book-keeping and lives in a separate Influence index
// per monitor (influence.go), for CPM and SEA-CNN alike.
//
// Invariant: every stored object position lies inside the workspace (and
// therefore inside its cell's rectangle). Insert and Move clamp incoming
// positions onto the workspace border (Clamp); without that, an object
// beyond the border would sit in a cell whose rect does not contain it, and
// mindist-based search pruning could skip the cell holding the true nearest
// neighbor (the property test TestOutOfWorkspaceObjects pins this).
//
// The paper prescribes hash tables for both sets so that deletion and
// insertion take expected constant time (Time_ind = 2 in the Section 4.1
// model). This implementation substitutes dense swap-delete slices
// (documented substitution, README "Design notes"): object sets carry an
// intrusive object→slot index so removal stays O(1), influence sets are
// short dense arrays where a linear swap-delete beats hashing in practice.
// Both keep the paper's asymptotics while making the three hot loops —
// relocation, influence scans, cell scans — branch-predictable pointer-free
// slice walks with zero allocation. The grid also owns the id-indexed object
// store (position, liveness, cell and slot of every id) and the cell-access
// counter that backs Figure 6.3b.
//
// The cell lists are maintained in one of two modes, chosen per batch by
// cost (apply.go). Single-object calls, small batches and the per-update
// ablation relocate: a move swap-deletes the id from its old cell's list and
// appends it to the new one, O(1) but a cache miss into a random cell array
// per move. A batch that moves a large share of the population — the high
// speed and agility of Figures 6.4a and 6.5a — regroups instead: every update
// goes to the id-indexed store only, then one pass over the live ids in
// ascending order refills every cell list from its reused backing array.
// Both modes end in the same cell sets; only the order inside a cell
// differs, and no reader depends on it. Rebuild is a regroup after a change
// of geometry.
package grid

import (
	"fmt"
	"math"
	"sync/atomic"

	"cpm/internal/geom"
	"cpm/internal/model"
)

// CellIndex addresses a cell as j*Size + i. The value -1 means "no cell".
type CellIndex int32

// NoCell is the sentinel CellIndex.
const NoCell CellIndex = -1

// Cell holds a cell's object list of Figure 3.3, a dense swap-delete slice
// (nil until first use); an empty cell of a fine grid costs one nil slice
// header. A regroup keeps the backing array and refills it.
type Cell struct {
	objects []model.ObjectID
}

// Grid is the object index.
type Grid struct {
	size      int       // cells per dimension
	delta     float64   // cell side length δ
	workspace geom.Rect // indexed area; points outside are clamped onto the border
	cells     []Cell

	// xs and ys are the grid lines: cell (i, j) spans [xs[i], xs[i+1]] ×
	// [ys[j], ys[j+1]] (see setGeometry).
	xs, ys []float64

	positions []geom.Point // dense object position store, indexed by ObjectID
	alive     []bool
	cellOf    []CellIndex // object -> the cell whose list holds it
	slots     []int32     // intrusive index: object -> slot in its cell's object slice

	count        int   // live objects
	nonEmpty     int   // cells currently holding at least one object
	cellAccesses int64 // complete scans of cell object lists

	// Shared-mode epoch guard (see epoch.go). `shared` is set once at
	// construction time by a sharded monitor; `writing` is atomic so the
	// guard assertions in race builds are themselves race-free; `epoch`
	// only changes inside write windows and is read between them.
	shared  bool
	epoch   int64
	writing atomic.Bool
}

// New creates a grid of size×size cells over the given workspace.
// It panics on a non-positive size or an empty workspace: an invalid
// geometry is a programming error. The cell count can later be changed
// online with Rebuild; the workspace is fixed for the grid's lifetime.
func New(size int, workspace geom.Rect) *Grid {
	if size <= 0 {
		panic(fmt.Sprintf("grid: non-positive size %d", size))
	}
	if workspace.Width() <= 0 || workspace.Height() <= 0 {
		panic(fmt.Sprintf("grid: degenerate workspace %+v", workspace))
	}
	if workspace.Width() != workspace.Height() {
		// The paper's cells are square (δ×δ). Rectangular workspaces would
		// make δ ambiguous; the generator normalizes to the unit square.
		panic(fmt.Sprintf("grid: workspace must be square, got %+v", workspace))
	}
	g := &Grid{workspace: workspace}
	g.setGeometry(size)
	return g
}

// setGeometry partitions the workspace into size×size cells of side δ.
// ColRow's arithmetic decides which cell a point belongs to, and the grid
// lines follow from it: line i is the least coordinate ColRow puts in cell
// i or beyond, so a cell's rectangle holds exactly the points ColRow maps
// to it. Where i·δ rounds (at any size that is not a power of two) the
// line moves by the ulps that takes; the last line is the workspace
// border.
func (g *Grid) setGeometry(size int) {
	ws := g.workspace
	g.size = size
	g.delta = ws.Width() / float64(size)
	g.cells = make([]Cell, size*size)
	g.xs = g.lines(ws.Lo.X, ws.Hi.X)
	g.ys = g.xs
	if ws.Lo.Y != ws.Lo.X || ws.Hi.Y != ws.Hi.X {
		g.ys = g.lines(ws.Lo.Y, ws.Hi.Y)
	}
}

// lines returns the size+1 grid lines of the axis [lo, hi] (setGeometry):
// each inner one found by bisection over the ordered float64 values, at
// most 64 steps.
func (g *Grid) lines(lo, hi float64) []float64 {
	ls := make([]float64, g.size+1)
	ls[0], ls[g.size] = lo, hi
	for i := 1; i < g.size; i++ {
		a, b := order(lo), order(hi) // cell(hi) = size-1 >= i
		for a < b {
			if mid := a + (b-a)/2; g.cell(unorder(mid), lo, hi) >= i {
				b = mid
			} else {
				a = mid + 1
			}
		}
		ls[i] = unorder(b)
	}
	return ls
}

// order maps a float64 to a uint64 that sorts as the float does; unorder
// inverts it.
func order(v float64) uint64 {
	u := math.Float64bits(v)
	if u>>63 == 1 {
		return ^u
	}
	return u | 1<<63
}

func unorder(k uint64) float64 {
	if k>>63 == 1 {
		return math.Float64frombits(k &^ (1 << 63))
	}
	return math.Float64frombits(^k)
}

// NewUnit creates a grid over the unit square [0,1]×[0,1], the canonical
// workspace of the paper's analysis and experiments.
func NewUnit(size int) *Grid {
	return New(size, geom.Rect{Lo: geom.Point{X: 0, Y: 0}, Hi: geom.Point{X: 1, Y: 1}})
}

// Size returns the number of cells per dimension.
func (g *Grid) Size() int { return g.size }

// Delta returns the cell side length δ.
func (g *Grid) Delta() float64 { return g.delta }

// Workspace returns the indexed area.
func (g *Grid) Workspace() geom.Rect { return g.workspace }

// Count returns the number of live objects.
func (g *Grid) Count() int { return g.count }

// NonEmptyCells returns how many cells currently hold at least one object.
// It is maintained incrementally (O(1) per insert/delete/relocation), so
// the rebalancing policy can read occupancy every cycle for free.
func (g *Grid) NonEmptyCells() int { return g.nonEmpty }

// MeanOccupancy returns the average number of live objects per non-empty
// cell — the density statistic the online rebalancing policy steers by.
// It is 0 for an empty grid.
func (g *Grid) MeanOccupancy() float64 {
	if g.nonEmpty == 0 {
		return 0
	}
	return float64(g.count) / float64(g.nonEmpty)
}

// Clamp projects p onto the workspace. Stored object positions are always
// clamped (see Insert/Move): a raw position outside the workspace would lie
// outside its cell's rectangle, and mindist-ordered search pruning — which
// lower-bounds every object in a cell by the cell rect's mindist — could
// then prune the cell holding the true nearest neighbor. Clamping restores
// the containment invariant for any query point, inside the workspace or
// not.
func (g *Grid) Clamp(p geom.Point) geom.Point {
	if p.X < g.workspace.Lo.X {
		p.X = g.workspace.Lo.X
	} else if p.X > g.workspace.Hi.X {
		p.X = g.workspace.Hi.X
	}
	if p.Y < g.workspace.Lo.Y {
		p.Y = g.workspace.Lo.Y
	} else if p.Y > g.workspace.Hi.Y {
		p.Y = g.workspace.Hi.Y
	}
	return p
}

// Rebuild re-partitions the workspace into newSize×newSize cells and
// migrates every live object into the fresh cell array — the grid half of
// online rebalancing (δ becomes extent/newSize). The dense object store
// (positions, liveness) survives; every object's cell is recomputed for the
// new geometry and a regroup rebuilds the cell lists in ascending id order.
//
// Influence indexes are sized for the old geometry: the engine(s) owning
// the queries must reset and reinstall them (together with each query's
// visit list and heap) right after — see shard.Monitor.Rebalance and
// core.Engine.Reindex. The cumulative cell-access counter is preserved:
// a rebuild is index maintenance, not search work.
//
// Rebuild opens its own write window, so on a shared grid it is safe to
// call directly between fan-outs and it advances the epoch.
func (g *Grid) Rebuild(newSize int) {
	if newSize <= 0 {
		panic(fmt.Sprintf("grid: non-positive rebuild size %d", newSize))
	}
	g.BeginWrites()
	defer g.EndWrites()
	g.setGeometry(newSize)
	for id, ok := range g.alive {
		if ok {
			g.cellOf[id] = g.CellOf(g.positions[id])
		}
	}
	g.regroup()
	g.assertIndex()
}

// ColRow returns the column and row of the cell covering p. Points on or
// beyond the workspace border are clamped into the border cells, so every
// point maps to a valid cell — the one whose CellRect contains it.
func (g *Grid) ColRow(p geom.Point) (int, int) {
	ws := &g.workspace
	return g.cell(p.X, ws.Lo.X, ws.Hi.X), g.cell(p.Y, ws.Lo.Y, ws.Hi.Y)
}

// cell returns the index of the cell covering coordinate v of the axis
// [lo, hi]: ⌊(v-lo)/δ⌋, clamped to the grid.
func (g *Grid) cell(v, lo, hi float64) int {
	if !(v > lo) { // also NaN
		return 0
	}
	if v >= hi {
		return g.size - 1
	}
	return min(int((v-lo)/g.delta), g.size-1)
}

// CellOf returns the index of the cell covering p.
func (g *Grid) CellOf(p geom.Point) CellIndex {
	ws := &g.workspace
	return CellIndex(g.cell(p.Y, ws.Lo.Y, ws.Hi.Y)*g.size + g.cell(p.X, ws.Lo.X, ws.Hi.X))
}

// Index converts (col, row) to a CellIndex, or NoCell when out of range.
func (g *Grid) Index(col, row int) CellIndex {
	if col < 0 || col >= g.size || row < 0 || row >= g.size {
		return NoCell
	}
	return CellIndex(row*g.size + col)
}

// Split converts a CellIndex back to (col, row).
func (g *Grid) Split(c CellIndex) (int, int) {
	return int(c) % g.size, int(c) / g.size
}

// CellRect returns the geometric extent of cell (col, row): from its
// corner to the next cell's along both axes.
func (g *Grid) CellRect(col, row int) geom.Rect {
	return geom.Rect{Lo: g.Corner(col, row), Hi: g.Corner(col+1, row+1)}
}

// Corner returns the low corner of cell (col, row), where grid lines col
// and row cross (setGeometry). Indices up to Size are valid: the last
// lines are the workspace border.
func (g *Grid) Corner(col, row int) geom.Point {
	return geom.Point{X: g.xs[col], Y: g.ys[row]}
}

// Lines returns the grid lines of both axes, Size+1 each (setGeometry).
// They are borrowed: Rebuild replaces them.
func (g *Grid) Lines() (xs, ys []float64) { return g.xs, g.ys }

// RectOf returns the geometric extent of cell c.
func (g *Grid) RectOf(c CellIndex) geom.Rect {
	col, row := g.Split(c)
	return g.CellRect(col, row)
}

// MinDist returns mindist(c, q) for cell c.
func (g *Grid) MinDist(c CellIndex, q geom.Point) float64 {
	return g.RectOf(c).MinDist(q)
}
