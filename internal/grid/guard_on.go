//go:build race || cpmassert

package grid

import (
	"fmt"

	"cpm/internal/model"
)

// Epoch-guard, index and occupancy assertions, compiled in under -race (and
// the cpmassert tag for assert-only builds). The release build pays nothing
// — see guard_off.go. The epoch assertions read only the shared flag
// (immutable after setup) and the atomic writing flag, so a violation panics
// deterministically before any racy memory access happens.

// guardEnabled reports whether the epoch-guard assertions are compiled in;
// tests use it to know whether a violation must panic.
const guardEnabled = true

// assertStable panics when object data of a shared grid is read inside a
// write window: the reader would observe a half-applied tick.
func (g *Grid) assertStable() {
	if g.shared && g.writing.Load() {
		panic("grid: read of shared grid inside a write window (epoch unstable)")
	}
}

// assertWritable panics when a shared grid is mutated outside a write
// window: concurrent shard readers may be iterating its cells.
func (g *Grid) assertWritable() {
	if g.shared && !g.writing.Load() {
		panic("grid: write to shared grid outside BeginWrites/EndWrites")
	}
}

// assertIndex panics unless the cell lists agree with the id-indexed store:
// every live id sits at cells[cellOf[id]].objects[slots[id]], its cell is
// the one its position maps to, the list lengths sum to Count and the
// non-empty counter is exact. With the lengths summing to the live count,
// no list can hold a dead id or a duplicate. ApplyWatched and Rebuild run it
// on the way out, whichever maintenance mode they used.
func (g *Grid) assertIndex() {
	total, nonEmpty := 0, 0
	for c := range g.cells {
		if n := len(g.cells[c].objects); n > 0 {
			total += n
			nonEmpty++
		}
	}
	if total != g.count || nonEmpty != g.nonEmpty {
		panic(fmt.Sprintf("grid: cell lists hold %d objects in %d cells, Count %d, NonEmptyCells %d", total, nonEmpty, g.count, g.nonEmpty))
	}
	for id, ok := range g.alive {
		if !ok {
			continue
		}
		c, s := g.cellOf[id], g.slots[id]
		if want := g.CellOf(g.positions[id]); c != want {
			panic(fmt.Sprintf("grid: object %d recorded in cell %d, its position maps to %d", id, c, want))
		}
		if objs := g.cells[c].objects; int(s) >= len(objs) || objs[s] != model.ObjectID(id) {
			panic(fmt.Sprintf("grid: object %d not at slot %d of cell %d", id, s, c))
		}
	}
}

// assertOccupancy panics when cell c's occupancy bit disagrees with its
// influence list: a clear bit over a non-empty list would make the filtered
// apply drop updates that list's queries need, silently.
func (x *Influence) assertOccupancy(c CellIndex) {
	if x.occupied.Has(c) != (len(x.cells[c]) > 0) {
		panic(fmt.Sprintf("grid: occupancy bit of cell %d is %v with %d influence entries", c, x.occupied.Has(c), len(x.cells[c])))
	}
}
