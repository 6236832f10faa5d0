//go:build race || cpmassert

package grid

import "fmt"

// Epoch-guard and occupancy assertions, compiled in under -race (and the
// cpmassert tag for assert-only builds). The release build pays nothing —
// see guard_off.go. The epoch assertions read only the shared flag
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

// assertOccupancy panics when cell c's occupancy bit disagrees with its
// influence list: a clear bit over a non-empty list would make the filtered
// apply drop updates that list's queries need, silently.
func (x *Influence) assertOccupancy(c CellIndex) {
	if x.occupied.Has(c) != (len(x.cells[c]) > 0) {
		panic(fmt.Sprintf("grid: occupancy bit of cell %d is %v with %d influence entries", c, x.occupied.Has(c), len(x.cells[c])))
	}
}
