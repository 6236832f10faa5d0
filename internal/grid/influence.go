package grid

import "cpm/internal/arena"

// Influence is an influence-list index (paper Figure 3.3b): for every cell,
// the queries whose influence (or answer) region contains it. Every method
// keeps its lists here — each CPM engine and the SEA-CNN baseline — never in
// the grid cells, which hold objects only. With a shared grid the object
// index is one structure read by all shards, while influence lists are query
// book-keeping — exactly the state that stays partitioned — so a shard only
// ever writes its own Influence and the parallel monitoring fan-out performs
// no writes against the shared grid.
//
// The lists are short dense swap-delete slices, nil until first use, plus an
// O(1) running entry count that backs MemoryFootprint without a scan over
// all cells. What a list holds is a Handle the owning monitor defines: for a
// CPM engine it names a slot of the query table — the pointer of Figure
// 3.3b — so a scan reaches the query's state by indexing, not by hashing an
// id; SEA-CNN's handle is the query id itself.
//
// A list's storage is a run carved from the index's arena: firstRun handles
// when its cell first gets an entry, twice the room whenever it fills. A list
// keeps its run when it drains and across Reset, so only cells that ever
// held an entry take space, nothing is allocated at Reset, and a list that
// grows costs a carve, not an allocation of its own. A run it outgrew stays
// in its chunk unused.
//
// Beside the lists the index keeps their occupancy: one bit per cell, set
// exactly while the cell's list is non-empty, maintained in O(1) by every
// add and remove. An object update that touches no occupied cell cannot
// concern any query of the index, so the grid's apply loop leaves it out of
// the write log (ApplyWatched) and the scans test the bits instead of the
// lists.
type Influence struct {
	cells    [][]Handle
	occupied CellSet
	entries  int64
	runs     arena.Slab[Handle]
}

// firstRun is the room a list starts with: influence lists hold a few
// entries (a cell lies in the influence regions of the queries around it),
// so most never grow past it.
const firstRun = 4

// Handle names one query of the owning monitor. The value is opaque to the
// grid; the monitor alone decides what its bits mean.
type Handle uint32

// NewInfluence creates an index over cellCount cells.
func NewInfluence(cellCount int) *Influence {
	x := &Influence{}
	x.Reset(cellCount)
	return x
}

// Reset empties every list and re-sizes the index to cellCount cells — the
// monitor-side companion of Grid.Rebuild. The lists keep their storage and
// the directory is reused when it is large enough, so a rebalance of a warm
// engine allocates at most a larger cell directory.
func (x *Influence) Reset(cellCount int) {
	if cellCount <= cap(x.cells) {
		x.cells = x.cells[:cellCount]
		for c := range x.cells {
			x.cells[c] = x.cells[c][:0]
		}
	} else {
		x.cells = make([][]Handle, cellCount)
	}
	x.occupied.Reset(cellCount)
	x.entries = 0
}

// AddUnchecked appends q to the list of cell c without a duplicate check —
// O(1) always. The caller must guarantee q is not already present (the CPM
// engine tracks its influence prefix exactly, SEA-CNN clears a region before
// re-deriving it); a duplicate entry would make the scans route the same
// update to a query twice and leave a stale entry behind after removal.
func (x *Influence) AddUnchecked(c CellIndex, q Handle) {
	list := x.cells[c]
	if len(list) == 0 {
		x.occupied.add(c)
	}
	if len(list) == cap(list) {
		list = append(x.runs.Make(max(firstRun, 2*len(list)))[:0], list...)
	}
	x.cells[c] = append(list, q)
	x.entries++
	x.assertOccupancy(c)
}

// Remove removes q from the list of cell c by swap-delete. Removing an
// absent entry is a no-op.
func (x *Influence) Remove(c CellIndex, q Handle) {
	list := x.cells[c]
	for i, have := range list {
		if have == q {
			last := len(list) - 1
			list[i] = list[last]
			x.cells[c] = list[:last]
			if last == 0 {
				x.occupied.remove(c)
			}
			x.entries--
			x.assertOccupancy(c)
			return
		}
	}
}

// Has reports whether q is in the list of cell c.
func (x *Influence) Has(c CellIndex, q Handle) bool {
	for _, have := range x.cells[c] {
		if have == q {
			return true
		}
	}
	return false
}

// List returns the list of cell c as a borrowed slice. The slice is owned
// by the index: callers must not mutate or retain it, and adding or
// removing entries on c invalidates it. Iterating it allocates nothing.
func (x *Influence) List(c CellIndex) []Handle { return x.cells[c] }

// Occupied returns the set of cells whose list is non-empty, borrowed: it
// is the index's own set, current after every add, remove and reset.
func (x *Influence) Occupied() *CellSet { return &x.occupied }

// Entries returns the total number of influence entries across all cells,
// maintained incrementally — one term of the Section 6.4 memory model.
func (x *Influence) Entries() int64 { return x.entries }

// CellSet is a set of cells of one grid geometry, one bit per cell. The
// zero value holds no cells; Reset sizes it.
type CellSet struct {
	words []uint64
}

// Reset empties the set and sizes it for cellCount cells, reusing its
// storage when it is large enough.
func (s *CellSet) Reset(cellCount int) {
	n := (cellCount + 63) / 64
	if n <= cap(s.words) {
		s.words = s.words[:n]
		clear(s.words)
	} else {
		s.words = make([]uint64, n)
	}
}

// Has reports whether cell c is in the set.
func (s *CellSet) Has(c CellIndex) bool { return s.words[c>>6]&(1<<(c&63)) != 0 }

// Or adds every cell of o, which must be sized for the same cell count.
func (s *CellSet) Or(o *CellSet) {
	for i, w := range o.words {
		s.words[i] |= w
	}
}

func (s *CellSet) add(c CellIndex)    { s.words[c>>6] |= 1 << (c & 63) }
func (s *CellSet) remove(c CellIndex) { s.words[c>>6] &^= 1 << (c & 63) }
