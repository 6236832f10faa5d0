package grid

// Influence is a per-engine influence-list index (paper Figure 3.3b): for
// every cell, the queries whose influence (or answer) region contains it.
//
// In the original layout these lists lived inside the grid cells. With the
// shared-grid sharding refactor the object index is one structure read by
// all shards, while influence lists are query book-keeping — exactly the
// state that stays partitioned. Hoisting them into a per-engine index means
// a shard only ever writes its own Influence, so the parallel monitoring
// fan-out performs no writes at all against the shared grid. (The in-cell
// lists remain for the YPK-CNN/SEA-CNN baselines, which keep private
// grids.)
//
// The representation matches the in-cell original: short dense swap-delete
// slices, nil until first use, plus an O(1) running entry count that backs
// MemoryFootprint without a scan over all cells. What a list holds is not a
// query id but a Handle into the owning engine's query table — the pointer
// of Figure 3.3b — so a scan reaches the query's state by indexing, not by
// hashing an id.
type Influence struct {
	cells   [][]Handle
	entries int64
}

// Handle names one entry of the owning engine's query table. The index is
// opaque to the grid; the engine alone decides what its bits mean.
type Handle uint32

// NewInfluence creates an index over cellCount cells.
func NewInfluence(cellCount int) *Influence {
	return &Influence{cells: make([][]Handle, cellCount)}
}

// Reset drops every list and re-sizes the index to cellCount cells — the
// engine-side companion of Grid.Rebuild. The backing array is reused when
// it is large enough so a rebalance of a warm engine allocates at most the
// new cell directory.
func (x *Influence) Reset(cellCount int) {
	if cellCount <= cap(x.cells) {
		x.cells = x.cells[:cellCount]
		for i := range x.cells {
			x.cells[i] = nil
		}
	} else {
		x.cells = make([][]Handle, cellCount)
	}
	x.entries = 0
}

// AddUnchecked appends q to the list of cell c without a duplicate check —
// O(1) always. The caller must guarantee q is not already present (the CPM
// engine tracks its influence prefix exactly); a duplicate entry would make
// the scans route the same update to a query twice and leave a stale entry
// behind after removal.
func (x *Influence) AddUnchecked(c CellIndex, q Handle) {
	x.cells[c] = append(x.cells[c], q)
	x.entries++
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
			x.entries--
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

// Len returns the size of the list of cell c — the scan pre-filter reads
// this for every update, so it must stay a plain slice-length load.
func (x *Influence) Len(c CellIndex) int { return len(x.cells[c]) }

// List returns the list of cell c as a borrowed slice. The slice is owned
// by the index: callers must not mutate or retain it, and adding or
// removing entries on c invalidates it. Iterating it allocates nothing.
func (x *Influence) List(c CellIndex) []Handle { return x.cells[c] }

// Entries returns the total number of influence entries across all cells,
// maintained incrementally — one term of the Section 6.4 memory model.
func (x *Influence) Entries() int64 { return x.entries }
