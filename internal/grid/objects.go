package grid

import (
	"errors"

	"cpm/internal/geom"
	"cpm/internal/model"
)

// The errors of the update path are sentinels: ApplyBatch only counts
// rejected updates, so rejecting one must not allocate a formatted message.
// A caller that reports one adds the object id itself.
var (
	ErrNegativeID    = errors.New("grid: negative object id")
	ErrLiveObject    = errors.New("grid: insert of live object")
	ErrUnknownObject = errors.New("grid: update of unknown object")
)

// ensureID grows the id-indexed store to cover id.
func (g *Grid) ensureID(id model.ObjectID) {
	if int(id) < len(g.positions) {
		return
	}
	n := int(id) + 1
	if n < 2*len(g.positions) {
		n = 2 * len(g.positions)
	}
	pos := make([]geom.Point, n)
	copy(pos, g.positions)
	g.positions = pos
	alive := make([]bool, n)
	copy(alive, g.alive)
	g.alive = alive
	cellOf := make([]CellIndex, n)
	copy(cellOf, g.cellOf)
	g.cellOf = cellOf
	slots := make([]int32, n)
	copy(slots, g.slots)
	g.slots = slots
}

// addObject appends id to cell c's object slice and records its slot in the
// intrusive index, keeping the non-empty-cell counter current.
func (g *Grid) addObject(c CellIndex, id model.ObjectID) {
	cell := &g.cells[c]
	if len(cell.objects) == 0 {
		g.nonEmpty++
	}
	g.slots[id] = int32(len(cell.objects))
	cell.objects = append(cell.objects, id)
}

// removeObject swap-deletes id from cell c's object slice in O(1) via the
// intrusive slot index, fixing the moved object's slot.
func (g *Grid) removeObject(c CellIndex, id model.ObjectID) {
	cell := &g.cells[c]
	s := g.slots[id]
	last := len(cell.objects) - 1
	moved := cell.objects[last]
	cell.objects[s] = moved
	g.slots[moved] = s
	cell.objects = cell.objects[:last]
	if last == 0 {
		g.nonEmpty--
	}
}

// regroup rebuilds every cell list from the id-indexed store: each list
// keeps its backing array and is refilled with its live ids in ascending
// order, which rewrites their slots and the non-empty count. It walks the
// store and the cell directory sequentially, and a warm regroup allocates
// nothing.
func (g *Grid) regroup() {
	for c := range g.cells {
		g.cells[c].objects = g.cells[c].objects[:0]
	}
	g.nonEmpty = 0
	for id, ok := range g.alive {
		if ok {
			g.addObject(g.cellOf[id], model.ObjectID(id))
		}
	}
}

// Insert adds a new object at p, clamped onto the workspace (see Clamp).
// Inserting an id that is already live is an error in the update stream and
// is reported rather than silently merged.
func (g *Grid) Insert(id model.ObjectID, p geom.Point) error {
	g.assertWritable()
	_, err := g.insert(id, g.Clamp(p), true)
	return err
}

// Delete removes a live object. Deleting an unknown or dead object is
// reported: the monitoring methods rely on the stream being consistent.
func (g *Grid) Delete(id model.ObjectID) error {
	g.assertWritable()
	_, _, err := g.remove(id, true)
	return err
}

// Move relocates a live object to p (clamped onto the workspace, see
// Clamp) and returns the old and new cells. When both are the same cell
// only the stored position changes.
func (g *Grid) Move(id model.ObjectID, p geom.Point) (oldCell, newCell CellIndex, err error) {
	g.assertWritable()
	return g.move(id, g.Clamp(p), true)
}

// insert, remove and move are the mutators behind Insert, Delete and Move
// and behind ApplyWatched, which has opened the write window and clamped the
// point already: p must lie on the workspace. Each updates the id-indexed
// store, locates a cell once and hands it back for the write log. With
// relocate set it also relocates the id between cell lists; without, the
// lists go stale until the caller regroups.

func (g *Grid) insert(id model.ObjectID, p geom.Point, relocate bool) (CellIndex, error) {
	if id < 0 {
		return NoCell, ErrNegativeID
	}
	g.ensureID(id)
	if g.alive[id] {
		return NoCell, ErrLiveObject
	}
	c := g.CellOf(p)
	g.alive[id] = true
	g.positions[id] = p
	g.cellOf[id] = c
	if relocate {
		g.addObject(c, id)
	}
	g.count++
	return c, nil
}

func (g *Grid) remove(id model.ObjectID, relocate bool) (geom.Point, CellIndex, error) {
	if !g.Alive(id) {
		return geom.Point{}, NoCell, ErrUnknownObject
	}
	c := g.cellOf[id]
	if relocate {
		g.removeObject(c, id)
	}
	g.alive[id] = false
	g.count--
	return g.positions[id], c, nil
}

func (g *Grid) move(id model.ObjectID, p geom.Point, relocate bool) (oldCell, newCell CellIndex, err error) {
	if !g.Alive(id) {
		return NoCell, NoCell, ErrUnknownObject
	}
	oldCell = g.cellOf[id]
	newCell = g.CellOf(p)
	g.positions[id] = p
	if oldCell != newCell {
		g.cellOf[id] = newCell
		if relocate {
			g.removeObject(oldCell, id)
			g.addObject(newCell, id)
		}
	}
	return oldCell, newCell, nil
}

// Position returns the current location of a live object.
func (g *Grid) Position(id model.ObjectID) (geom.Point, bool) {
	g.assertStable()
	if id < 0 || int(id) >= len(g.alive) || !g.alive[id] {
		return geom.Point{}, false
	}
	return g.positions[id], true
}

// Pos returns the location of id without a liveness check — the fast path
// for ids just read from a cell's object list, which are live by invariant.
func (g *Grid) Pos(id model.ObjectID) geom.Point {
	g.assertStable()
	return g.positions[id]
}

// Alive reports whether id is a live object.
func (g *Grid) Alive(id model.ObjectID) bool {
	return id >= 0 && int(id) < len(g.alive) && g.alive[id]
}

// Len returns the number of objects in cell c without counting an access.
func (g *Grid) Len(c CellIndex) int {
	return len(g.cells[c].objects)
}

// Objects returns cell c's object list as a borrowed slice WITHOUT touching
// the grid's cell-access counter. Engines reading a shared grid use this and
// count the access in their own Stats instead: the grid counter is not
// synchronized, so concurrent shards bumping it would race (and the merged
// count would double-charge a cell both shards scanned). The slice is owned
// by the grid: callers must not mutate or retain it, and any grid mutation
// invalidates it. Iterating it allocates nothing.
func (g *Grid) Objects(c CellIndex) []model.ObjectID {
	g.assertStable()
	return g.cells[c].objects
}

// ScanObjects invokes fn for every object in cell c and counts one cell
// access. Monitoring methods read cell contents through this method, or
// through Objects while counting the access themselves (core's engines), so
// access counts compare fairly. fn must not mutate the cell's object set.
func (g *Grid) ScanObjects(c CellIndex, fn func(id model.ObjectID, p geom.Point)) {
	g.assertStable()
	g.cellAccesses++
	for _, id := range g.cells[c].objects {
		fn(id, g.positions[id])
	}
}

// ForEachObject iterates over all live objects (no access accounting); the
// brute-force oracle and the harness use it.
func (g *Grid) ForEachObject(fn func(id model.ObjectID, p geom.Point)) {
	g.assertStable()
	for id, ok := range g.alive {
		if ok {
			fn(model.ObjectID(id), g.positions[id])
		}
	}
}

// CellAccesses returns the cumulative cell-access counter.
func (g *Grid) CellAccesses() int64 { return g.cellAccesses }
