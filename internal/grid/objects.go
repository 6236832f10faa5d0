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

// ensureID grows the position store to cover id.
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

// Insert adds a new object at p, clamped onto the workspace (see Clamp).
// Inserting an id that is already live is an error in the update stream and
// is reported rather than silently merged.
func (g *Grid) Insert(id model.ObjectID, p geom.Point) error {
	g.assertWritable()
	_, err := g.insert(id, g.Clamp(p))
	return err
}

// Delete removes a live object. Deleting an unknown or dead object is
// reported: the monitoring methods rely on the stream being consistent.
func (g *Grid) Delete(id model.ObjectID) error {
	g.assertWritable()
	_, _, err := g.remove(id)
	return err
}

// Move relocates a live object to p (clamped onto the workspace, see
// Clamp) and returns the old and new cells. When both are the same cell
// only the stored position changes.
func (g *Grid) Move(id model.ObjectID, p geom.Point) (oldCell, newCell CellIndex, err error) {
	g.assertWritable()
	return g.move(id, g.Clamp(p))
}

// insert, remove and move are the mutators behind Insert, Delete and Move
// and behind ApplyBatch, which has opened the write window and clamped the
// point already: p must lie on the workspace. Each locates a cell once and
// hands it back for the write log.

func (g *Grid) insert(id model.ObjectID, p geom.Point) (CellIndex, error) {
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
	g.addObject(c, id)
	g.count++
	return c, nil
}

func (g *Grid) remove(id model.ObjectID) (geom.Point, CellIndex, error) {
	if !g.Alive(id) {
		return geom.Point{}, NoCell, ErrUnknownObject
	}
	p := g.positions[id]
	c := g.CellOf(p)
	g.removeObject(c, id)
	g.alive[id] = false
	g.count--
	return p, c, nil
}

func (g *Grid) move(id model.ObjectID, p geom.Point) (oldCell, newCell CellIndex, err error) {
	if !g.Alive(id) {
		return NoCell, NoCell, ErrUnknownObject
	}
	oldCell = g.CellOf(g.positions[id])
	newCell = g.CellOf(p)
	g.positions[id] = p
	if oldCell != newCell {
		g.removeObject(oldCell, id)
		g.addObject(newCell, id)
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

// CellObjects returns cell c's object list as a borrowed slice and counts
// one cell access — the unit reported in Figure 6.3b ("a cell visit
// corresponds to a complete scan over the object list in the cell"). The
// slice is owned by the grid: callers must not mutate or retain it, and any
// grid mutation invalidates it. Iterating it allocates nothing.
func (g *Grid) CellObjects(c CellIndex) []model.ObjectID {
	g.assertStable()
	g.cellAccesses++
	return g.cells[c].objects
}

// Objects returns cell c's object list as a borrowed slice WITHOUT touching
// the grid's cell-access counter. Engines reading a shared grid use this and
// count the access in their own Stats instead: the grid counter is not
// synchronized, so concurrent shards bumping it would race (and the merged
// count would double-charge a cell both shards scanned). Same ownership
// contract as CellObjects.
func (g *Grid) Objects(c CellIndex) []model.ObjectID {
	g.assertStable()
	return g.cells[c].objects
}

// ScanObjects invokes fn for every object in cell c and counts one cell
// access. All monitoring methods must read cell contents through this
// method or CellObjects so access counts compare fairly. fn must not mutate
// the cell's object set.
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

// AddInfluence records query q in the influence list of cell c
// (paper Figure 3.3b). Adding an existing entry is a no-op, checked by a
// linear scan; callers that can prove q is absent (the CPM engine tracks
// its influence prefix exactly) should use AddInfluenceUnchecked instead.
func (g *Grid) AddInfluence(c CellIndex, q model.QueryID) {
	cell := &g.cells[c]
	for _, have := range cell.influence {
		if have == q {
			return
		}
	}
	cell.influence = append(cell.influence, q)
}

// AddInfluenceUnchecked appends q to the influence list of c without the
// duplicate check — O(1) always, independent of how many queries influence
// the cell. The caller must guarantee q is not already present: a duplicate
// entry would make the scans route the same update to a query twice and
// leave a stale entry behind after removal.
func (g *Grid) AddInfluenceUnchecked(c CellIndex, q model.QueryID) {
	cell := &g.cells[c]
	cell.influence = append(cell.influence, q)
}

// RemoveInfluence removes query q from the influence list of cell c by
// swap-delete. Removing an absent entry is a no-op.
func (g *Grid) RemoveInfluence(c CellIndex, q model.QueryID) {
	infl := g.cells[c].influence
	for i, have := range infl {
		if have == q {
			last := len(infl) - 1
			infl[i] = infl[last]
			g.cells[c].influence = infl[:last]
			return
		}
	}
}

// HasInfluence reports whether q is in the influence list of c.
func (g *Grid) HasInfluence(c CellIndex, q model.QueryID) bool {
	for _, have := range g.cells[c].influence {
		if have == q {
			return true
		}
	}
	return false
}

// InfluenceLen returns the size of the influence list of c.
func (g *Grid) InfluenceLen(c CellIndex) int {
	return len(g.cells[c].influence)
}

// Influence returns the influence list of c as a borrowed slice. The slice
// is owned by the grid: callers must not mutate or retain it, and adding or
// removing influence entries on c invalidates it. Iterating it allocates
// nothing — this is the zero-allocation replacement for the map-backed
// influence iteration on the update-handling hot path.
func (g *Grid) Influence(c CellIndex) []model.QueryID {
	return g.cells[c].influence
}

// ForEachInfluence invokes fn for every query in the influence list of c.
// fn must not mutate the influence list of c.
func (g *Grid) ForEachInfluence(c CellIndex, fn func(q model.QueryID)) {
	for _, q := range g.cells[c].influence {
		fn(q)
	}
}

// AppendInfluenceQueries appends the influence list of c to buf and returns
// the extended slice — a stable snapshot for callers that cannot honor the
// no-mutation contract of the borrowed-slice Influence accessor (the engine
// itself iterates via Influence; its scans never mutate influence lists).
// The caller owns buf, so a reused buffer makes the snapshot
// allocation-free once warm.
func (g *Grid) AppendInfluenceQueries(buf []model.QueryID, c CellIndex) []model.QueryID {
	return append(buf, g.cells[c].influence...)
}
