package core

import (
	"fmt"
	"math"
	"slices"

	"cpm/internal/geom"
	"cpm/internal/grid"
	"cpm/internal/model"
)

// Continuous range monitoring on the CPM substrate.
//
// The paper's related work (Q-index, MQM, Mobieyes, SINA — Section 2) is
// entirely about continuous *range* queries; CPM's machinery subsumes them
// naturally: a range query's influence region is simply the cells
// intersecting the disk (center, radius) — fixed while the query stands
// still — and its result is maintained purely from the updates routed
// through the influence lists. No search ever needs to resume: membership
// is decided per object by one distance comparison, so range monitoring
// needs no search heap, and of a visit list only the cells.

// A range query lives in the same query table as the k-NN queries (see the
// query struct): its handle carries rangeBit, its center is def.Points[0],
// and its visit list is just the disk cover, all of it influence prefix.

// RegisterRange installs a continuous range query: it continuously reports
// every object within radius of center.
func (e *Engine) RegisterRange(id model.QueryID, center geom.Point, radius float64) error {
	if err := ValidateRange(center, radius); err != nil {
		return err
	}
	if _, exists := e.ids[id]; exists {
		return fmt.Errorf("core: query %d already installed", id)
	}
	qu := e.arm(id, rangeBit, Def{Points: []geom.Point{center}})
	qu.radius = radius
	if qu.members == nil {
		qu.members = make(map[model.ObjectID]float64)
	}
	e.install(qu)
	return nil
}

// ValidateRange is the register-time rule of a range query, as
// Def.Validate is of a k-NN query: a finite center and a finite,
// non-negative radius. internal/cluster's definition mirror applies both,
// so a coordinator refuses exactly the registrations a worker refuses.
func ValidateRange(center geom.Point, radius float64) error {
	if radius < 0 || math.IsNaN(radius) || math.IsInf(radius, 0) {
		return fmt.Errorf("core: invalid range radius %v", radius)
	}
	if !center.Finite() {
		return fmt.Errorf("core: non-finite range center %v", center)
	}
	return nil
}

// evaluateRange computes the result from scratch and makes the disk cover
// the influence prefix.
func (e *Engine) evaluateRange(qu *query) {
	e.stats.FullSearches++
	clear(qu.members)
	e.coverRange(qu)
	center := qu.def.Points[0]
	for _, ve := range qu.visit {
		objs := e.g.Objects(ve.cell)
		e.stats.CellAccesses++
		e.stats.ObjectsProcessed += int64(len(objs))
		for _, id := range objs {
			if d := geom.Dist(e.g.Pos(id), center); d <= qu.radius {
				qu.members[id] = d
			}
		}
	}
}

// coverRange makes the query's disk cover, on the grid as it is now, its
// visit list and influence prefix. The query is pending (evaluate and
// Reindex queue it), so installPending writes the entries.
func (e *Engine) coverRange(qu *query) {
	e.g.CellsInCircle(qu.def.Points[0], qu.radius, func(c grid.CellIndex) {
		qu.visit = append(qu.visit, visitEntry{cell: c})
	})
	qu.influenceEnd = len(qu.visit)
}

// MoveRange relocates a continuous range query. Like a moving k-NN query
// (Section 3.3), the move is a termination plus a fresh installation.
func (e *Engine) MoveRange(id model.QueryID, center geom.Point) error {
	return e.moveNoted(id, rangeBit, []geom.Point{center})
}

// foldRange folds one object event into a range query whose influence
// lists routed it here: membership is one distance comparison.
func (qu *query) foldRange(id model.ObjectID, pos geom.Point) {
	if d := geom.Dist(pos, qu.def.Points[0]); d <= qu.radius {
		qu.members[id] = d
	} else {
		delete(qu.members, id)
	}
}

// IsRange reports whether id names an installed range query.
func (e *Engine) IsRange(id model.QueryID) bool { return e.lookup(id, rangeBit) != nil }

// RangeResult returns the current members of a range query ordered by
// (distance, id), or nil for unknown ids. The caller owns the slice.
func (e *Engine) RangeResult(id model.QueryID) []model.Neighbor {
	qu := e.lookup(id, rangeBit)
	if qu == nil {
		return nil
	}
	return appendRangeResult(make([]model.Neighbor, 0, len(qu.members)), qu)
}

// appendRangeResult appends qu's members to buf ordered by (distance, id)
// and returns the extended slice. slices.SortFunc keeps the pass
// allocation-free, so per-cycle change detection can run it on a pooled
// scratch buffer.
func appendRangeResult(buf []model.Neighbor, qu *query) []model.Neighbor {
	start := len(buf)
	for oid, d := range qu.members {
		buf = append(buf, model.Neighbor{ID: oid, Dist: d})
	}
	slices.SortFunc(buf[start:], func(a, b model.Neighbor) int {
		if a.Less(b) {
			return -1
		}
		if b.Less(a) {
			return 1
		}
		return 0
	})
	return buf
}
