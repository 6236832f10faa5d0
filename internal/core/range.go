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
// needs neither a visit list nor a search heap.

// rangeQuery is the query-table entry of a continuous range query.
type rangeQuery struct {
	id     model.QueryID
	center geom.Point
	radius float64

	// group is the scan group holding this query's influence entries
	// (see query.group).
	group int32

	// members is the current result (object -> distance). Membership needs
	// O(1) keyed update from rangeScan, and unlike the grid's cell sets it
	// is only iterated when this query's result actually changed, so a map
	// stays the right structure here (see README "Design notes").
	members map[model.ObjectID]float64
	cells   []grid.CellIndex // influence cells (disk cover)

	reported    []model.Neighbor // result as last exposed through ChangedQueries
	pend        diffMark         // the query's pending diff event, if any
	cycleMark   int64            // dedupe marker for the per-cycle touch list
	changedMark int64            // dedupe marker for the notification set
	ignoreMark  int64            // == Engine.batchGen when updated this batch
}

// RegisterRange installs a continuous range query: it continuously reports
// every object within radius of center.
func (e *Engine) RegisterRange(id model.QueryID, center geom.Point, radius float64) error {
	if radius < 0 || math.IsNaN(radius) || math.IsInf(radius, 0) {
		return fmt.Errorf("core: invalid range radius %v", radius)
	}
	if !finitePoint(center) {
		return fmt.Errorf("core: non-finite range center %v", center)
	}
	if _, exists := e.queries[id]; exists {
		return fmt.Errorf("core: query %d already installed", id)
	}
	if _, exists := e.ranges[id]; exists {
		return fmt.Errorf("core: query %d already installed", id)
	}
	rq := &rangeQuery{
		id:      id,
		center:  center,
		radius:  radius,
		group:   e.groupOf(e.g.CellOf(center)),
		members: make(map[model.ObjectID]float64),
	}
	e.ranges[id] = rq
	e.evaluateRange(rq)
	rq.reported = e.RangeResult(id)
	e.markChanged(id, &rq.changedMark)
	e.noteInstalled(id, &rq.pend, rq.reported)
	return nil
}

// evaluateRange computes the result from scratch and installs the
// influence entries for the disk cover. The adds are unchecked: the query
// holds no influence entries on entry (fresh registration, or clearRange
// ran) and CellsInCircle enumerates distinct cells.
func (e *Engine) evaluateRange(rq *rangeQuery) {
	e.stats.FullSearches++
	infl := e.infls[rq.group]
	e.g.CellsInCircle(rq.center, rq.radius, func(c grid.CellIndex) {
		infl.AddUnchecked(c, rq.id)
		rq.cells = append(rq.cells, c)
		objs := e.g.Objects(c)
		e.stats.CellAccesses++
		e.stats.ObjectsProcessed += int64(len(objs))
		for _, id := range objs {
			if d := geom.Dist(e.g.Pos(id), rq.center); d <= rq.radius {
				rq.members[id] = d
			}
		}
	})
}

// clearRange removes the query's influence entries and result.
func (e *Engine) clearRange(rq *rangeQuery) {
	infl := e.infls[rq.group]
	for _, c := range rq.cells {
		infl.Remove(c, rq.id)
	}
	rq.cells = rq.cells[:0]
	clear(rq.members)
}

// MoveRange relocates a continuous range query. Like a moving k-NN query
// (Section 3.3), the move is a termination plus a fresh installation.
func (e *Engine) MoveRange(id model.QueryID, center geom.Point) error {
	rq, ok := e.ranges[id]
	if !ok {
		return fmt.Errorf("core: move of unknown range query %d", id)
	}
	err := e.moveRange(rq, center)
	if err == nil {
		e.noteRangeIfChanged(rq)
	}
	return err
}

// moveRange is MoveRange without the notification step (see moveQuery).
func (e *Engine) moveRange(rq *rangeQuery, center geom.Point) error {
	if !finitePoint(center) {
		return fmt.Errorf("core: non-finite range center %v", center)
	}
	e.clearRange(rq)
	rq.center = center
	rq.group = e.groupOf(e.g.CellOf(center))
	e.evaluateRange(rq)
	return nil
}

// rangeScan folds one object event into every range query whose influence
// lists route it here. present is false for deletes; the influence list is
// iterated as a borrowed slice (membership updates never touch it). infl is
// the scan group's index, so concurrent groups only ever touch their own
// range queries.
func (e *Engine) rangeScan(infl *grid.Influence, c grid.CellIndex, id model.ObjectID, pos geom.Point, present bool) {
	for _, qid := range infl.List(c) {
		rq, ok := e.ranges[qid]
		if !ok || rq.ignoreMark == e.batchGen {
			continue
		}
		if rq.cycleMark != e.cycle {
			rq.cycleMark = e.cycle
			e.dirtyRanges[rq.group] = append(e.dirtyRanges[rq.group], rq)
		}
		if !present {
			delete(rq.members, id)
			continue
		}
		if d := geom.Dist(pos, rq.center); d <= rq.radius {
			rq.members[id] = d
		} else {
			delete(rq.members, id)
		}
	}
}

// IsRange reports whether id names an installed range query.
func (e *Engine) IsRange(id model.QueryID) bool {
	_, ok := e.ranges[id]
	return ok
}

// RangeResult returns the current members of a range query ordered by
// (distance, id), or nil for unknown ids. The caller owns the slice.
func (e *Engine) RangeResult(id model.QueryID) []model.Neighbor {
	rq, ok := e.ranges[id]
	if !ok {
		return nil
	}
	return appendRangeResult(make([]model.Neighbor, 0, len(rq.members)), rq)
}

// appendRangeResult appends rq's members to buf ordered by (distance, id)
// and returns the extended slice. slices.SortFunc keeps the pass
// allocation-free, so per-cycle change detection can run it on a pooled
// scratch buffer.
func appendRangeResult(buf []model.Neighbor, rq *rangeQuery) []model.Neighbor {
	start := len(buf)
	for oid, d := range rq.members {
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

func finitePoint(p geom.Point) bool {
	return !math.IsNaN(p.X) && !math.IsNaN(p.Y) && !math.IsInf(p.X, 0) && !math.IsInf(p.Y, 0)
}
