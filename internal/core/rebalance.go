package core

import "cpm/internal/conc"

// Online grid rebalancing — the engine half of resizing δ at runtime.
//
// The paper picks the cell side δ once, from the cost model of Section 4
// evaluated at the *initial* object density. A drifting population (hotspot
// formation, churn) moves the density away from that optimum and the frozen
// grid degrades toward one of the two bad extremes the model analyzes: cells
// too coarse (every scan wades through huge object lists) or too fine
// (searches touch thousands of near-empty cells). Rebalance re-partitions
// the same workspace into a new cell count while the monitor keeps running.
//
// The key observation making this cheap: query RESULTS are δ-independent —
// the k nearest neighbors of a point do not care how the space is bucketed —
// so a resize only has to rebuild the index-resolution book-keeping (cell
// object lists, influence lists, visit lists, leftover heaps), never
// recompute an answer. Concretely, for every installed k-NN query the
// traversal of the conceptual partitioning is replayed on the new grid up to
// the query's current best_dist, WITHOUT scanning a single object: the cells
// popped below best_dist become the new visit list / influence prefix, and
// the heap is left holding exactly the frontier a search stopped at — the
// same shape of state a fresh computation would maintain, so all later
// update handling and re-computation proceeds unchanged. Range queries just
// re-enumerate their disk cover. The cell-access and objects-processed
// counters do not move — no object list is ever scanned — while heap
// operations count as in any search; both stay exactly partitionable across
// shards (all reindex work is per-query), so the sharded monitor's summed
// stats keep matching a single engine's.

// Rebalance re-partitions the grid into newSize×newSize cells and
// reinstalls every installed query's book-keeping on the new geometry,
// leaving every result — and therefore the reported snapshots and the diff
// stream — untouched. A no-op when newSize equals the current size. It must
// be called between processing cycles (same single-caller contract as
// ProcessBatch). On a shared grid the monitor owns the resize: it rebuilds
// the grid once and calls Reindex on every engine.
func (e *Engine) Rebalance(newSize int) {
	if newSize == e.g.Size() {
		return
	}
	if !e.ownsGrid {
		panic("core: Rebalance on a shared-grid engine (the monitor owns the grid)")
	}
	e.g.Rebuild(newSize)
	e.Reindex()
}

// Reindex rebuilds every installed query's book-keeping against the grid's
// current geometry — the engine half of a resize, runnable in parallel
// across the engines of a shared grid (all reindex work is per-query and
// scans no objects). The influence indexes are reset wholesale first; scan
// groups are re-derived because the home-cell → group mapping depends on
// the cell count.
func (e *Engine) Reindex() {
	e.rebalances++
	cellCount := e.g.Size() * e.g.Size()
	for _, infl := range e.infls {
		infl.Reset(cellCount)
	}
	for _, qu := range e.ids {
		qu.group = e.homeGroup(qu.def.Points)
		qu.visit = qu.visit[:0]
		if qu.h&rangeBit != 0 {
			// A range query just re-enumerates its disk cover on the new
			// grid: membership is δ-independent.
			e.coverRange(qu)
		} else {
			e.reindexQuery(qu)
		}
	}
}

// Rebalances returns how many grid resizes this engine has performed.
func (e *Engine) Rebalances() int64 { return e.rebalances }

// GridSize returns the current number of cells per dimension — a runtime
// property once rebalancing is on.
func (e *Engine) GridSize() int { return e.g.Size() }

// reindexQuery rebuilds a k-NN query's search book-keeping (visit list,
// influence entries, leftover heap) on the freshly rebuilt grid without
// touching its result. It runs the same conceptual-partitioning traversal
// as a search, bounded by the query's current best_dist, but never scans a
// cell's objects: the result is already exact.
//
// Cells with key <= best_dist are admitted to the influence prefix
// (inclusive, where a live search stops strictly below): an object at
// distance exactly best_dist can be a result member whose cell's mindist
// equals best_dist, and its update must keep routing to the query. The
// prefix is therefore a superset of a fresh search's — harmless, since
// influence routing is filtered by distance again at scan time.
func (e *Engine) reindexQuery(qu *query) {
	// The old geometry's influence entries died with the wholesale
	// Influence.Reset in Reindex, which emptied the visit list too.
	qu.heap.Reset()

	part := e.partitionFor(qu.def)
	e.seedHeap(qu, part)
	bound := qu.best.kthDist()
	infl := e.infls[qu.group]
	for {
		top, ok := qu.heap.Min()
		if !ok || top.Key > bound {
			break
		}
		qu.heap.Pop()
		e.stats.HeapOps++
		if !isStrip(top.Payload) {
			c := payloadCell(top.Payload)
			infl.AddUnchecked(c, qu.h)
			qu.visit = append(qu.visit, visitEntry{cell: c, key: top.Key})
			continue
		}
		s := payloadStrip(top.Payload)
		part.Cells(s, func(col, row int) { e.pushCell(qu, col, row) })
		e.pushStrip(qu, part, conc.Strip{Dir: s.Dir, Level: s.Level + 1})
	}
	qu.influenceEnd = len(qu.visit)
	if e.opts.DropBookkeeping {
		// Memory-pressure mode stores no search state beyond the influence
		// prefix; match compute's post-search truncation.
		qu.heap.Reset()
	}
}
