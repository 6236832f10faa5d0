package core

// Online grid rebalancing — the engine half of resizing δ at runtime.
//
// The paper picks the cell side δ once, from the cost model of Section 4
// evaluated at the *initial* object density. A drifting population (hotspot
// formation, churn) moves the density away from that optimum and the frozen
// grid degrades toward one of the two bad extremes the model analyzes: cells
// too coarse (every scan wades through huge object lists) or too fine
// (searches touch thousands of near-empty cells). The sharded monitor's
// Rebalance re-partitions the same workspace into a new cell count while
// monitoring keeps running: it rebuilds the shared grid once and calls
// Reindex on every engine.
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
// state the install step builds, by the same replay, for a query searched
// from scratch — so all later update handling and re-computation proceeds
// unchanged. Range queries just re-enumerate their disk cover. The
// cell-access and objects-processed counters do not move — no object list
// is ever scanned — while heap operations count as in any search; both stay
// exactly partitionable across shards (all reindex work is per-query), so
// the sharded monitor's summed stats keep matching one shard's.

// Reindex rebuilds every query's book-keeping against the grid's current
// geometry — the engine half of a resize, runnable in parallel across the
// engines of a shared grid (all reindex work is per-query and scans no
// objects). The influence index is reset wholesale first, which leaves
// every query pending until the rebuilt prefixes are installed at the end;
// a query that owed its book-keeping owes it no more.
func (e *Engine) Reindex() {
	e.infl.Reset(e.g.Size() * e.g.Size())
	for _, qu := range e.ids {
		e.queue(qu)
		if qu.h&rangeBit != 0 {
			// A range query just re-enumerates its disk cover on the new
			// grid: membership is δ-independent.
			qu.visit = qu.visit[:0]
			e.coverRange(qu)
		} else {
			e.reindexQuery(qu)
		}
	}
	e.installPending()
}

// reindexQuery rebuilds a k-NN query's search book-keeping (visit list,
// influence prefix, leftover heap) from its exact result, on the grid's
// geometry as it is now, without writing the index: the query is pending.
// It is the one place that builds a query's book-keeping from nothing —
// Reindex runs it after a resize, installPending for a query that a search
// from scratch left owing it (compute) — and it counts no cell access
// (installPending counts the cells it adds to a search's). It runs the
// conceptual-partitioning traversal of a search, bounded by the query's
// best_dist, but never scans a cell's objects: the result is already
// exact. Which cells hold objects does not matter to it, only the geometry.
//
// Cells with key <= best_dist are admitted to the influence prefix
// (inclusive, where a live search stops strictly below): an object at
// distance exactly best_dist can be a result member whose cell's mindist
// equals best_dist, and its update must keep routing to the query. The
// prefix is therefore a superset of a search's — it differs only on a
// cell whose key equals best_dist — and harmless, since influence routing
// is filtered by distance again at scan time.
func (e *Engine) reindexQuery(qu *query) {
	qu.visit, qu.ordered = qu.visit[:0], 0
	qu.resetSearch()
	qu.owes = false

	part := e.partitionFor(qu.def)
	e.seedHeap(qu, &part, replay)
	e.traverse(qu, &part, replay)
	qu.influenceEnd = len(qu.visit)
	if e.opts.DropBookkeeping {
		// Memory-pressure mode stores no search state beyond the influence
		// prefix.
		qu.resetSearch()
	}
}
