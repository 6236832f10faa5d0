package core

import (
	"cpm/internal/conc"
	"cpm/internal/geom"
	"cpm/internal/grid"
)

// compute is the NN Computation module (paper Figure 3.4), extended to
// aggregate and constrained queries (Section 5). It computes the query's
// result from scratch, rebuilding the visit list, the leftover search heap
// and the influence-list entries.
//
// The search visits cells in ascending key order — key being mindist(c,q)
// for point queries and amindist(c,Q) for aggregate ones — which makes the
// set of processed cells minimal: exactly the cells that could contain a
// result object must be, and are, examined. Ascending order is guaranteed
// because every heap insertion carries a key no smaller than the entry that
// produced it: cells of a strip have mindist ≥ the strip's mindist, and the
// next-level strip adds δ (Lemma 3.1).
func (e *Engine) compute(qu *query) {
	e.stats.FullSearches++
	// Self-contained restart: drop any previous book-keeping first so no
	// stale influence entry can outlive the search that replaces it.
	e.clearInfluence(qu)
	qu.best.reset()

	part := e.partitionFor(qu.def)
	e.seedHeap(qu, part)
	e.runSearch(qu, part)
	e.finishSearch(qu, len(qu.visit), 0)

	if e.opts.DropBookkeeping {
		// Memory-pressure mode (end of Section 3.3): discard the search
		// state, keeping only the influence prefix that update handling
		// needs for notification and shrinking.
		qu.visit = qu.visit[:qu.influenceEnd]
		qu.heap.Reset()
	}
}

// seedHeap performs lines 3–5 of Figure 3.4: en-heap the center block's
// cells (the single cell c_q, or every cell intersecting the MBR M for an
// aggregate query) and the level-zero strip of each direction.
func (e *Engine) seedHeap(qu *query, part conc.Partition) {
	b := part.Block()
	for row := b.RowLo; row <= b.RowHi; row++ {
		for col := b.ColLo; col <= b.ColHi; col++ {
			e.pushCell(qu, col, row)
		}
	}
	for _, dir := range conc.Dirs {
		e.pushStrip(qu, part, conc.Strip{Dir: dir, Level: 0})
	}
}

func (e *Engine) pushCell(qu *query, col, row int) {
	rect := e.g.CellRect(col, row)
	if qu.def.prunesRect(rect) {
		return
	}
	qu.heap.Push(qu.def.minDist(rect), cellPayload(e.g.Index(col, row)))
	e.stats.HeapOps++
}

// pushStrip en-heaps a conceptual rectangle if it still holds grid cells
// and, for constrained queries, if its direction can still reach the
// constraint region. The strip's key is the mindist of its full
// (unclamped) extent — a lower bound for every cell inside it, so search
// correctness is preserved at the workspace border.
func (e *Engine) pushStrip(qu *query, part conc.Partition, s conc.Strip) {
	if !part.InGrid(s) {
		return
	}
	rect := part.Rect(s)
	if qu.def.Constraint != nil && !stripCanReach(s.Dir, rect, *qu.def.Constraint) {
		return
	}
	qu.heap.Push(qu.def.minDist(rect), stripPayload(s))
	e.stats.HeapOps++
}

// stripCanReach reports whether strip rect, or any higher level of the same
// direction, can intersect the constraint region. Levels move the strip
// monotonically away from the block along its fixed axis while widening
// along the other, so only the fixed axis can rule a direction out for
// good.
func stripCanReach(dir conc.Dir, rect, constraint geom.Rect) bool {
	switch dir {
	case conc.Up:
		return rect.Lo.Y <= constraint.Hi.Y
	case conc.Down:
		return rect.Hi.Y >= constraint.Lo.Y
	case conc.Left:
		return rect.Hi.X >= constraint.Lo.X
	case conc.Right:
		return rect.Lo.X <= constraint.Hi.X
	default:
		return true
	}
}

// runSearch is the de-heaping loop shared by computation (Figure 3.4 lines
// 7–17) and the heap-continuation phase of re-computation (Figure 3.6 line
// 8). It stops — leaving the heap intact for future re-computations — as
// soon as the next entry cannot improve the result.
func (e *Engine) runSearch(qu *query, part conc.Partition) {
	for {
		top, ok := qu.heap.Min()
		if !ok || top.Key >= qu.best.kthDist() {
			return
		}
		qu.heap.Pop()
		e.stats.HeapOps++
		if !isStrip(top.Payload) {
			c := payloadCell(top.Payload)
			e.scanCell(qu, c)
			qu.visit = append(qu.visit, visitEntry{cell: c, key: top.Key})
			continue
		}
		s := payloadStrip(top.Payload)
		part.Cells(s, func(col, row int) { e.pushCell(qu, col, row) })
		e.pushStrip(qu, part, conc.Strip{Dir: s.Dir, Level: s.Level + 1})
	}
}

// scanCell processes the objects of one cell against the query (Figure 3.4
// lines 10–11): each admissible object is offered to best_NN, and the query
// is recorded in the cell's influence list. The cell's object list is
// iterated as a borrowed slice — offering to best_NN never mutates the
// grid — so the scan allocates nothing. The influence add is unchecked:
// scanCell runs only for cells freshly de-heaped by a search, each of which
// enters the visit list exactly once while influence entries are always a
// prefix of that list, so the query cannot already be present.
func (e *Engine) scanCell(qu *query, c grid.CellIndex) {
	e.scanCellObjects(qu, c)
	e.infls[qu.group].AddUnchecked(c, qu.h)
}

// scanCellObjects is scanCell without the influence bookkeeping, for the
// re-computation replay, which knows per visit entry whether the influence
// entry already exists. The cell access is counted in the engine's own
// stats (not the grid's counter, which is unsynchronized on a shared grid).
func (e *Engine) scanCellObjects(qu *query, c grid.CellIndex) {
	def := &qu.def
	objs := e.g.Objects(c)
	e.stats.CellAccesses++
	e.stats.ObjectsProcessed += int64(len(objs))
	for _, id := range objs {
		p := e.g.Pos(id)
		if !def.admits(p) {
			continue
		}
		qu.best.offer(id, def.dist(p))
	}
}

// finishSearch trims influence-list entries down to the influence region:
// the prefix of the visit list with key ≤ best_dist. processedEnd is how
// many visit entries were scanned (and therefore carry influence entries)
// by the search that just ran; curInfluenceEnd is the previous influence
// prefix (entries that may still carry influence from before).
func (e *Engine) finishSearch(qu *query, processedEnd, curInfluenceEnd int) {
	newEnd := firstGreater(qu.visit, qu.best.kthDist())
	if newEnd > processedEnd {
		// Entries at exactly key == best_dist beyond the processed prefix
		// carry no influence entry; cap to what was actually scanned.
		newEnd = processedEnd
	}
	cur := processedEnd
	if curInfluenceEnd > cur {
		cur = curInfluenceEnd
	}
	infl := e.infls[qu.group]
	for i := newEnd; i < cur; i++ {
		infl.Remove(qu.visit[i].cell, qu.h)
	}
	qu.influenceEnd = newEnd
}

// firstGreater returns the index of the first visit entry with key
// strictly greater than limit (len(visit) when none is).
func firstGreater(visit []visitEntry, limit float64) int {
	lo, hi := 0, len(visit)
	for lo < hi {
		if mid := int(uint(lo+hi) >> 1); visit[mid].key > limit {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	return lo
}
