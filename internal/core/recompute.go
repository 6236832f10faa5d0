package core

// recompute is the NN Re-Computation module (paper Figure 3.6): it rebuilds
// the result of an affected query — one whose outgoing NNs outnumber its
// incoming objects — re-using the book-keeping stored in the query table.
//
// The stored visit list is sorted by key (orderVisit finishes the sort a
// search may have left pending), so it is replayed with
// O(1) "get next" operations and no mindist computations; only if the
// replay exhausts the list does the search fall through to the leftover
// heap (Figure 3.6 lines 7–8), which resumes exactly where the original
// search stopped. Compared to computation from scratch this saves both the
// mindist evaluations and the heap traffic — the benefit quantified by the
// ablation benchmark X1 (DESIGN.md).
//
// In DropBookkeeping mode the stored state does not exist, so the paper's
// fallback applies: compute from scratch.
func (e *Engine) recompute(qu *query) {
	if e.opts.DropBookkeeping {
		e.compute(qu)
		return
	}
	e.stats.Recomputations++
	e.orderVisit(qu)

	oldInfluenceEnd := qu.influenceEnd
	qu.best.reset()

	// Replay the visit list (Figure 3.6 lines 2–6). Influence entries are
	// exactly the visit prefix [0, influenceEnd) — finishSearch and
	// shrinkInfluence maintain that invariant — so replayed cells inside
	// the prefix already carry their entry, and cells beyond it (trimmed by
	// earlier shrinks but needed again by the necessarily larger new
	// best_dist) get an unchecked O(1) append.
	processed := 0
	for processed < len(qu.visit) {
		ve := qu.visit[processed]
		if ve.key >= qu.best.kthDist() {
			break
		}
		e.scanCellObjects(qu, ve.cell)
		if processed >= oldInfluenceEnd {
			e.infl.AddUnchecked(ve.cell, qu.h)
		}
		processed++
	}

	if processed == len(qu.visit) {
		// The whole stored prefix was consumed; continue with the leftover
		// heap (Figure 3.6 lines 7–8). Popped and joining parked cells
		// append to the visit list, extending it for future replays.
		part := e.partitionFor(qu.def)
		e.traverse(qu, &part, true)
		processed = len(qu.visit)
	}

	e.finishSearch(qu, processed, oldInfluenceEnd)
}

// shrinkInfluence updates the influence prefix after result maintenance
// that can only tighten best_dist (the |I| ≥ |O| short-circuit of Figure
// 3.8, line 22): entries between the new and the old best_dist are removed
// from their cells' influence lists.
func (e *Engine) shrinkInfluence(qu *query) {
	e.orderVisit(qu)
	oldEnd := qu.influenceEnd
	newEnd := min(firstGreater(qu.visit, qu.best.kthDist()), oldEnd)
	for i := newEnd; i < oldEnd; i++ {
		e.infl.Remove(qu.visit[i].cell, qu.h)
	}
	qu.influenceEnd = newEnd
	e.assertSearchState(qu, oldEnd)
}
