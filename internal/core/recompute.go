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
// mindist evaluations and the heap traffic — the benefit quantified by
// internal/bench's ablation.recompute table.
//
// In DropBookkeeping mode the stored state does not exist, so the paper's
// fallback applies: compute from scratch, which leaves the query pending
// and owing its book-keeping like a moved one.
func (e *Engine) recompute(qu *query) {
	if e.opts.DropBookkeeping {
		e.evaluate(qu)
		return
	}
	e.stats.Recomputations++
	e.orderVisit(qu)
	qu.best.reset()

	// Replay the visit list (Figure 3.6 lines 2–6). The query keeps its
	// influence prefix until finishSearch moves it, so replayed cells
	// beyond it — trimmed by earlier shrinks but needed again by the
	// necessarily larger new best_dist — get their entries there.
	processed := 0
	for processed < len(qu.visit) {
		ve := qu.visit[processed]
		if ve.key >= qu.best.kthDist() {
			break
		}
		e.scanCell(qu, ve.cell)
		processed++
	}

	if processed == len(qu.visit) {
		// The whole stored prefix was consumed; continue with the leftover
		// heap (Figure 3.6 lines 7–8). Popped and joining parked cells
		// append to the visit list, extending it for future replays.
		part := e.partitionFor(qu.def)
		e.traverse(qu, &part, resume)
		processed = len(qu.visit)
	}

	e.finishSearch(qu, processed)
}

// shrinkInfluence updates the influence prefix after result maintenance
// that can only tighten best_dist (the |I| ≥ |O| short-circuit of Figure
// 3.8, line 22): entries between the new and the old best_dist are removed
// from their cells' influence lists.
func (e *Engine) shrinkInfluence(qu *query) {
	e.orderVisit(qu)
	oldEnd := qu.influenceEnd
	e.setInfluenceEnd(qu, min(firstGreater(qu.visit, qu.best.kthDist()), oldEnd))
	e.assertSearchState(qu, oldEnd)
}
