//go:build race || cpmassert

package core

import (
	"fmt"

	"cpm/internal/grid"
)

// Freed-slot, search-state and installed-index guards, compiled in under
// -race and the cpmassert tag like the grid's epoch guards; the release
// build pays nothing (guard_off.go).

// assertUnnamed panics if any influence list or touched list still names
// the slot RemoveQuery is about to park: the next tenant would receive the
// old one's updates.
func (e *Engine) assertUnnamed(qu *query) {
	for c := range grid.CellIndex(e.g.Size() * e.g.Size()) {
		for _, h := range e.infl.List(c) {
			if h>>1 == qu.h>>1 {
				panic(fmt.Sprintf("core: freed slot %d of query %d still on the influence list of cell %d", h>>1, qu.id, c))
			}
		}
	}
	for _, d := range e.touched {
		if d == qu {
			panic(fmt.Sprintf("core: freed slot %d of query %d still on the touched list", qu.h>>1, qu.id))
		}
	}
}

// assertSearchState panics unless a k-NN query's visit list and influence
// prefix are what finishSearch or shrinkInfluence must leave: the ordered
// prefix ascending by key, the unordered tail's keys no smaller
// than the prefix's and within best_dist, and influenceEnd the number of
// entries with key ≤ best_dist — firstGreater over the list once ordered —
// capped by processedEnd, the entries the search scanned.
func (e *Engine) assertSearchState(qu *query, processedEnd int) {
	bound := qu.best.kthDist()
	within := 0
	for i, ve := range qu.visit {
		if ve.key <= bound {
			within++
		}
		switch {
		case i == 0:
		case i < qu.ordered && ve.key < qu.visit[i-1].key:
			panic(fmt.Sprintf("core: query %d visit list out of order at %d: %+v after %+v", qu.id, i, ve, qu.visit[i-1]))
		case i >= qu.ordered && qu.ordered > 0 && ve.key < qu.visit[qu.ordered-1].key:
			panic(fmt.Sprintf("core: query %d unordered visit entry %+v below the ordered prefix's last key %v", qu.id, ve, qu.visit[qu.ordered-1].key))
		}
		if i >= qu.ordered && ve.key > bound {
			panic(fmt.Sprintf("core: query %d unordered visit entry %+v beyond best_dist %v", qu.id, ve, bound))
		}
	}
	if want := min(within, processedEnd); qu.influenceEnd != want {
		panic(fmt.Sprintf("core: query %d influence prefix ends at %d, want %d (%d entries within best_dist %v, %d processed)",
			qu.id, qu.influenceEnd, want, within, bound, processedEnd))
	}
}

// assertInstalled panics unless the index is what installPending must
// leave: every installed query's influence prefix cells carry its entry,
// the index holds no other entry — Σ installed prefixes equals
// Influence.Entries, so no pending or parked slot is named — and a query
// is still pending only if the open cycle rebuilds or removes it.
func (e *Engine) assertInstalled() {
	var installed int64
	for _, qu := range e.ids {
		if qu.pending {
			if qu.ignoreMark != e.batchGen {
				panic(fmt.Sprintf("core: query %d still pending after the install step of a cycle that keeps it", qu.id))
			}
			continue
		}
		for _, ve := range qu.visit[:qu.influenceEnd] {
			if !e.infl.Has(ve.cell, qu.h) {
				panic(fmt.Sprintf("core: installed query %d lacks its influence entry on cell %d", qu.id, ve.cell))
			}
		}
		installed += int64(qu.influenceEnd)
	}
	if n := e.infl.Entries(); n != installed {
		panic(fmt.Sprintf("core: influence index holds %d entries, the installed prefixes %d", n, installed))
	}
}
