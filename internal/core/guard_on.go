//go:build race || cpmassert

package core

import (
	"fmt"

	"cpm/internal/grid"
)

// Freed-slot guard, compiled in under -race and the cpmassert tag like the
// grid's epoch guards; the release build pays nothing (guard_off.go).

// assertUnnamed panics if any influence list or touched list still names
// the slot RemoveQuery is about to park: the next tenant would receive the
// old one's updates.
func (e *Engine) assertUnnamed(qu *query) {
	for w, infl := range e.infls {
		for c := range grid.CellIndex(e.g.Size() * e.g.Size()) {
			for _, h := range infl.List(c) {
				if h>>1 == qu.h>>1 {
					panic(fmt.Sprintf("core: freed slot %d of query %d still on the influence list of cell %d (group %d)", h>>1, qu.id, c, w))
				}
			}
		}
		for _, d := range e.dirty[w] {
			if d == qu {
				panic(fmt.Sprintf("core: freed slot %d of query %d still on the touched list of group %d", qu.h>>1, qu.id, w))
			}
		}
	}
}
