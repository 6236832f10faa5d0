//go:build race || cpmassert

package core

import (
	"testing"

	"cpm/internal/geom"
	"cpm/internal/grid"
)

// The negative controls of the freed-slot guard: it must fire when a slot
// is parked while something still names it. They compile only where the
// guard does (race or cpmassert builds) — `make assert` and CI's assert and
// race jobs run them.

func guardedEngine(t *testing.T) *Engine {
	t.Helper()
	w := newWorld(3)
	e := NewUnitEngine(8, Options{})
	e.Bootstrap(w.populate(50))
	if err := e.RegisterQuery(1, geom.Point{X: 0.5, Y: 0.5}, 3); err != nil {
		t.Fatal(err)
	}
	if err := e.RegisterRange(2, geom.Point{X: 0.2, Y: 0.2}, 0.1); err != nil {
		t.Fatal(err)
	}
	return e
}

func mustPanic(t *testing.T, what string, f func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Errorf("%s did not panic", what)
		}
	}()
	f()
}

func TestGuardTripsOnStaleInfluenceEntry(t *testing.T) {
	e := guardedEngine(t)
	qu := e.ids[1]
	// A cell outside the influence prefix: clearInfluence will not visit it.
	stale := grid.CellIndex(0)
	for e.HasInfluence(stale, 1) {
		stale++
	}
	e.infls[qu.group].AddUnchecked(stale, qu.h)
	mustPanic(t, "parking a slot an influence list still names", func() { e.RemoveQuery(1) })
}

func TestGuardTripsOnStaleTouchedEntry(t *testing.T) {
	e := guardedEngine(t)
	qu := e.ids[2]
	e.dirty[qu.group] = append(e.dirty[qu.group], qu)
	mustPanic(t, "parking a slot the touched list still names", func() { e.RemoveQuery(2) })
}

func TestGuardQuietOnCleanRemoval(t *testing.T) {
	e := guardedEngine(t)
	e.RemoveQuery(1)
	e.RemoveQuery(2)
	if len(e.free) != 2 {
		t.Fatalf("%d slots parked, want 2", len(e.free))
	}
}
