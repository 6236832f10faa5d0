//go:build race || cpmassert

package grid

import (
	"testing"

	"cpm/internal/geom"
	"cpm/internal/model"
)

// This file holds the negative controls of the epoch, index and occupancy
// guards: tests proving the assertions actually fire when the phase-based
// sharing contract or an index invariant is violated. They compile only
// where the guards do (race or cpmassert builds) — CI's race and assert
// jobs run them.

// mustPanic runs f and fails the test unless it panics.
func mustPanic(t *testing.T, what string, f func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Errorf("%s did not panic", what)
		}
	}()
	f()
}

// TestGuardTripsOnWriteOutsideWindow checks assertWritable: mutating a
// shared grid without an open write window must panic.
func TestGuardTripsOnWriteOutsideWindow(t *testing.T) {
	g := NewUnit(8)
	g.SetShared(true)
	mustPanic(t, "Insert outside write window", func() {
		_ = g.Insert(1, geom.Point{X: 0.5, Y: 0.5})
	})
	mustPanic(t, "Move outside write window", func() {
		_, _, _ = g.Move(1, geom.Point{X: 0.25, Y: 0.25})
	})
	mustPanic(t, "Delete outside write window", func() {
		_ = g.Delete(1)
	})
}

// TestGuardTripsOnConcurrentEpochRead is the concurrent negative control:
// a reader goroutine touching the shared grid while a write window is
// staged (exactly what a buggy monitor fanning out mid-apply would do)
// must trip the epoch assertion.
//
// The test is race-detector clean by construction: the assertions read
// only the immutable shared flag and the atomic writing flag, panicking
// BEFORE any grid memory is touched, and the window here stages no actual
// writes, so no non-atomic memory is accessed from two goroutines.
func TestGuardTripsOnConcurrentEpochRead(t *testing.T) {
	g := NewUnit(8)
	g.BeginWrites()
	if err := g.Insert(1, geom.Point{X: 0.5, Y: 0.5}); err != nil {
		t.Fatal(err)
	}
	g.EndWrites()
	g.SetShared(true)

	// Positive control: reads at a stable epoch are fine, concurrently too.
	done := make(chan struct{})
	go func() {
		defer close(done)
		if _, ok := g.Position(1); !ok {
			t.Error("object 1 missing at stable epoch")
		}
	}()
	<-done

	g.BeginWrites() // stage a write window; no writes are performed
	windowOpen := make(chan struct{})
	tripped := make(chan bool)
	go func() {
		<-windowOpen
		trippedNow := func() (p bool) {
			defer func() { p = recover() != nil }()
			_, _ = g.Position(1)
			return
		}()
		tripped <- trippedNow
	}()
	close(windowOpen)
	if !<-tripped {
		t.Error("read of shared grid inside a write window did not panic")
	}
	g.EndWrites()

	// And the same read is legal again once the window closed.
	if _, ok := g.Position(1); !ok {
		t.Error("object 1 missing after window closed")
	}
}

// TestGuardTripsOnDriftedOccupancy is the occupancy guard's negative
// control: once a cell's bit disagrees with its list, the next add to or
// removal from that cell must panic.
func TestGuardTripsOnDriftedOccupancy(t *testing.T) {
	x := NewInfluence(16)
	x.AddUnchecked(3, 1)
	x.occupied.remove(3)
	mustPanic(t, "AddUnchecked on a cell whose bit was lost", func() { x.AddUnchecked(3, 2) })

	y := NewInfluence(16)
	y.AddUnchecked(5, 1)
	y.AddUnchecked(5, 2)
	y.occupied.remove(5)
	mustPanic(t, "Remove on a cell whose bit was lost", func() { y.Remove(5, 1) })

	// Positive control: clean adds and removes stay quiet.
	z := NewInfluence(16)
	z.AddUnchecked(7, 1)
	z.AddUnchecked(7, 2)
	z.Remove(7, 1)
	z.Remove(7, 2)
	if z.Occupied().Has(7) {
		t.Error("bit still set on an emptied list")
	}
}

// TestGuardTripsOnDriftedIndex is the index guard's negative control: once
// the cell lists disagree with the id-indexed store — an object recorded in
// the wrong cell, a wrong slot, a wrong non-empty or live count — the next
// ApplyBatch or Rebuild must panic. Clean applies in both maintenance modes
// stay quiet.
func TestGuardTripsOnDriftedIndex(t *testing.T) {
	populated := func() *Grid {
		g := NewUnit(8)
		for id := range model.ObjectID(20) {
			mustInsert(t, g, id, geom.Point{X: float64(id%5) / 5, Y: float64(id%3) / 3})
		}
		return g
	}
	g := populated()
	g.apply([]model.Update{model.MoveUpdate(1, geom.Point{}, geom.Point{X: 0.9, Y: 0.9})}, nil, nil, false)
	g.apply([]model.Update{model.MoveUpdate(1, geom.Point{}, geom.Point{X: 0.1, Y: 0.9})}, nil, nil, true)
	g.Rebuild(5)

	g = populated()
	g.cellOf[3] = (g.cellOf[3] + 1) % 64
	mustPanic(t, "ApplyBatch over an object recorded in the wrong cell", func() { g.ApplyBatch(nil, nil) })

	g = populated()
	g.slots[0], g.slots[15] = g.slots[15], g.slots[0] // same cell, swapped slots
	mustPanic(t, "ApplyBatch over swapped slots", func() { g.ApplyBatch(nil, nil) })

	g = populated()
	g.nonEmpty++
	mustPanic(t, "ApplyBatch over a drifted non-empty count", func() { g.ApplyBatch(nil, nil) })

	g = populated()
	g.count++
	mustPanic(t, "Rebuild over a drifted live count", func() { g.Rebuild(4) })
}

// TestGuardAllowsPrivateGrids checks the guards stay inert on grids never
// put in shared mode (the classic one-engine-one-grid layout and the
// YPK/SEA baselines): reads during a write window are legal there.
func TestGuardAllowsPrivateGrids(t *testing.T) {
	g := NewUnit(8)
	g.BeginWrites()
	if err := g.Insert(1, geom.Point{X: 0.5, Y: 0.5}); err != nil {
		t.Fatal(err)
	}
	if _, ok := g.Position(1); !ok {
		t.Error("private grid read inside write window failed")
	}
	g.EndWrites()
}

// TestGuardTripsInsideOwnWindow checks that even a same-goroutine read
// through a guarded accessor trips while a window is open — the window
// brackets must enclose ALL grid writes and no reads — and that the grid
// stays usable after the recovered panic (the deferred EndWrites ran).
func TestGuardTripsInsideOwnWindow(t *testing.T) {
	g := NewUnit(8)
	g.SetShared(true)
	mustPanic(t, "Objects inside own write window", func() {
		g.BeginWrites()
		defer g.EndWrites()
		_ = g.Objects(0)
	})
	if g.Epoch() != 1 {
		t.Fatalf("epoch after recovered panic = %d, want 1", g.Epoch())
	}
	// ApplyBatch (self-bracketing) works when nobody reads mid-window.
	log, invalid := g.ApplyBatch([]model.Update{
		model.InsertUpdate(3, geom.Point{X: 0.1, Y: 0.2}),
	}, nil)
	if invalid != 0 || len(log) != 1 {
		t.Fatalf("ApplyBatch after guard trip: log %v invalid %d", log, invalid)
	}
}
