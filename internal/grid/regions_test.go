package grid

import (
	"math/rand"
	"testing"

	"cpm/internal/geom"
)

func collectRect(g *Grid, r geom.Rect) map[CellIndex]bool {
	got := map[CellIndex]bool{}
	g.CellsInRect(r, func(c CellIndex) { got[c] = true })
	return got
}

func TestCellsInRect(t *testing.T) {
	g := NewUnit(4) // δ = 0.25
	r := geom.Rect{Lo: geom.Point{X: 0.3, Y: 0.3}, Hi: geom.Point{X: 0.6, Y: 0.6}}
	got := collectRect(g, r)
	// x spans cells 1..2, y spans cells 1..2 → 4 cells.
	if len(got) != 4 {
		t.Fatalf("got %d cells, want 4: %v", len(got), got)
	}
	for _, cr := range [][2]int{{1, 1}, {2, 1}, {1, 2}, {2, 2}} {
		if !got[g.Index(cr[0], cr[1])] {
			t.Errorf("cell (%d,%d) missing", cr[0], cr[1])
		}
	}
}

func TestCellsInRectClamped(t *testing.T) {
	g := NewUnit(4)
	r := geom.Rect{Lo: geom.Point{X: -5, Y: -5}, Hi: geom.Point{X: 5, Y: 5}}
	if got := collectRect(g, r); len(got) != 16 {
		t.Errorf("oversized rect covered %d cells, want 16", len(got))
	}
	tiny := geom.Rect{Lo: geom.Point{X: 0.1, Y: 0.1}, Hi: geom.Point{X: 0.1, Y: 0.1}}
	if got := collectRect(g, tiny); len(got) != 1 {
		t.Errorf("degenerate rect covered %d cells, want 1", len(got))
	}
}

// TestCellsInCircleExact cross-checks the disk cover against a brute-force
// scan of all cells.
func TestCellsInCircleExact(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	g := NewUnit(16)
	for trial := 0; trial < 200; trial++ {
		center := geom.Point{X: rng.Float64()*1.4 - 0.2, Y: rng.Float64()*1.4 - 0.2}
		radius := rng.Float64() * 0.5
		got := map[CellIndex]bool{}
		g.CellsInCircle(center, radius, func(c CellIndex) {
			if got[c] {
				t.Fatalf("cell %d visited twice", c)
			}
			got[c] = true
		})
		for idx := range g.cells {
			c := CellIndex(idx)
			want := g.RectOf(c).MinDist(center) <= radius
			if got[c] != want {
				t.Fatalf("trial %d: cell %d in-circle=%v, want %v (center=%v r=%v)",
					trial, c, got[c], want, center, radius)
			}
		}
	}
}

func TestCellsInCircleNegativeRadius(t *testing.T) {
	g := NewUnit(4)
	called := false
	g.CellsInCircle(geom.Point{X: 0.5, Y: 0.5}, -1, func(CellIndex) { called = true })
	if called {
		t.Error("negative radius visited cells")
	}
}

func TestRingCells(t *testing.T) {
	g := NewUnit(8)
	// Ring 0 is the center cell.
	var cells []CellIndex
	n := g.RingCells(3, 3, 0, func(c CellIndex) { cells = append(cells, c) })
	if n != 1 || len(cells) != 1 || cells[0] != g.Index(3, 3) {
		t.Fatalf("ring 0 = %v (n=%d)", cells, n)
	}
	// Ring 1 around an interior cell has 8 cells.
	seen := map[CellIndex]bool{}
	n = g.RingCells(3, 3, 1, func(c CellIndex) {
		if seen[c] {
			t.Fatalf("cell %d visited twice in ring", c)
		}
		seen[c] = true
	})
	if n != 8 {
		t.Fatalf("ring 1 visited %d cells, want 8", n)
	}
	for _, c := range []CellIndex{g.Index(2, 2), g.Index(4, 4), g.Index(3, 2), g.Index(2, 4)} {
		if !seen[c] {
			t.Errorf("ring 1 missing cell %d", c)
		}
	}
	if seen[g.Index(3, 3)] {
		t.Error("ring 1 contains the center")
	}
	// Ring at the corner is clamped.
	seen = map[CellIndex]bool{}
	n = g.RingCells(0, 0, 1, func(c CellIndex) { seen[c] = true })
	if n != 3 {
		t.Errorf("corner ring 1 visited %d cells, want 3", n)
	}
	// Ring fully outside the grid.
	n = g.RingCells(0, 0, 20, func(CellIndex) {})
	if n != 0 {
		t.Errorf("far ring visited %d cells, want 0", n)
	}
}

// TestRingsTileGrid: rings 0..size cover every cell exactly once.
func TestRingsTileGrid(t *testing.T) {
	g := NewUnit(9)
	counts := map[CellIndex]int{}
	for ring := 0; ring <= 9; ring++ {
		g.RingCells(4, 6, ring, func(c CellIndex) { counts[c]++ })
	}
	if len(counts) != 81 {
		t.Fatalf("rings covered %d cells, want 81", len(counts))
	}
	for c, n := range counts {
		if n != 1 {
			t.Fatalf("cell %d covered %d times", c, n)
		}
	}
}

func TestMemoryFootprint(t *testing.T) {
	g := NewUnit(4)
	if g.MemoryFootprint() != 0 {
		t.Errorf("empty grid footprint = %d", g.MemoryFootprint())
	}
	mustInsert(t, g, 0, geom.Point{X: 0.1, Y: 0.1})
	mustInsert(t, g, 1, geom.Point{X: 0.2, Y: 0.2})
	if got := g.MemoryFootprint(); got != 2*3 {
		t.Errorf("footprint = %d, want 6", got)
	}
}
