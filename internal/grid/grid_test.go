package grid

import (
	"math"
	"math/rand"
	"testing"

	"cpm/internal/geom"
	"cpm/internal/model"
)

func TestNewPanics(t *testing.T) {
	cases := map[string]func(){
		"zero size": func() { New(0, unitRect()) },
		"neg size":  func() { New(-3, unitRect()) },
		"empty ws":  func() { New(4, geom.Rect{}) },
		"non-square ws": func() {
			New(4, geom.Rect{Lo: geom.Point{}, Hi: geom.Point{X: 2, Y: 1}})
		},
	}
	for name, f := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: New did not panic", name)
				}
			}()
			f()
		}()
	}
}

func unitRect() geom.Rect {
	return geom.Rect{Lo: geom.Point{X: 0, Y: 0}, Hi: geom.Point{X: 1, Y: 1}}
}

func TestCellMapping(t *testing.T) {
	g := NewUnit(4) // δ = 0.25
	cases := []struct {
		p        geom.Point
		col, row int
	}{
		{geom.Point{X: 0, Y: 0}, 0, 0},
		{geom.Point{X: 0.24, Y: 0.24}, 0, 0},
		{geom.Point{X: 0.25, Y: 0}, 1, 0}, // half-open interval: border belongs to next cell
		{geom.Point{X: 0.99, Y: 0.99}, 3, 3},
		{geom.Point{X: 1.0, Y: 1.0}, 3, 3},   // clamped
		{geom.Point{X: -0.5, Y: 1.7}, 0, 3},  // outside: clamped
		{geom.Point{X: 0.5, Y: 0.749}, 2, 2}, // interior
	}
	for _, c := range cases {
		col, row := g.ColRow(c.p)
		if col != c.col || row != c.row {
			t.Errorf("ColRow(%v) = (%d,%d), want (%d,%d)", c.p, col, row, c.col, c.row)
		}
	}
}

func TestIndexSplitRoundTrip(t *testing.T) {
	g := NewUnit(7)
	for row := 0; row < 7; row++ {
		for col := 0; col < 7; col++ {
			idx := g.Index(col, row)
			if idx == NoCell {
				t.Fatalf("Index(%d,%d) = NoCell", col, row)
			}
			c2, r2 := g.Split(idx)
			if c2 != col || r2 != row {
				t.Fatalf("Split(Index(%d,%d)) = (%d,%d)", col, row, c2, r2)
			}
		}
	}
	for _, bad := range [][2]int{{-1, 0}, {0, -1}, {7, 0}, {0, 7}} {
		if g.Index(bad[0], bad[1]) != NoCell {
			t.Errorf("Index(%d,%d) should be NoCell", bad[0], bad[1])
		}
	}
}

func TestCellRect(t *testing.T) {
	g := NewUnit(4)
	r := g.CellRect(1, 2)
	want := geom.Rect{Lo: geom.Point{X: 0.25, Y: 0.5}, Hi: geom.Point{X: 0.5, Y: 0.75}}
	if r != want {
		t.Errorf("CellRect(1,2) = %v, want %v", r, want)
	}
	// Point inside a cell must map back to that cell's rect.
	p := geom.Point{X: 0.3, Y: 0.6}
	if got := g.RectOf(g.CellOf(p)); !got.Contains(p) {
		t.Errorf("RectOf(CellOf(%v)) = %v does not contain the point", p, got)
	}
}

// TestCellRectContainsItsPoints is the property the searches' mindist
// lower bound rests on: the rectangle of the cell a point maps to contains
// the point, for every grid size — not only powers of two, where the cell
// side is exact — and on workspaces away from the origin. The points
// include every grid line, both as i·δ and as the grid places it, with
// their neighbouring floats, and the points beyond the border that Clamp
// projects.
func TestCellRectContainsItsPoints(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	workspaces := []geom.Rect{
		unitRect(),
		{Lo: geom.Point{X: -3.7, Y: -3.7}, Hi: geom.Point{X: 11.2, Y: 11.2}},
	}
	for _, ws := range workspaces {
		for size := 1; size <= 200; size++ {
			g := New(size, ws)
			check := func(p geom.Point) {
				p = g.Clamp(p)
				col, row := g.ColRow(p)
				if r := g.CellRect(col, row); !r.Contains(p) {
					t.Fatalf("size %d over %v: CellRect(ColRow(%v)) = (%d,%d) %v misses the point",
						size, ws, p, col, row, r)
				}
			}
			xs, _ := g.Lines()
			for i := 0; i <= size; i++ {
				for _, v := range []float64{ws.Lo.X + float64(i)*g.Delta(), xs[i]} {
					for _, x := range []float64{math.Nextafter(v, math.Inf(-1)), v, math.Nextafter(v, math.Inf(1))} {
						check(geom.Point{X: x, Y: ws.Lo.Y + ws.Hi.Y - x})
						check(geom.Point{X: x, Y: x})
					}
				}
			}
			for range 50 {
				check(geom.Point{
					X: ws.Lo.X + (rng.Float64()*1.4-0.2)*ws.Width(),
					Y: ws.Lo.Y + (rng.Float64()*1.4-0.2)*ws.Height(),
				})
			}
			if r := g.CellRect(size-1, size-1); r.Hi != ws.Hi {
				t.Fatalf("size %d: last cell ends at %v, want the workspace corner %v", size, r.Hi, ws.Hi)
			}
		}
	}
}

func TestInsertDeleteMove(t *testing.T) {
	g := NewUnit(8)
	if err := g.Insert(1, geom.Point{X: 0.1, Y: 0.1}); err != nil {
		t.Fatal(err)
	}
	if err := g.Insert(1, geom.Point{X: 0.2, Y: 0.2}); err == nil {
		t.Error("double insert not rejected")
	}
	if err := g.Insert(-1, geom.Point{}); err == nil {
		t.Error("negative id insert not rejected")
	}
	if g.Count() != 1 {
		t.Fatalf("Count = %d, want 1", g.Count())
	}
	if p, ok := g.Position(1); !ok || p != (geom.Point{X: 0.1, Y: 0.1}) {
		t.Fatalf("Position(1) = %v, %v", p, ok)
	}
	old, new_, err := g.Move(1, geom.Point{X: 0.9, Y: 0.9})
	if err != nil {
		t.Fatal(err)
	}
	if old == new_ {
		t.Error("move across cells reported same cell")
	}
	if g.Len(old) != 0 || g.Len(new_) != 1 {
		t.Errorf("cell populations after move: old=%d new=%d", g.Len(old), g.Len(new_))
	}
	// In-cell move.
	o2, n2, err := g.Move(1, geom.Point{X: 0.91, Y: 0.91})
	if err != nil {
		t.Fatal(err)
	}
	if o2 != n2 {
		t.Error("in-cell move reported different cells")
	}
	if err := g.Delete(1); err != nil {
		t.Fatal(err)
	}
	if g.Alive(1) || g.Count() != 0 {
		t.Error("object alive after delete")
	}
	if err := g.Delete(1); err == nil {
		t.Error("double delete not rejected")
	}
	if _, _, err := g.Move(1, geom.Point{}); err == nil {
		t.Error("move of dead object not rejected")
	}
	if _, _, err := g.Move(99, geom.Point{}); err == nil {
		t.Error("move of unknown object not rejected")
	}
	if err := g.Delete(12345); err == nil {
		t.Error("delete of unknown object not rejected")
	}
}

func TestScanObjectsCountsAccesses(t *testing.T) {
	g := NewUnit(2)
	mustInsert(t, g, 1, geom.Point{X: 0.1, Y: 0.1})
	mustInsert(t, g, 2, geom.Point{X: 0.2, Y: 0.2})
	mustInsert(t, g, 3, geom.Point{X: 0.9, Y: 0.9})
	c := g.CellOf(geom.Point{X: 0.1, Y: 0.1})
	seen := map[model.ObjectID]geom.Point{}
	g.ScanObjects(c, func(id model.ObjectID, p geom.Point) { seen[id] = p })
	if len(seen) != 2 {
		t.Errorf("scan saw %d objects, want 2", len(seen))
	}
	if g.CellAccesses() != 1 {
		t.Errorf("CellAccesses = %d, want 1", g.CellAccesses())
	}
	g.ScanObjects(c, func(model.ObjectID, geom.Point) {})
	if g.CellAccesses() != 2 {
		t.Errorf("CellAccesses = %d, want 2", g.CellAccesses())
	}
}

func mustInsert(t *testing.T, g *Grid, id model.ObjectID, p geom.Point) {
	t.Helper()
	if err := g.Insert(id, p); err != nil {
		t.Fatal(err)
	}
}

// TestPopulationInvariant: after a random workload of inserts, moves and
// deletes, every live object is in exactly the cell its position maps to,
// and cell populations sum to Count().
func TestPopulationInvariant(t *testing.T) {
	rng := rand.New(rand.NewSource(12345))
	g := NewUnit(16)
	live := map[model.ObjectID]geom.Point{}
	nextID := model.ObjectID(0)
	for op := 0; op < 20000; op++ {
		switch {
		case len(live) == 0 || rng.Float64() < 0.3:
			p := geom.Point{X: rng.Float64(), Y: rng.Float64()}
			mustInsert(t, g, nextID, p)
			live[nextID] = p
			nextID++
		case rng.Float64() < 0.2:
			id := anyKey(rng, live)
			if err := g.Delete(id); err != nil {
				t.Fatal(err)
			}
			delete(live, id)
		default:
			id := anyKey(rng, live)
			p := geom.Point{X: rng.Float64(), Y: rng.Float64()}
			if _, _, err := g.Move(id, p); err != nil {
				t.Fatal(err)
			}
			live[id] = p
		}
	}
	if g.Count() != len(live) {
		t.Fatalf("Count = %d, want %d", g.Count(), len(live))
	}
	total := 0
	for idx := range g.cells {
		c := CellIndex(idx)
		rect := g.RectOf(c)
		g.ScanObjects(c, func(id model.ObjectID, p geom.Point) {
			total++
			want, ok := live[id]
			if !ok {
				t.Fatalf("dead object %d in cell %d", id, c)
			}
			if want != p {
				t.Fatalf("object %d position %v, want %v", id, p, want)
			}
			if !rect.Contains(p) {
				t.Fatalf("object %d at %v outside its cell rect %v", id, p, rect)
			}
		})
	}
	if total != len(live) {
		t.Fatalf("cells contain %d objects, want %d", total, len(live))
	}
}

func anyKey(rng *rand.Rand, m map[model.ObjectID]geom.Point) model.ObjectID {
	n := rng.Intn(len(m))
	for id := range m {
		if n == 0 {
			return id
		}
		n--
	}
	panic("unreachable")
}

func TestForEachObject(t *testing.T) {
	g := NewUnit(4)
	for i := 0; i < 10; i++ {
		mustInsert(t, g, model.ObjectID(i), geom.Point{X: float64(i) / 10, Y: 0.5})
	}
	if err := g.Delete(3); err != nil {
		t.Fatal(err)
	}
	n := 0
	g.ForEachObject(func(id model.ObjectID, p geom.Point) {
		n++
		if id == 3 {
			t.Error("deleted object visited")
		}
	})
	if n != 9 {
		t.Errorf("ForEachObject visited %d, want 9", n)
	}
}
