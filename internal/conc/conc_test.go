package conc

import (
	"math"
	"math/rand"
	"testing"

	"cpm/internal/geom"
	"cpm/internal/grid"
)

func unitPartition(size int, b Block) Partition {
	return NewPartition(size, 1/float64(size), geom.Point{X: 0, Y: 0}, b)
}

func TestDirString(t *testing.T) {
	want := map[Dir]string{Up: "U", Down: "D", Left: "L", Right: "R", Dir(9): "Dir(9)"}
	for d, w := range want {
		if got := d.String(); got != w {
			t.Errorf("Dir(%d).String() = %q, want %q", d, got, w)
		}
	}
	if s := (Strip{Dir: Left, Level: 2}).String(); s != "L2" {
		t.Errorf("Strip.String() = %q, want L2", s)
	}
}

func TestNewPartitionPanics(t *testing.T) {
	cases := map[string]Block{
		"inverted cols": {ColLo: 3, ColHi: 2, RowLo: 0, RowHi: 0},
		"inverted rows": {ColLo: 0, ColHi: 0, RowLo: 5, RowHi: 4},
		"negative col":  {ColLo: -1, ColHi: 0, RowLo: 0, RowHi: 0},
		"col too big":   {ColLo: 0, ColHi: 8, RowLo: 0, RowHi: 0},
		"row too big":   {ColLo: 0, ColHi: 0, RowLo: 0, RowHi: 8},
	}
	for name, b := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: no panic", name)
				}
			}()
			unitPartition(8, b)
		}()
	}
}

// TestLevelZeroCells pins the level-0 strips of a 1×1 block to the paper's
// figure: each contains exactly two cells and together they cover ring 1.
func TestLevelZeroCells(t *testing.T) {
	p := unitPartition(8, CellBlock(4, 4))
	want := map[Dir][][2]int{
		Up:    {{4, 5}, {5, 5}},
		Right: {{5, 3}, {5, 4}},
		Down:  {{3, 3}, {4, 3}},
		Left:  {{3, 4}, {3, 5}},
	}
	for dir, cells := range want {
		var got [][2]int
		p.Cells(Strip{Dir: dir, Level: 0}, func(c, r int) { got = append(got, [2]int{c, r}) })
		if len(got) != len(cells) {
			t.Fatalf("%v0: got %v, want %v", dir, got, cells)
		}
		for i := range cells {
			if got[i] != cells[i] {
				t.Fatalf("%v0: got %v, want %v", dir, got, cells)
			}
		}
	}
}

// TestPinwheelTiling is the core structural property: for random grids and
// blocks, the block plus all in-grid strips cover every grid cell exactly
// once.
func TestPinwheelTiling(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 100; trial++ {
		size := 2 + rng.Intn(14)
		b := randBlock(rng, size)
		p := unitPartition(size, b)
		counts := make([]int, size*size)
		for c := b.ColLo; c <= b.ColHi; c++ {
			for r := b.RowLo; r <= b.RowHi; r++ {
				counts[r*size+c]++
			}
		}
		for _, dir := range Dirs {
			for lvl := int32(0); ; lvl++ {
				s := Strip{Dir: dir, Level: lvl}
				if !p.InGrid(s) {
					break
				}
				p.Cells(s, func(c, r int) { counts[r*size+c]++ })
			}
		}
		for idx, n := range counts {
			if n != 1 {
				t.Fatalf("trial %d (size=%d block=%+v): cell (%d,%d) covered %d times",
					trial, size, b, idx%size, idx/size, n)
			}
		}
	}
}

func randBlock(rng *rand.Rand, size int) Block {
	c0 := rng.Intn(size)
	c1 := c0 + rng.Intn(size-c0)
	r0 := rng.Intn(size)
	r1 := r0 + rng.Intn(size-r0)
	return Block{ColLo: c0, ColHi: c1, RowLo: r0, RowHi: r1}
}

// TestLemma31 verifies mindist(DIR_{l+1}, q) = mindist(DIR_l, q) + δ for
// query points inside the block (Lemma 3.1), and Corollary 5.1's m·δ
// increment for the sum aggregate over points inside the block.
func TestLemma31(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 100; trial++ {
		size := 4 + rng.Intn(12)
		delta := 1 / float64(size)
		b := randBlock(rng, size)
		p := NewPartition(size, delta, geom.Point{}, b)
		blockRect := p.BlockRect()
		q := geom.Point{
			X: blockRect.Lo.X + rng.Float64()*blockRect.Width(),
			Y: blockRect.Lo.Y + rng.Float64()*blockRect.Height(),
		}
		for _, dir := range Dirs {
			for lvl := int32(0); lvl < 6; lvl++ {
				d0 := p.Rect(Strip{Dir: dir, Level: lvl}).MinDist(q)
				d1 := p.Rect(Strip{Dir: dir, Level: lvl + 1}).MinDist(q)
				if math.Abs(d1-(d0+delta)) > 1e-12 {
					t.Fatalf("Lemma 3.1 violated: %v level %d→%d: %v vs %v+δ(%v)",
						dir, lvl, lvl+1, d1, d0, delta)
				}
			}
		}
		// Corollary 5.1: sum aggregate steps by m·δ.
		m := 1 + rng.Intn(4)
		qs := make([]geom.Point, m)
		for i := range qs {
			qs[i] = geom.Point{
				X: blockRect.Lo.X + rng.Float64()*blockRect.Width(),
				Y: blockRect.Lo.Y + rng.Float64()*blockRect.Height(),
			}
		}
		for _, dir := range Dirs {
			s0 := geom.AggMinDist(geom.AggSum, p.Rect(Strip{Dir: dir, Level: 2}), qs)
			s1 := geom.AggMinDist(geom.AggSum, p.Rect(Strip{Dir: dir, Level: 3}), qs)
			if math.Abs(s1-(s0+float64(m)*delta)) > 1e-12 {
				t.Fatalf("Corollary 5.1 violated for %v: %v vs %v+m·δ", dir, s1, s0)
			}
			// Corollary 5.2: min and max aggregates step by δ.
			for _, agg := range []geom.Agg{geom.AggMin, geom.AggMax} {
				a0 := geom.AggMinDist(agg, p.Rect(Strip{Dir: dir, Level: 2}), qs)
				a1 := geom.AggMinDist(agg, p.Rect(Strip{Dir: dir, Level: 3}), qs)
				if math.Abs(a1-(a0+delta)) > 1e-12 {
					t.Fatalf("Corollary 5.2 violated for %v/%v", dir, agg)
				}
			}
		}
	}
}

// TestStripRectCoversCells: the strip rect contains the rect of every
// in-grid cell of the strip, so mindist(strip) lower-bounds mindist(cell).
func TestStripRectCoversCells(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for trial := 0; trial < 50; trial++ {
		size := 3 + rng.Intn(10)
		delta := 1 / float64(size)
		b := randBlock(rng, size)
		p := NewPartition(size, delta, geom.Point{}, b)
		q := geom.Point{X: rng.Float64(), Y: rng.Float64()}
		for _, dir := range Dirs {
			for lvl := int32(0); lvl < 4; lvl++ {
				s := Strip{Dir: dir, Level: lvl}
				if !p.InGrid(s) {
					continue
				}
				stripRect := p.Rect(s)
				stripMin := stripRect.MinDist(q)
				p.Cells(s, func(c, r int) {
					cellRect := geom.Rect{
						Lo: geom.Point{X: float64(c) * delta, Y: float64(r) * delta},
						Hi: geom.Point{X: float64(c+1) * delta, Y: float64(r+1) * delta},
					}
					if !stripRect.Intersects(cellRect) {
						t.Fatalf("strip %v rect %v misses its cell (%d,%d)", s, stripRect, c, r)
					}
					if cellRect.MinDist(q) < stripMin-1e-12 {
						t.Fatalf("strip %v mindist %v not a lower bound for cell (%d,%d)",
							s, stripMin, c, r)
					}
				})
			}
		}
	}
}

// TestInGridMonotone: once a direction leaves the grid it never re-enters.
func TestInGridMonotone(t *testing.T) {
	p := unitPartition(6, CellBlock(1, 4))
	for _, dir := range Dirs {
		out := false
		for lvl := int32(0); lvl < 20; lvl++ {
			in := p.InGrid(Strip{Dir: dir, Level: lvl})
			if out && in {
				t.Fatalf("%v re-entered the grid at level %d", dir, lvl)
			}
			if !in {
				out = true
			}
		}
		if !out {
			t.Fatalf("%v never left a 6×6 grid within 20 levels", dir)
		}
	}
}

// TestCellsSortedWithinStrip verifies ascending enumeration order, which the
// engine relies on for deterministic heap payload tie-breaking.
func TestCellsSortedWithinStrip(t *testing.T) {
	p := unitPartition(10, CellBlock(5, 5))
	for _, dir := range Dirs {
		prev := -1
		p.Cells(Strip{Dir: dir, Level: 2}, func(c, r int) {
			v := c
			if dir == Left || dir == Right {
				v = r
			}
			if v <= prev {
				t.Fatalf("%v cells not in ascending order", dir)
			}
			prev = v
		})
	}
}

func TestBlockRect(t *testing.T) {
	p := unitPartition(4, Block{ColLo: 1, ColHi: 2, RowLo: 0, RowHi: 1})
	got := p.BlockRect()
	want := geom.Rect{Lo: geom.Point{X: 0.25, Y: 0}, Hi: geom.Point{X: 0.75, Y: 0.5}}
	if got != want {
		t.Errorf("BlockRect = %v, want %v", got, want)
	}
	if p.Block() != (Block{ColLo: 1, ColHi: 2, RowLo: 0, RowHi: 1}) {
		t.Errorf("Block() round-trip failed")
	}
}

// TestGridPartitionContainsCells: over a grid of any size, the block
// rectangle and every strip rectangle contain the grid's own rectangles of
// their cells exactly — no rounding slack at interior lines or at the last
// row and column — so a strip's key is never above a key of its cells.
func TestGridPartitionContainsCells(t *testing.T) {
	rng := rand.New(rand.NewSource(47))
	ws := geom.Rect{Lo: geom.Point{X: -0.3, Y: -0.3}, Hi: geom.Point{X: 1.1, Y: 1.1}}
	contains := func(outer, inner geom.Rect) bool {
		return outer.Contains(inner.Lo) && outer.Contains(inner.Hi)
	}
	for size := 1; size <= 60; size++ {
		g := grid.New(size, ws)
		for range 5 {
			b := randBlock(rng, size)
			xs, ys := g.Lines()
			p := NewGridPartition(xs, ys, g.Delta(), b)
			for row := b.RowLo; row <= b.RowHi; row++ {
				for col := b.ColLo; col <= b.ColHi; col++ {
					if !contains(p.BlockRect(), g.CellRect(col, row)) {
						t.Fatalf("size %d: block %+v rect %v misses cell (%d,%d) %v",
							size, b, p.BlockRect(), col, row, g.CellRect(col, row))
					}
				}
			}
			for _, dir := range Dirs {
				for lvl := int32(0); lvl < int32(size); lvl++ {
					s := Strip{Dir: dir, Level: lvl}
					p.Cells(s, func(col, row int) {
						if !contains(p.Rect(s), g.CellRect(col, row)) {
							t.Fatalf("size %d: strip %v rect %v misses cell (%d,%d) %v",
								size, s, p.Rect(s), col, row, g.CellRect(col, row))
						}
					})
				}
			}
		}
	}
}
