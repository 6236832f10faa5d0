package grid

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"cpm/internal/geom"
	"cpm/internal/model"
)

func TestInfluenceLists(t *testing.T) {
	x := NewInfluence(16)
	c := CellIndex(5)
	if x.Has(c, 7) || x.Occupied().Has(c) {
		t.Error("influence on fresh cell")
	}
	x.AddUnchecked(c, 7)
	x.AddUnchecked(c, 9)
	if !x.Has(c, 7) || !x.Has(c, 9) || len(x.List(c)) != 2 || len(x.List(c)) != 2 {
		t.Errorf("list of cell %d = %v, want [7 9]", c, x.List(c))
	}
	if !x.Occupied().Has(c) || x.Entries() != 2 {
		t.Errorf("occupied %v, entries %d after two adds", x.Occupied().Has(c), x.Entries())
	}
	x.Remove(c, 7)
	x.Remove(c, 123) // absent: no-op
	if x.Has(c, 7) || len(x.List(c)) != 1 || x.Entries() != 1 || !x.Occupied().Has(c) {
		t.Error("Remove failed")
	}
	x.Remove(c, 9)
	if len(x.List(c)) != 0 || x.Entries() != 0 || x.Occupied().Has(c) {
		t.Error("emptied list still counted or occupied")
	}
}

// TestInfluenceListsKeepTheirStorage: lists carved side by side from the
// arena keep their own entries when some grow past their run, and once every
// list has held its peak, filling and draining them again — across a Reset
// too — allocates nothing.
func TestInfluenceListsKeepTheirStorage(t *testing.T) {
	const cells = 300 // more than one slab chunk
	x := NewInfluence(cells)
	entries := func(c CellIndex) int { return int(c%7) + 1 } // up to firstRun+3
	want := make([]Handle, 0, 8)
	cycle := func() {
		for c := range CellIndex(cells) {
			for i := range entries(c) {
				x.AddUnchecked(c, Handle(1000*int(c)+i))
			}
		}
		for c := range CellIndex(cells) {
			want = want[:0]
			for i := range entries(c) {
				want = append(want, Handle(1000*int(c)+i))
			}
			if !slices.Equal(x.List(c), want) {
				t.Fatalf("cell %d lists %v, want %v", c, x.List(c), want)
			}
			if c%2 == 0 {
				for _, h := range want {
					x.Remove(c, h)
				}
			}
		}
		x.Reset(cells)
	}
	cycle()
	if allocs := testing.AllocsPerRun(3, cycle); allocs != 0 {
		t.Fatalf("refilling warm lists allocated %v times", allocs)
	}
}

// checkOccupancy asserts the index's bitmap is exactly {c : its list is non-empty} and
// its entry count is the sum of the list lengths.
func checkOccupancy(t *testing.T, x *Influence, cellCount int, step int) {
	t.Helper()
	var entries int64
	for c := range CellIndex(cellCount) {
		entries += int64(len(x.List(c)))
		if x.Occupied().Has(c) != (len(x.List(c)) > 0) {
			t.Fatalf("step %d: cell %d has %d entries but bit %v", step, c, len(x.List(c)), x.Occupied().Has(c))
		}
	}
	if x.Entries() != entries {
		t.Fatalf("step %d: Entries() = %d, lists hold %d", step, x.Entries(), entries)
	}
}

// TestInfluenceOccupancyTracksLists drives random AddUnchecked, Remove and
// Reset sequences — resizes included, up and down, across word boundaries —
// and checks the bitmap and entry count after every step.
func TestInfluenceOccupancyTracksLists(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	cellCount := 100
	x := NewInfluence(cellCount)
	// held mirrors the lists so adds never duplicate and removes can pick a
	// present entry.
	held := map[CellIndex][]Handle{}
	for step := 0; step < 20000; step++ {
		switch r := rng.Float64(); {
		case r < 0.001:
			cellCount = []int{1, 63, 64, 65, 100, 200}[rng.Intn(6)]
			x.Reset(cellCount)
			clear(held)
		case r < 0.55:
			c := CellIndex(rng.Intn(cellCount))
			h := Handle(rng.Intn(1 << 20))
			if slices.Contains(held[c], h) {
				continue
			}
			x.AddUnchecked(c, h)
			held[c] = append(held[c], h)
		default:
			c := CellIndex(rng.Intn(cellCount))
			if len(held[c]) == 0 || rng.Float64() < 0.1 {
				x.Remove(c, Handle(1<<21)) // absent: no-op
			} else {
				i := rng.Intn(len(held[c]))
				x.Remove(c, held[c][i])
				held[c] = slices.Delete(held[c], i, i+1)
			}
		}
		checkOccupancy(t, x, cellCount, step)
	}
}

// applyStream is a seeded update stream over a 16×16 grid: moves within and
// across cells, inserts of new ids, deletes, clamped out-of-workspace points
// and every kind of invalid update.
func applyStream(rng *rand.Rand, live *[]model.ObjectID, next *model.ObjectID, n int) []model.Update {
	point := func() geom.Point {
		p := geom.Point{X: rng.Float64(), Y: rng.Float64()}
		if rng.Float64() < 0.05 {
			p.X = p.X*3 - 1 // off the workspace: clamped onto the border
		}
		return p
	}
	pick := func() model.ObjectID { return (*live)[rng.Intn(len(*live))] }
	var out []model.Update
	for len(out) < n {
		switch r := rng.Float64(); {
		case r < 0.11 || len(*live) == 0:
			out = append(out, model.InsertUpdate(*next, point()))
			*live = append(*live, *next)
			*next++
		case r < 0.15:
			out = append(out, [...]model.Update{
				model.MoveUpdate(*next+1000, geom.Point{}, point()),                     // unknown id
				model.MoveUpdate(pick(), geom.Point{}, geom.Point{X: math.NaN(), Y: 0}), // non-finite
				model.InsertUpdate(pick(), point()),                                     // live id
				model.DeleteUpdate(-1, geom.Point{}),                                    // negative id
				{ID: pick(), Kind: model.UpdateKind(9)},                                 // unknown kind
			}[rng.Intn(5)])
		case r < 0.22:
			i := rng.Intn(len(*live))
			out = append(out, model.DeleteUpdate((*live)[i], geom.Point{}))
			(*live)[i] = (*live)[len(*live)-1]
			*live = (*live)[:len(*live)-1]
		default:
			out = append(out, model.MoveUpdate(pick(), geom.Point{}, point()))
		}
	}
	return out
}

// touches reports whether a log entry's old or new cell is in s.
func touches(s *CellSet, a Applied) bool {
	return (a.Old != NoCell && s.Has(a.Old)) || (a.New != NoCell && s.Has(a.New))
}

// TestApplyWatchedMatchesApplyBatch applies one stream to two grids, one
// unfiltered and one through a cell set, and checks the grids stay
// identical — positions, cell lists in order, invalid counts, epochs — and
// that the filtered log is exactly the full log's entries touching the set.
func TestApplyWatchedMatchesApplyBatch(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	full, filtered := NewUnit(16), NewUnit(16)
	x := NewInfluence(16 * 16)
	for c := range CellIndex(16 * 16) {
		if rng.Float64() < 0.2 {
			x.AddUnchecked(c, 1)
		}
	}
	watch := x.Occupied()
	var live []model.ObjectID
	var next model.ObjectID
	var fullLog, filtLog []Applied
	for batch := 0; batch < 40; batch++ {
		updates := applyStream(rng, &live, &next, 200)
		var invFull, invFilt int64
		fullLog, invFull = full.ApplyBatch(updates, fullLog[:0])
		filtLog, invFilt = filtered.ApplyWatched(updates, filtLog[:0], watch)
		if invFull != invFilt || invFull == 0 {
			t.Fatalf("batch %d: invalid %d unfiltered, %d filtered", batch, invFull, invFilt)
		}
		var want []Applied
		for _, a := range fullLog {
			if touches(watch, a) {
				want = append(want, a)
			}
		}
		if !slices.Equal(filtLog, want) || len(want) == len(fullLog) || len(want) == 0 {
			t.Fatalf("batch %d: filtered log has %d entries, want %d of %d", batch, len(filtLog), len(want), len(fullLog))
		}
		if full.Epoch() != filtered.Epoch() || full.Count() != filtered.Count() {
			t.Fatalf("batch %d: epoch %d/%d, count %d/%d", batch, full.Epoch(), filtered.Epoch(), full.Count(), filtered.Count())
		}
		if !slices.Equal(full.alive, filtered.alive) || !slices.Equal(full.positions, filtered.positions) {
			t.Fatalf("batch %d: object stores differ", batch)
		}
		for c := range full.cells {
			if !slices.Equal(full.cells[c].objects, filtered.cells[c].objects) {
				t.Fatalf("batch %d: cell %d lists %v and %v", batch, c, full.cells[c].objects, filtered.cells[c].objects)
			}
		}
	}

	// A warm filtered apply allocates nothing.
	there, back := make([]model.Update, len(live)), make([]model.Update, len(live))
	for i, id := range live {
		there[i] = model.MoveUpdate(id, geom.Point{}, geom.Point{X: rng.Float64(), Y: rng.Float64()})
		back[i] = model.MoveUpdate(id, geom.Point{}, geom.Point{X: rng.Float64(), Y: rng.Float64()})
	}
	filtLog = make([]Applied, 0, len(live))
	if avg := testing.AllocsPerRun(50, func() {
		filtLog, _ = filtered.ApplyWatched(there, filtLog[:0], watch)
		filtLog, _ = filtered.ApplyWatched(back, filtLog[:0], watch)
	}); avg != 0 {
		t.Fatalf("warm ApplyWatched allocates %.1f/op, want 0", avg)
	}
}
