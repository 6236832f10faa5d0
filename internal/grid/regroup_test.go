package grid

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"cpm/internal/geom"
	"cpm/internal/model"
)

// checkSameIndex fails unless two grids hold the same id-indexed store and
// the same object set in every cell; the order inside a cell may differ.
func checkSameIndex(t *testing.T, batch int, a, b *Grid) {
	t.Helper()
	if !slices.Equal(a.alive, b.alive) || !slices.Equal(a.positions, b.positions) {
		t.Fatalf("batch %d: object stores differ", batch)
	}
	for id, ok := range a.alive {
		if ok && a.cellOf[id] != b.cellOf[id] {
			t.Fatalf("batch %d: object %d in cell %d and %d", batch, id, a.cellOf[id], b.cellOf[id])
		}
	}
	if a.Count() != b.Count() || a.NonEmptyCells() != b.NonEmptyCells() || a.Epoch() != b.Epoch() {
		t.Fatalf("batch %d: count %d/%d, non-empty %d/%d, epoch %d/%d", batch,
			a.Count(), b.Count(), a.NonEmptyCells(), b.NonEmptyCells(), a.Epoch(), b.Epoch())
	}
	for c := range a.cells {
		x, y := slices.Clone(a.cells[c].objects), slices.Clone(b.cells[c].objects)
		slices.Sort(x)
		slices.Sort(y)
		if !slices.Equal(x, y) {
			t.Fatalf("batch %d: cell %d holds %v and %v", batch, c, x, y)
		}
	}
}

// TestRegroupMatchesRelocation applies one stream to two grids, one forced
// to regroup every batch and one forced to relocate, and checks they agree
// on the log, the invalid count and the whole index. The stream moves
// objects (some twice in a batch), inserts past the store's length, deletes
// and re-inserts an id in one batch, clamps points onto the border and
// carries NaN, unknown and duplicate updates. A regroup lists every cell in
// ascending id order.
func TestRegroupMatchesRelocation(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	regrouped, relocated := NewUnit(16), NewUnit(16)
	var live []model.ObjectID
	var next model.ObjectID
	var logA, logB []Applied
	for batch := 0; batch < 40; batch++ {
		updates := applyStream(rng, &live, &next, 300)
		point := func() geom.Point { return geom.Point{X: rng.Float64(), Y: rng.Float64()} }
		twice, again := live[rng.Intn(len(live))], live[rng.Intn(len(live))]
		p := point()
		updates = append(updates,
			model.MoveUpdate(twice, geom.Point{}, point()),
			model.MoveUpdate(twice, geom.Point{}, point()),
			model.MoveUpdate(twice, geom.Point{}, geom.Point{X: math.Inf(1), Y: 0.5}), // non-finite
			model.DeleteUpdate(again, geom.Point{}),
			model.InsertUpdate(again, p),
			model.InsertUpdate(again, p)) // duplicate
		if batch < 4 {
			// An id past the end of the store grows it inside the batch.
			far := next + model.ObjectID(len(regrouped.alive))
			updates = append(updates, model.InsertUpdate(far, point()))
			live = append(live, far)
			next = far + 1
		}
		var invA, invB int64
		logA, invA = regrouped.apply(updates, logA[:0], nil, true)
		logB, invB = relocated.apply(updates, logB[:0], nil, false)
		if invA != invB || invA == 0 {
			t.Fatalf("batch %d: invalid %d regrouped, %d relocated", batch, invA, invB)
		}
		if !slices.Equal(logA, logB) {
			t.Fatalf("batch %d: logs differ", batch)
		}
		checkSameIndex(t, batch, regrouped, relocated)
		checkGridConsistency(t, regrouped)
		checkGridConsistency(t, relocated)
		for c := range regrouped.cells {
			if !slices.IsSorted(regrouped.cells[c].objects) {
				t.Fatalf("batch %d: regrouped cell %d is not in id order: %v", batch, c, regrouped.cells[c].objects)
			}
		}
	}

	// A warm regroup allocates nothing.
	there, back := make([]model.Update, len(live)), make([]model.Update, len(live))
	for i, id := range live {
		there[i] = model.MoveUpdate(id, geom.Point{}, geom.Point{X: rng.Float64(), Y: rng.Float64()})
		back[i] = model.MoveUpdate(id, geom.Point{}, geom.Point{X: rng.Float64(), Y: rng.Float64()})
	}
	logA = make([]Applied, 0, len(live))
	if avg := testing.AllocsPerRun(50, func() {
		logA, _ = regrouped.apply(there, logA[:0], nil, true)
		logA, _ = regrouped.apply(back, logA[:0], nil, true)
	}); avg != 0 {
		t.Fatalf("warm regroup allocates %.1f/op, want 0", avg)
	}
}

// TestRegroupPays pins which batches the switch sends to a regroup: a batch
// that moves most of the population does, a single update and a batch
// moving half of a small population do not, and neither does one moving
// most objects of a store that is mostly dead ids.
func TestRegroupPays(t *testing.T) {
	g := NewUnit(128)
	for id := range model.ObjectID(5000) {
		mustInsert(t, g, id, geom.Point{X: 0.5, Y: 0.5})
	}
	for _, c := range []struct {
		n    int
		want bool
	}{{1, false}, {1250, false}, {2700, false}, {5000, true}, {10000, true}} {
		if got := g.regroupPays(c.n); got != c.want {
			t.Errorf("%d updates of 5000 objects: regroup %v, want %v", c.n, got, c.want)
		}
	}
	mustInsert(t, g, 200000, geom.Point{X: 0.5, Y: 0.5})
	if g.regroupPays(5000) {
		t.Errorf("5000 updates of 5001 objects in %d id slots: regroup, want relocation", len(g.alive))
	}
}

// BenchmarkApplyBatch times index maintenance alone — the log is filtered
// by an empty watch set — for both modes on a 128² grid with uniform
// objects, each batch moving a share of them up to 1.5 cells in id order and
// the next batch moving them back. ns/update is per update of the batch.
// The sparse cases space the ids 16 apart, as a stream that replaces objects
// under fresh ids leaves the store; the constants of regroupPays are read
// off all of them.
func BenchmarkApplyBatch(b *testing.B) {
	for _, n := range []int{5000, 10000, 50000} {
		for _, pct := range []int{10, 25, 54, 100} {
			benchApply(b, fmt.Sprintf("N=%d/moved=%d", n, pct), n, 1, pct)
		}
	}
	for _, pct := range []int{25, 54} {
		benchApply(b, fmt.Sprintf("N=10000/sparse/moved=%d", pct), 10000, 16, pct)
	}
}

func benchApply(b *testing.B, name string, n, spread, pct int) {
	const size = 128
	rng := rand.New(rand.NewSource(int64(n + spread + pct)))
	g := NewUnit(size)
	for i := range n {
		if err := g.Insert(model.ObjectID(i*spread), geom.Point{X: rng.Float64(), Y: rng.Float64()}); err != nil {
			b.Fatal(err)
		}
	}
	var there, back []model.Update
	step := 1.5 / size
	for i := range n {
		if rng.Intn(100) >= pct {
			continue
		}
		id := model.ObjectID(i * spread)
		p := g.positions[id]
		q := geom.Point{X: p.X + (2*rng.Float64()-1)*step, Y: p.Y + (2*rng.Float64()-1)*step}
		there = append(there, model.MoveUpdate(id, p, q))
		back = append(back, model.MoveUpdate(id, q, p))
	}
	var watch CellSet
	watch.Reset(size * size)
	away := false // whether the objects sit at their moved positions
	for _, mode := range []string{"relocate", "regroup"} {
		regroup := mode == "regroup"
		b.Run(name+"/"+mode, func(b *testing.B) {
			var log []Applied
			for range b.N {
				u := there
				if away {
					u = back
				}
				log, _ = g.apply(u, log[:0], &watch, regroup)
				away = !away
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(there)), "ns/update")
		})
	}
}
