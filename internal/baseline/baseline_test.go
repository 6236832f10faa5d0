package baseline

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"

	"cpm/internal/bruteforce"
	"cpm/internal/geom"
	"cpm/internal/grid"
	"cpm/internal/model"
)

// world mirrors object state for stream generation, one update per object
// per cycle (the stream model both baselines assume; see package comment).
type world struct {
	rng    *rand.Rand
	pos    map[model.ObjectID]geom.Point
	nextID model.ObjectID
}

func newWorld(seed int64) *world {
	return &world{rng: rand.New(rand.NewSource(seed)), pos: map[model.ObjectID]geom.Point{}}
}

func (w *world) randPoint() geom.Point {
	return geom.Point{X: w.rng.Float64(), Y: w.rng.Float64()}
}

func (w *world) populate(n int) map[model.ObjectID]geom.Point {
	out := make(map[model.ObjectID]geom.Point, n)
	for i := 0; i < n; i++ {
		p := w.randPoint()
		w.pos[w.nextID] = p
		out[w.nextID] = p
		w.nextID++
	}
	return out
}

func (w *world) liveIDs() []model.ObjectID {
	ids := make([]model.ObjectID, 0, len(w.pos))
	for id := range w.pos {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return ids
}

func (w *world) randomBatch(size int) model.Batch {
	var b model.Batch
	touched := map[model.ObjectID]bool{}
	ids := w.liveIDs()
	for i := 0; i < size; i++ {
		r := w.rng.Float64()
		switch {
		case r < 0.75 && len(ids) > 0:
			id := ids[w.rng.Intn(len(ids))]
			if touched[id] {
				continue
			}
			touched[id] = true
			old := w.pos[id]
			var to geom.Point
			if w.rng.Float64() < 0.5 {
				to = w.randPoint()
			} else {
				to = geom.Point{
					X: clampUnit(old.X + (w.rng.Float64()-0.5)*0.2),
					Y: clampUnit(old.Y + (w.rng.Float64()-0.5)*0.2),
				}
			}
			w.pos[id] = to
			b.Objects = append(b.Objects, model.MoveUpdate(id, old, to))
		case r < 0.88:
			id := w.nextID
			w.nextID++
			p := w.randPoint()
			w.pos[id] = p
			b.Objects = append(b.Objects, model.InsertUpdate(id, p))
		case len(ids) > 1:
			id := ids[w.rng.Intn(len(ids))]
			if touched[id] {
				continue
			}
			touched[id] = true
			old := w.pos[id]
			delete(w.pos, id)
			b.Objects = append(b.Objects, model.DeleteUpdate(id, old))
		}
	}
	return b
}

func clampUnit(v float64) float64 {
	if v < 0 {
		return 0
	}
	if v >= 1 {
		return math.Nextafter(1, 0)
	}
	return v
}

func oracleTopK(g *grid.Grid, q geom.Point, k int) []model.Neighbor {
	return bruteforce.TopK(g, q, k)
}

func checkResult(t *testing.T, label string, got, want []model.Neighbor) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: got %v, want %v", label, got, want)
	}
	const eps = 1e-9
	for i := range got {
		if math.Abs(got[i].Dist-want[i].Dist) > eps {
			t.Fatalf("%s: rank %d dist %v, want %v (got %v want %v)",
				label, i, got[i].Dist, want[i].Dist, got, want)
		}
	}
}

// monitorUnderTest builds each baseline for the shared conformance run.
func monitors(gridSize int) []model.Monitor {
	return []model.Monitor{NewUnitYPK(gridSize), NewUnitSEA(gridSize)}
}

func TestBaselinesInitialResults(t *testing.T) {
	for seed := int64(0); seed < 10; seed++ {
		w := newWorld(seed)
		objs := w.populate(1 + w.rng.Intn(250))
		for _, m := range monitors(16) {
			m.Bootstrap(objs)
			for i := 0; i < 10; i++ {
				id := model.QueryID(i)
				q := w.randPoint()
				k := 1 + w.rng.Intn(10)
				if err := m.RegisterQuery(id, q, k); err != nil {
					t.Fatal(err)
				}
				var g *grid.Grid
				switch mm := m.(type) {
				case *YPK:
					g = mm.Grid()
				case *SEA:
					g = mm.Grid()
				}
				checkResult(t, fmt.Sprintf("%s seed %d q%d", m.Name(), seed, i),
					m.Result(id), oracleTopK(g, q, k))
			}
		}
	}
}

func TestBaselinesMonitoring(t *testing.T) {
	for seed := int64(0); seed < 6; seed++ {
		w := newWorld(seed)
		objs := w.populate(120)
		ypk := NewUnitYPK(12)
		sea := NewUnitSEA(12)
		ypk.Bootstrap(objs)
		sea.Bootstrap(objs)

		type qdef struct {
			q geom.Point
			k int
		}
		defs := map[model.QueryID]qdef{}
		for i := 0; i < 6; i++ {
			id := model.QueryID(i)
			d := qdef{q: w.randPoint(), k: 1 + w.rng.Intn(6)}
			defs[id] = d
			if err := ypk.RegisterQuery(id, d.q, d.k); err != nil {
				t.Fatal(err)
			}
			if err := sea.RegisterQuery(id, d.q, d.k); err != nil {
				t.Fatal(err)
			}
		}
		for cycle := 0; cycle < 20; cycle++ {
			b := w.randomBatch(30)
			ypk.ProcessBatch(b)
			sea.ProcessBatch(b)
			for id, d := range defs {
				want := oracleTopK(ypk.Grid(), d.q, d.k)
				checkResult(t, fmt.Sprintf("YPK seed %d cycle %d q%d", seed, cycle, id),
					ypk.Result(id), want)
				checkResult(t, fmt.Sprintf("SEA seed %d cycle %d q%d", seed, cycle, id),
					sea.Result(id), want)
			}
		}
		if ypk.InvalidUpdates() != 0 || sea.InvalidUpdates() != 0 {
			t.Fatal("clean stream flagged invalid")
		}
	}
}

func TestBaselinesQueryMoves(t *testing.T) {
	for seed := int64(10); seed < 14; seed++ {
		w := newWorld(seed)
		objs := w.populate(150)
		ypk := NewUnitYPK(12)
		sea := NewUnitSEA(12)
		ypk.Bootstrap(objs)
		sea.Bootstrap(objs)
		pos := map[model.QueryID]geom.Point{}
		const k = 4
		for i := 0; i < 5; i++ {
			id := model.QueryID(i)
			pos[id] = w.randPoint()
			if err := ypk.RegisterQuery(id, pos[id], k); err != nil {
				t.Fatal(err)
			}
			if err := sea.RegisterQuery(id, pos[id], k); err != nil {
				t.Fatal(err)
			}
		}
		for cycle := 0; cycle < 12; cycle++ {
			b := w.randomBatch(25)
			// Move one query per cycle, terminate another near the end.
			movedID := model.QueryID(cycle % 5)
			to := w.randPoint()
			pos[movedID] = to
			b.Queries = append(b.Queries, model.QueryUpdate{
				ID: movedID, Kind: model.QueryMove, NewPoints: []geom.Point{to},
			})
			ypk.ProcessBatch(b)
			sea.ProcessBatch(b)
			for id, q := range pos {
				want := oracleTopK(ypk.Grid(), q, k)
				checkResult(t, fmt.Sprintf("YPK move seed %d cycle %d q%d", seed, cycle, id),
					ypk.Result(id), want)
				checkResult(t, fmt.Sprintf("SEA move seed %d cycle %d q%d", seed, cycle, id),
					sea.Result(id), want)
			}
		}
	}
}

func TestBaselineTerminate(t *testing.T) {
	w := newWorld(30)
	objs := w.populate(60)
	for _, m := range monitors(8) {
		m.Bootstrap(objs)
		if err := m.RegisterQuery(1, w.randPoint(), 3); err != nil {
			t.Fatal(err)
		}
		m.ProcessBatch(model.Batch{Queries: []model.QueryUpdate{{ID: 1, Kind: model.QueryTerminate}}})
		if m.Result(1) != nil {
			t.Errorf("%s: result after terminate", m.Name())
		}
		// Unknown terminations and installs flagged / ignored.
		m.ProcessBatch(model.Batch{Queries: []model.QueryUpdate{
			{ID: 9, Kind: model.QueryTerminate},
			{ID: 9, Kind: model.QueryInstall},
			{ID: 9, Kind: model.QueryUpdateKind(9)},
		}})
	}
}

func TestBaselineRegistrationErrors(t *testing.T) {
	for _, m := range monitors(8) {
		if err := m.RegisterQuery(1, geom.Point{X: 0.5, Y: 0.5}, 0); err == nil {
			t.Errorf("%s: k=0 accepted", m.Name())
		}
		if err := m.RegisterQuery(1, geom.Point{X: 0.5, Y: 0.5}, 2); err != nil {
			t.Fatal(err)
		}
		if err := m.RegisterQuery(1, geom.Point{X: 0.5, Y: 0.5}, 2); err == nil {
			t.Errorf("%s: duplicate id accepted", m.Name())
		}
	}
}

func TestBaselineKLargerThanPopulation(t *testing.T) {
	w := newWorld(31)
	objs := w.populate(3)
	for _, m := range monitors(8) {
		m.Bootstrap(objs)
		if err := m.RegisterQuery(1, geom.Point{X: 0.5, Y: 0.5}, 10); err != nil {
			t.Fatal(err)
		}
		if got := m.Result(1); len(got) != 3 {
			t.Errorf("%s: got %d results, want 3", m.Name(), len(got))
		}
		// Insert more objects; the result should grow.
		m.ProcessBatch(model.Batch{Objects: []model.Update{
			model.InsertUpdate(100, geom.Point{X: 0.51, Y: 0.5}),
		}})
		if got := m.Result(1); len(got) != 4 {
			t.Errorf("%s: got %d results after insert, want 4", m.Name(), len(got))
		}
	}
}

func TestBaselineDeleteOfNN(t *testing.T) {
	objs := map[model.ObjectID]geom.Point{
		1: {X: 0.52, Y: 0.5},
		2: {X: 0.6, Y: 0.6},
	}
	q := geom.Point{X: 0.5, Y: 0.5}
	for _, m := range monitors(8) {
		m.Bootstrap(objs)
		if err := m.RegisterQuery(1, q, 1); err != nil {
			t.Fatal(err)
		}
		m.ProcessBatch(model.Batch{Objects: []model.Update{
			model.DeleteUpdate(1, objs[1]),
		}})
		got := m.Result(1)
		if len(got) != 1 || got[0].ID != 2 {
			t.Errorf("%s: result after NN delete = %v, want object 2", m.Name(), got)
		}
	}
}

func TestBaselineInvalidUpdates(t *testing.T) {
	for _, m := range monitors(8) {
		m.Bootstrap(map[model.ObjectID]geom.Point{1: {X: 0.5, Y: 0.5}})
		m.ProcessBatch(model.Batch{Objects: []model.Update{
			model.MoveUpdate(99, geom.Point{}, geom.Point{X: 0.1, Y: 0.1}),
			model.DeleteUpdate(98, geom.Point{}),
			model.InsertUpdate(1, geom.Point{X: 0.2, Y: 0.2}),
			{ID: 5, Kind: model.UpdateKind(7)},
		}})
		var invalid int64
		switch mm := m.(type) {
		case *YPK:
			invalid = mm.InvalidUpdates()
		case *SEA:
			invalid = mm.InvalidUpdates()
		}
		if invalid != 4 {
			t.Errorf("%s: invalid = %d, want 4", m.Name(), invalid)
		}
	}
}

// TestSEARegionBookkeeping: after every cycle, the cells carrying a SEA
// query's book-keeping are exactly those intersecting its answer region.
func TestSEARegionBookkeeping(t *testing.T) {
	w := newWorld(41)
	sea := NewUnitSEA(10)
	sea.Bootstrap(w.populate(100))
	if err := sea.RegisterQuery(1, w.randPoint(), 3); err != nil {
		t.Fatal(err)
	}
	for cycle := 0; cycle < 10; cycle++ {
		sea.ProcessBatch(w.randomBatch(20))
		qu := sea.queries[1]
		want := map[grid.CellIndex]bool{}
		sea.g.CellsInCircle(qu.point, qu.bestDist, func(c grid.CellIndex) { want[c] = true })
		got := map[grid.CellIndex]bool{}
		for _, c := range qu.region {
			got[c] = true
			if !sea.infl.Has(c, 1) {
				t.Fatalf("cycle %d: region cell %d lacks influence entry", cycle, c)
			}
		}
		if len(got) != len(want) || sea.infl.Entries() != int64(len(qu.region)) {
			t.Fatalf("cycle %d: region has %d cells (%d index entries), want %d", cycle, len(got), sea.infl.Entries(), len(want))
		}
		for c := range want {
			if !got[c] {
				t.Fatalf("cycle %d: cell %d missing from region", cycle, c)
			}
		}
	}
}

// TestYPKAlwaysReevaluates: YPK-CNN touches the grid for every query every
// cycle even when nothing moved — the cost profile CPM avoids.
func TestYPKAlwaysReevaluates(t *testing.T) {
	w := newWorld(42)
	ypk := NewUnitYPK(10)
	ypk.Bootstrap(w.populate(100))
	if err := ypk.RegisterQuery(1, w.randPoint(), 3); err != nil {
		t.Fatal(err)
	}
	before := ypk.Grid().CellAccesses()
	ypk.ProcessBatch(model.Batch{}) // empty cycle
	if ypk.Grid().CellAccesses() == before {
		t.Error("YPK-CNN did not re-evaluate on an empty cycle")
	}
}

func TestBaselineMemoryFootprint(t *testing.T) {
	w := newWorld(43)
	objs := w.populate(50)
	ypk := NewUnitYPK(8)
	sea := NewUnitSEA(8)
	ypk.Bootstrap(objs)
	sea.Bootstrap(objs)
	if err := ypk.RegisterQuery(1, w.randPoint(), 4); err != nil {
		t.Fatal(err)
	}
	if err := sea.RegisterQuery(1, w.randPoint(), 4); err != nil {
		t.Fatal(err)
	}
	if ypk.MemoryFootprint() != 50*3+3+8 {
		t.Errorf("YPK footprint = %d", ypk.MemoryFootprint())
	}
	// SEA additionally pays one unit per answer-region cell.
	region := int64(len(sea.queries[1].region))
	if region == 0 || sea.infl.Entries() != region || sea.MemoryFootprint() != 50*3+3+8+region {
		t.Errorf("SEA footprint = %d with %d region cells", sea.MemoryFootprint(), region)
	}
}
