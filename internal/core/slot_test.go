package core

import (
	"fmt"
	"reflect"
	"slices"
	"testing"

	"cpm/internal/geom"
	"cpm/internal/grid"
	"cpm/internal/model"
)

// slotTenant is one query a test keeps installed: what it is, so the oracle
// can be asked, and nothing about where the engine keeps it.
type slotTenant struct {
	def    Def     // k-NN definition; Points[0] is a range query's center
	radius float64 // > 0: a range query
}

func (q slotTenant) register(e *testEngine, id model.QueryID) error {
	if q.radius > 0 {
		return e.RegisterRange(id, q.def.Points[0], q.radius)
	}
	return e.Register(id, q.def)
}

func (q slotTenant) check(t *testing.T, e *testEngine, label string, id model.QueryID) {
	t.Helper()
	if q.radius > 0 {
		checkResult(t, label, e.RangeResult(id), rangeOracle(e, q.def.Points[0], q.radius))
		return
	}
	checkResult(t, label, e.Result(id), oracle(e, q.def))
	checkInvariants(t, e, id)
}

// TestSlotReuse pins the recycling of query-table slots: a slot parked by
// RemoveQuery and re-armed under another id, as another kind and with a
// larger k than its lists ever held, behaves exactly like a fresh one — its
// results match the oracle from then on, the old id holds no influence
// anywhere, its book-keeping is what a never-recycled engine builds for the
// same query — and a remove plus register of one id inside one take window
// still composes into a remove event and an install event whose result is
// the one at the take. The diff stream is replayed throughout: what a
// subscriber reconstructs is what the engine holds.
func TestSlotReuse(t *testing.T) {
	for _, opts := range []Options{{}, {PerUpdate: true}, {DropBookkeeping: true}} {
		t.Run(fmt.Sprintf("%+v", opts), func(t *testing.T) { testSlotReuse(t, opts) })
	}
}

func testSlotReuse(t *testing.T, opts Options) {
	w := newWorld(23)
	objs := w.populate(600)
	e := newTestEngine(16, opts)
	e.EnableDiffs(true)
	e.Bootstrap(objs)
	// The reference engine sees the same objects but registers every query
	// into a slot no one has used.
	ref := newTestEngine(16, opts)
	ref.Bootstrap(objs)

	region := geom.Rect{Lo: geom.Point{X: 0.3, Y: 0.3}, Hi: geom.Point{X: 0.9, Y: 0.9}}
	live := map[model.QueryID]slotTenant{
		0: {def: PointQuery(w.randPoint(), 2)},
		1: {def: AggQuery([]geom.Point{w.randPoint(), w.randPoint()}, 3, geom.AggSum)},
		2: {def: Def{Points: []geom.Point{{X: 0.5, Y: 0.6}}, K: 4, Constraint: &region}},
		3: {def: PointQuery(w.randPoint(), 0), radius: 0.12},
		4: {def: PointQuery(w.randPoint(), 5)},
		5: {def: PointQuery(w.randPoint(), 3)},
	}
	for id := model.QueryID(0); id < 6; id++ {
		if err := live[id].register(e, id); err != nil {
			t.Fatal(err)
		}
	}

	// The subscriber's view, rebuilt from the diff stream alone.
	replay := map[model.QueryID]map[model.ObjectID]float64{}
	take := func() []model.ResultDiff {
		diffs := e.TakeDiffs()
		for _, d := range diffs {
			if d.Kind == model.DiffRemove {
				delete(replay, d.Query)
				continue
			}
			set := replay[d.Query]
			if set == nil || d.Kind == model.DiffInstall {
				set = map[model.ObjectID]float64{}
				replay[d.Query] = set
			}
			for _, id := range d.Exited {
				delete(set, id)
			}
			for _, n := range append(d.Entered, d.Reranked...) {
				set[n.ID] = n.Dist
			}
		}
		return diffs
	}
	verify := func(stage string) {
		t.Helper()
		for id, q := range live {
			q.check(t, e, fmt.Sprintf("%s q%d", stage, id), id)
			got := e.Result(id)
			if q.radius > 0 {
				got = e.RangeResult(id)
			}
			want := map[model.ObjectID]float64{}
			for _, n := range got {
				want[n.ID] = n.Dist
			}
			if !reflect.DeepEqual(replay[id], want) {
				t.Fatalf("%s q%d: the diff stream replays to %v, the engine holds %v", stage, id, replay[id], want)
			}
		}
		if len(replay) != len(live) {
			t.Fatalf("%s: the diff stream knows %d queries, %d are installed", stage, len(replay), len(live))
		}
	}
	tick := func(stage string) {
		t.Helper()
		b := w.randomBatch(60, opts.PerUpdate)
		e.ProcessBatch(b)
		ref.ProcessBatch(model.Batch{Objects: b.Objects})
		take()
		verify(stage)
	}
	take()
	for i := 0; i < 5; i++ {
		tick("warm")
	}

	// Re-arm query 0's slot three times over: as a range query, as an
	// aggregate, as a point query with a k far past anything its lists held.
	next := []slotTenant{
		{def: PointQuery(w.randPoint(), 0), radius: 0.2},
		{def: AggQuery([]geom.Point{w.randPoint(), w.randPoint(), w.randPoint()}, 6, geom.AggMax)},
		{def: PointQuery(w.randPoint(), 40)},
	}
	old := model.QueryID(0)
	slot, slots := e.ids[old], len(e.slots)
	for i, q := range next {
		id := model.QueryID(100 + i)
		e.RemoveQuery(old)
		delete(live, old)
		if len(e.free) != 1 || e.free[0] != slot {
			t.Fatalf("removing query %d parked %d slots, want its own", old, len(e.free))
		}
		if err := q.register(e, id); err != nil {
			t.Fatal(err)
		}
		live[id] = q
		if e.ids[id] != slot || len(e.slots) != slots || len(e.free) != 0 {
			t.Fatalf("query %d did not re-arm the slot query %d parked (table %d → %d)", id, old, slots, len(e.slots))
		}
		if e.HasQuery(old) || e.Result(old) != nil || e.RangeResult(old) != nil {
			t.Fatalf("query %d outlives its removal", old)
		}
		// Both are news in this notification window, even if the slot's last
		// tenant had already been reported changed in it.
		if changed := e.ChangedQueries(); !slices.Contains(changed, old) || !slices.Contains(changed, id) {
			t.Fatalf("changed = %v after query %d made way for query %d", changed, old, id)
		}
		for c := 0; c < 16*16; c++ {
			if e.HasInfluence(grid.CellIndex(c), old) {
				t.Fatalf("removed query %d still holds influence on cell %d", old, c)
			}
		}
		if err := q.register(ref, id); err != nil {
			t.Fatal(err)
		}
		// Both read installed: a search from scratch owes its book-keeping
		// until the install step builds it.
		e.installPending()
		ref.installPending()
		gv, gh, gi := e.Bookkeeping(id)
		wv, wh, wi := ref.Bookkeeping(id)
		if gv != wv || gh != wh || gi != wi {
			t.Fatalf("query %d in a recycled slot has book-keeping (%d, %d, %d), in a fresh one (%d, %d, %d)", id, gv, gh, gi, wv, wh, wi)
		}
		take()
		verify(fmt.Sprintf("re-armed as %d", id))
		for j := 0; j < 4; j++ {
			tick(fmt.Sprintf("after re-arm %d", id))
		}
		old = id
	}

	// A parked slot counts for nothing: removing a query takes exactly its
	// Section 4.1 units off the footprint, whatever its buffers keep.
	visit, heap, influence := e.Bookkeeping(4)
	units := int64(influence + 3*len(live[4].def.Points) + 2*live[4].def.K + 3*(visit+heap))
	footprint := e.MemoryFootprint()
	e.RemoveQuery(4)
	delete(live, 4)
	if got := e.MemoryFootprint(); got != footprint-units {
		t.Fatalf("footprint %d after removing a query of %d units from %d", got, units, footprint)
	}
	take()

	// One id removed and registered again — elsewhere, with another k — with
	// a batch on top, all inside one take window.
	before := e.Result(5)
	e.RemoveQuery(5)
	q := slotTenant{def: PointQuery(w.randPoint(), 7)}
	if err := q.register(e, 5); err != nil {
		t.Fatal(err)
	}
	live[5] = q
	e.ProcessBatch(w.randomBatch(60, opts.PerUpdate))
	var mine []model.ResultDiff
	for _, d := range take() {
		if d.Query == 5 {
			mine = append(mine, d)
		}
	}
	if len(mine) != 2 || mine[0].Kind != model.DiffRemove || mine[1].Kind != model.DiffInstall {
		t.Fatalf("remove+register of query 5 in one window gave %+v, want a remove and an install", mine)
	}
	for i, n := range before {
		if len(mine[0].Exited) != len(before) || mine[0].Exited[i] != n.ID {
			t.Fatalf("the remove lists %v, the subscriber last saw %v", mine[0].Exited, before)
		}
	}
	if !reflect.DeepEqual(mine[1].Result, e.Result(5)) || !reflect.DeepEqual(mine[1].Entered, mine[1].Result) {
		t.Fatalf("the install carries %v (entered %v), the engine holds %v", mine[1].Result, mine[1].Entered, e.Result(5))
	}
	verify("after remove+register in one window")
}
