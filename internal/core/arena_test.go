package core

import (
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"cpm/internal/geom"
	"cpm/internal/model"
)

// refDiff is the map-based differ the engine used before the open-addressed
// table, kept as the property test's reference.
func refDiff(id model.QueryID, old, cur []model.Neighbor) model.ResultDiff {
	idx := make(map[model.ObjectID]int, len(old))
	for i := range old {
		idx[old[i].ID] = i
	}
	matched := make([]bool, len(old))
	d := model.ResultDiff{Query: id, Kind: model.DiffUpdate, Result: append([]model.Neighbor(nil), cur...)}
	for i, n := range cur {
		if j, ok := idx[n.ID]; ok {
			matched[j] = true
			if old[j].Dist != n.Dist || j != i {
				d.Reranked = append(d.Reranked, n)
			}
		} else {
			d.Entered = append(d.Entered, n)
		}
	}
	for j := range old {
		if !matched[j] {
			d.Exited = append(d.Exited, old[j].ID)
		}
	}
	return d
}

// randomResult draws a (Dist, ID)-sorted result of up to k members from a
// pool of ids about twice that size, with distances on a coarse lattice so
// that ties — equal Dist, ordered by id — are common.
func randomResult(rng *rand.Rand, k int) []model.Neighbor {
	n := k
	if rng.Intn(4) == 0 {
		n = rng.Intn(k + 1) // under-full and empty results
	}
	ids := rng.Perm(2*k + 2)[:n]
	out := make([]model.Neighbor, n)
	for i, id := range ids {
		out[i] = model.Neighbor{ID: model.ObjectID(id*7919 - 1000), Dist: float64(rng.Intn(k/2+2)) / 8}
	}
	sortNeighbors(out)
	return out
}

// TestDiffResultMatchesMapReference diffs random sorted old/cur pairs, ties
// and negative ids included, at every k the paper's experiments use and
// past the table's first size, against the map-based reference.
func TestDiffResultMatchesMapReference(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	e := newTestEngine(4, Options{})
	for _, k := range []int{1, 16, 64, 256} {
		for round := 0; round < 300; round++ {
			old := randomResult(rng, k)
			cur := randomResult(rng, k)
			if round%3 == 0 { // a small step from old: the monitoring case
				cur = slices.Clone(old)
				for i := range cur {
					if rng.Intn(8) == 0 {
						cur[i].Dist = float64(rng.Intn(k/2+2)) / 8
					}
				}
				sortNeighbors(cur)
			}
			got, want := e.diffResult(9, old, cur), refDiff(9, old, cur)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("k=%d round %d:\nold %v\ncur %v\ngot  %+v\nwant %+v", k, round, old, cur, got, want)
			}
		}
	}
}

// TestDiffEventsHeldAcrossTicks pins the ownership rule of arena-backed
// events: a consumer may hold every event of a long run — the chunks are
// handed off, never reused — and an append to any slice of an event
// reallocates (cap == len) instead of writing into the neighbouring event
// carved from the same chunk.
func TestDiffEventsHeldAcrossTicks(t *testing.T) {
	w := newWorld(7)
	e := newTestEngine(16, Options{})
	defer e.Close()
	e.EnableDiffs(true)
	e.Bootstrap(w.populate(400))
	for q := model.QueryID(0); q < 24; q++ {
		if err := e.RegisterQuery(q, w.randPoint(), 1+int(q)%9); err != nil {
			t.Fatal(err)
		}
	}
	if err := e.RegisterRange(24, geom.Point{X: 0.5, Y: 0.5}, 0.2); err != nil {
		t.Fatal(err)
	}
	var held, want []model.ResultDiff
	hold := func() {
		for _, d := range e.TakeDiffs() {
			held = append(held, d)
			want = append(want, model.ResultDiff{
				Query: d.Query, Kind: d.Kind,
				Entered: slices.Clone(d.Entered), Exited: slices.Clone(d.Exited),
				Reranked: slices.Clone(d.Reranked), Result: slices.Clone(d.Result),
			})
		}
	}
	hold()
	for tick := 0; tick < 100; tick++ {
		b := w.randomBatch(60, false)
		if tick%10 == 9 { // a query moves and one is replaced: install and remove events
			b.Queries = append(b.Queries, model.QueryUpdate{ID: 3, Kind: model.QueryMove, NewPoints: []geom.Point{w.randPoint()}})
			e.RemoveQuery(5)
			if err := e.RegisterQuery(5, w.randPoint(), 4); err != nil {
				t.Fatal(err)
			}
		}
		e.ProcessBatch(b)
		hold()
	}
	if len(held) < 500 {
		t.Fatalf("only %d events in 100 ticks; the scenario is too idle", len(held))
	}
	check := func(stage string) {
		t.Helper()
		for i := range held {
			if !reflect.DeepEqual(held[i], want[i]) {
				t.Fatalf("%s: held event %d changed:\ngot  %+v\nwant %+v", stage, i, held[i], want[i])
			}
		}
	}
	check("after 100 ticks")
	for i, d := range held {
		if cap(d.Result) != len(d.Result) || cap(d.Entered) != len(d.Entered) ||
			cap(d.Reranked) != len(d.Reranked) || cap(d.Exited) != len(d.Exited) {
			t.Fatalf("event %d has spare capacity: an append would write into shared storage", i)
		}
		_ = append(d.Result, model.Neighbor{ID: -1, Dist: -1})
		_ = append(d.Entered, model.Neighbor{ID: -1, Dist: -1})
		_ = append(d.Reranked, model.Neighbor{ID: -1, Dist: -1})
		_ = append(d.Exited, -1)
	}
	check("after appending to every slice")
}

// TestDiffComposeAfterRemoveInWindow: a remove event holds a slot in the
// window like any other, so a query that changes twice after it still
// composes against its own base (the bases run parallel to the events).
func TestDiffComposeAfterRemoveInWindow(t *testing.T) {
	e := diffEngine(t)
	for q := model.QueryID(1); q <= 2; q++ {
		if err := e.RegisterQuery(q, geom.Point{X: 0.5, Y: 0.5}, 2); err != nil {
			t.Fatal(err)
		}
	}
	e.TakeDiffs()
	e.RemoveQuery(1)
	// Two cycles without a take in between: query 2 changes in both.
	e.ProcessBatch(model.Batch{Objects: []model.Update{
		model.MoveUpdate(4, geom.Point{X: 0.90, Y: 0.90}, geom.Point{X: 0.50, Y: 0.51}),
	}})
	e.ProcessBatch(model.Batch{Objects: []model.Update{
		model.MoveUpdate(3, geom.Point{X: 0.60, Y: 0.58}, geom.Point{X: 0.50, Y: 0.50}),
	}})
	diffs := e.TakeDiffs()
	if len(diffs) != 2 || diffs[0].Kind != model.DiffRemove || diffs[1].Query != 2 {
		t.Fatalf("diffs = %+v, want the remove of query 1 and one composed event for query 2", diffs)
	}
	// Composed against the result before the window, {2, 5}.
	if d := diffs[1]; !slices.Equal(d.Exited, []model.ObjectID{2, 5}) || len(d.Entered) != 2 {
		t.Fatalf("composed event = %+v, want 2 and 5 exited, 3 and 4 entered", d)
	}
}

// TestDiffMoveThenTerminateInOneBatch: the notes of a batch's moves are
// deferred to one pass, but a query that is terminated later in the same
// batch is noted before it goes — its remove event lists what the client
// last saw, and nothing is said about it afterwards.
func TestDiffMoveThenTerminateInOneBatch(t *testing.T) {
	e := diffEngine(t)
	for q := model.QueryID(1); q <= 2; q++ {
		if err := e.RegisterQuery(q, geom.Point{X: 0.5, Y: 0.5}, 2); err != nil {
			t.Fatal(err)
		}
	}
	e.TakeDiffs()
	far := []geom.Point{{X: 0.9, Y: 0.9}}
	e.ProcessBatch(model.Batch{Queries: []model.QueryUpdate{
		{ID: 1, Kind: model.QueryMove, NewPoints: far},
		{ID: 2, Kind: model.QueryMove, NewPoints: far},
		{ID: 1, Kind: model.QueryTerminate},
	}})
	diffs := e.TakeDiffs()
	if len(diffs) != 2 || diffs[0].Kind != model.DiffRemove || diffs[1].Kind != model.DiffUpdate {
		t.Fatalf("diffs = %+v, want the remove of query 1 and the update of query 2", diffs)
	}
	if !slices.Equal(diffs[0].Exited, []model.ObjectID{2, 5}) {
		t.Fatalf("remove lists %v, want what the client last saw: 2 and 5", diffs[0].Exited)
	}
	if got := e.ChangedQueries(); !slices.Equal(got, []model.QueryID{1, 2}) {
		t.Fatalf("changed = %v, want [1 2]", got)
	}
}
