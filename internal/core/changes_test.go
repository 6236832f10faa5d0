package core

import (
	"fmt"
	"testing"

	"cpm/internal/geom"
	"cpm/internal/model"
)

func TestChangedQueriesBasics(t *testing.T) {
	e := newTestEngine(16, Options{})
	e.Bootstrap(map[model.ObjectID]geom.Point{
		1: {X: 0.52, Y: 0.5},
		2: {X: 0.6, Y: 0.6},
		3: {X: 0.9, Y: 0.9},
	})
	if err := e.RegisterQuery(1, geom.Point{X: 0.5, Y: 0.5}, 1); err != nil {
		t.Fatal(err)
	}
	if got := e.ChangedQueries(); len(got) != 1 || got[0] != 1 {
		t.Fatalf("changes after install = %v", got)
	}

	// A far-away move changes nothing.
	e.ProcessBatch(model.Batch{Objects: []model.Update{
		model.MoveUpdate(3, geom.Point{X: 0.9, Y: 0.9}, geom.Point{X: 0.85, Y: 0.85}),
	}})
	if got := e.ChangedQueries(); got != nil {
		t.Fatalf("changes after irrelevant move = %v", got)
	}

	// A new nearest neighbor is a change.
	e.ProcessBatch(model.Batch{Objects: []model.Update{
		model.MoveUpdate(2, geom.Point{X: 0.6, Y: 0.6}, geom.Point{X: 0.505, Y: 0.5}),
	}})
	if got := e.ChangedQueries(); len(got) != 1 || got[0] != 1 {
		t.Fatalf("changes after new NN = %v", got)
	}

	// The NN moving within best_dist changes the reported distance — that
	// counts as a change too.
	e.ProcessBatch(model.Batch{Objects: []model.Update{
		model.MoveUpdate(2, geom.Point{X: 0.505, Y: 0.5}, geom.Point{X: 0.503, Y: 0.5}),
	}})
	if got := e.ChangedQueries(); len(got) != 1 {
		t.Fatalf("changes after in-place distance update = %v", got)
	}

	// Termination is a final change.
	e.ProcessBatch(model.Batch{Queries: []model.QueryUpdate{{ID: 1, Kind: model.QueryTerminate}}})
	if got := e.ChangedQueries(); len(got) != 1 || got[0] != 1 {
		t.Fatalf("changes after terminate = %v", got)
	}
	// And the set resets next cycle.
	e.ProcessBatch(model.Batch{})
	if got := e.ChangedQueries(); got != nil {
		t.Fatalf("changes after empty cycle = %v", got)
	}
}

func TestChangedQueriesRange(t *testing.T) {
	e := newTestEngine(16, Options{})
	e.Bootstrap(map[model.ObjectID]geom.Point{
		1: {X: 0.52, Y: 0.5},
		2: {X: 0.9, Y: 0.9},
	})
	if err := e.RegisterRange(7, geom.Point{X: 0.5, Y: 0.5}, 0.1); err != nil {
		t.Fatal(err)
	}
	e.ProcessBatch(model.Batch{Objects: []model.Update{
		model.MoveUpdate(2, geom.Point{X: 0.9, Y: 0.9}, geom.Point{X: 0.55, Y: 0.5}),
	}})
	if got := e.ChangedQueries(); len(got) != 1 || got[0] != 7 {
		t.Fatalf("changes after range entry = %v", got)
	}
	// Movement inside the fence that keeps membership still changes
	// distances; movement outside it entirely changes nothing.
	e.ProcessBatch(model.Batch{Objects: []model.Update{
		model.MoveUpdate(2, geom.Point{X: 0.55, Y: 0.5}, geom.Point{X: 0.56, Y: 0.5}),
	}})
	if got := e.ChangedQueries(); len(got) != 1 {
		t.Fatalf("changes after in-fence move = %v", got)
	}
}

// TestChangedQueriesMatchesDiff cross-checks the notification set against
// explicit before/after result diffs over random workloads.
func TestChangedQueriesMatchesDiff(t *testing.T) {
	for seed := int64(300); seed < 305; seed++ {
		w := newWorld(seed)
		e := newTestEngine(12, Options{})
		e.Bootstrap(w.populate(150))
		ids := []model.QueryID{}
		for i := 0; i < 6; i++ {
			id := model.QueryID(i)
			if err := e.RegisterQuery(id, w.randPoint(), 1+w.rng.Intn(5)); err != nil {
				t.Fatal(err)
			}
			ids = append(ids, id)
		}
		if err := e.RegisterRange(100, w.randPoint(), 0.2); err != nil {
			t.Fatal(err)
		}
		ids = append(ids, 100)
		for cycle := 0; cycle < 15; cycle++ {
			before := map[model.QueryID]string{}
			for _, id := range ids {
				before[id] = fingerprint(e, id)
			}
			e.ProcessBatch(w.randomBatch(30, false))
			notified := map[model.QueryID]bool{}
			for _, id := range e.ChangedQueries() {
				notified[id] = true
			}
			for _, id := range ids {
				changed := before[id] != fingerprint(e, id)
				if changed && !notified[id] {
					t.Fatalf("seed %d cycle %d: query %d changed but not notified", seed, cycle, id)
				}
				if !changed && notified[id] {
					t.Fatalf("seed %d cycle %d: query %d notified without change", seed, cycle, id)
				}
			}
		}
	}
}

func fingerprint(e *testEngine, id model.QueryID) string {
	var res []model.Neighbor
	if e.IsRange(id) {
		res = e.RangeResult(id)
	} else {
		res = e.Result(id)
	}
	return fmt.Sprint(res)
}
