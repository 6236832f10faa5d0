package core

import (
	"fmt"
	"math"
	"testing"

	"cpm/internal/geom"
	"cpm/internal/model"
)

// runMonitoring drives an engine over random update batches, checking every
// installed query against the oracle after every cycle.
func runMonitoring(t *testing.T, seed int64, opts Options, cycles, batchSize int, allowRepeats bool) {
	t.Helper()
	w := newWorld(seed)
	e := newTestEngine(8+int(seed%3)*8, opts)
	e.Bootstrap(w.populate(150))

	defs := map[model.QueryID]Def{}
	for i := 0; i < 8; i++ {
		id := model.QueryID(i)
		var def Def
		switch i % 4 {
		case 0, 1:
			def = PointQuery(w.randPoint(), 1+w.rng.Intn(8))
		case 2:
			pts := []geom.Point{w.randPoint(), w.randPoint(), w.randPoint()}
			def = AggQuery(pts, 1+w.rng.Intn(4), geom.Agg(w.rng.Intn(3)))
		case 3:
			def = PointQuery(w.randPoint(), 1+w.rng.Intn(4))
			lo := geom.Point{X: w.rng.Float64() * 0.5, Y: w.rng.Float64() * 0.5}
			region := geom.Rect{Lo: lo, Hi: geom.Point{X: lo.X + 0.5, Y: lo.Y + 0.5}}
			def.Constraint = &region
		}
		defs[id] = def
		if err := e.Register(id, def); err != nil {
			t.Fatal(err)
		}
	}

	for cycle := 0; cycle < cycles; cycle++ {
		b := w.randomBatch(batchSize, allowRepeats)
		e.ProcessBatch(b)
		for id, def := range defs {
			label := fmt.Sprintf("seed %d cycle %d query %d", seed, cycle, id)
			checkResult(t, label, e.Result(id), oracle(e, def))
			checkInvariants(t, e, id)
		}
	}
	if e.InvalidUpdates() != 0 {
		t.Fatalf("engine flagged %d invalid updates on a clean stream", e.InvalidUpdates())
	}
}

func TestMonitoringMatchesOracle(t *testing.T) {
	for seed := int64(0); seed < 8; seed++ {
		runMonitoring(t, seed, Options{}, 25, 40, false)
	}
}

func TestMonitoringWithRepeatedUpdates(t *testing.T) {
	// Several updates for the same object within one batch stress the
	// in_list/out_count bookkeeping (stale-incomer removal).
	for seed := int64(20); seed < 26; seed++ {
		runMonitoring(t, seed, Options{}, 20, 60, true)
	}
}

func TestMonitoringPerUpdateAblation(t *testing.T) {
	for seed := int64(40); seed < 44; seed++ {
		runMonitoring(t, seed, Options{PerUpdate: true}, 12, 25, false)
	}
}

func TestMonitoringDropBookkeeping(t *testing.T) {
	for seed := int64(60); seed < 64; seed++ {
		runMonitoring(t, seed, Options{DropBookkeeping: true}, 15, 40, false)
	}
}

// TestShortCircuitNoGridAccess reproduces the Figure 4.3a scenario: when an
// object simply moves closer to the query than best_dist, CPM must update
// the result without visiting any cell.
func TestShortCircuitNoGridAccess(t *testing.T) {
	e := newTestEngine(8, Options{})
	e.Bootstrap(map[model.ObjectID]geom.Point{
		1: {X: 0.52, Y: 0.5}, // current NN
		2: {X: 0.9, Y: 0.9},
		3: {X: 0.1, Y: 0.9},
	})
	q := geom.Point{X: 0.5, Y: 0.5}
	if err := e.RegisterQuery(1, q, 1); err != nil {
		t.Fatal(err)
	}
	// The install step builds the registration's book-keeping and counts
	// its cells: they are the search's, not the update handling's.
	e.installPending()
	before := e.Stats().CellAccesses
	// Object 2 moves next to q: it becomes the NN via the incomer path.
	e.ProcessBatch(model.Batch{Objects: []model.Update{
		model.MoveUpdate(2, geom.Point{X: 0.9, Y: 0.9}, geom.Point{X: 0.505, Y: 0.5}),
	}})
	if got := e.Result(1); len(got) != 1 || got[0].ID != 2 {
		t.Fatalf("result = %v, want object 2", got)
	}
	if acc := e.Stats().CellAccesses - before; acc != 0 {
		t.Fatalf("short-circuit path accessed %d cells, want 0", acc)
	}
	if e.Stats().ShortCircuits == 0 {
		t.Error("ShortCircuits counter not incremented")
	}
}

// TestOutgoingTriggersRecomputation reproduces Figure 3.5b: the NN moves
// away, no incomer compensates, so re-computation must run and find the
// true new NN.
func TestOutgoingTriggersRecomputation(t *testing.T) {
	e := newTestEngine(8, Options{})
	e.Bootstrap(map[model.ObjectID]geom.Point{
		1: {X: 0.52, Y: 0.5},
		2: {X: 0.6, Y: 0.6},
	})
	q := geom.Point{X: 0.5, Y: 0.5}
	if err := e.RegisterQuery(1, q, 1); err != nil {
		t.Fatal(err)
	}
	e.ProcessBatch(model.Batch{Objects: []model.Update{
		model.MoveUpdate(1, geom.Point{X: 0.52, Y: 0.5}, geom.Point{X: 0.05, Y: 0.05}),
	}})
	if got := e.Result(1); len(got) != 1 || got[0].ID != 2 {
		t.Fatalf("result = %v, want object 2", got)
	}
	if e.Stats().Recomputations == 0 {
		t.Error("Recomputations counter not incremented")
	}
	checkInvariants(t, e, 1)
}

// TestOutgoingCancelledByIncomer reproduces Figure 3.7: the NN leaves but
// another object enters closer — the batched handler must avoid
// re-computation entirely.
func TestOutgoingCancelledByIncomer(t *testing.T) {
	e := newTestEngine(8, Options{})
	e.Bootstrap(map[model.ObjectID]geom.Point{
		1: {X: 0.52, Y: 0.5}, // p2 of the figure: the current NN
		2: {X: 0.9, Y: 0.9},  // p3: will move next to q
		3: {X: 0.3, Y: 0.8},
	})
	q := geom.Point{X: 0.5, Y: 0.5}
	if err := e.RegisterQuery(1, q, 1); err != nil {
		t.Fatal(err)
	}
	recomputeBefore := e.Stats().Recomputations
	e.ProcessBatch(model.Batch{Objects: []model.Update{
		model.MoveUpdate(1, geom.Point{X: 0.52, Y: 0.5}, geom.Point{X: 0.95, Y: 0.05}),
		model.MoveUpdate(2, geom.Point{X: 0.9, Y: 0.9}, geom.Point{X: 0.51, Y: 0.5}),
	}})
	if got := e.Result(1); len(got) != 1 || got[0].ID != 2 {
		t.Fatalf("result = %v, want object 2", got)
	}
	if e.Stats().Recomputations != recomputeBefore {
		t.Error("batched handler re-computed despite compensating incomer")
	}
	checkInvariants(t, e, 1)
}

// TestPerUpdateRecomputesWhereBatchWouldNot: the same Figure 3.7 scenario
// under the PerUpdate ablation must trigger a re-computation, demonstrating
// what batching saves.
func TestPerUpdateRecomputesWhereBatchWouldNot(t *testing.T) {
	e := newTestEngine(8, Options{PerUpdate: true})
	e.Bootstrap(map[model.ObjectID]geom.Point{
		1: {X: 0.52, Y: 0.5},
		2: {X: 0.9, Y: 0.9},
		3: {X: 0.3, Y: 0.8},
	})
	q := geom.Point{X: 0.5, Y: 0.5}
	if err := e.RegisterQuery(1, q, 1); err != nil {
		t.Fatal(err)
	}
	e.ProcessBatch(model.Batch{Objects: []model.Update{
		model.MoveUpdate(1, geom.Point{X: 0.52, Y: 0.5}, geom.Point{X: 0.95, Y: 0.05}),
		model.MoveUpdate(2, geom.Point{X: 0.9, Y: 0.9}, geom.Point{X: 0.51, Y: 0.5}),
	}})
	if got := e.Result(1); len(got) != 1 || got[0].ID != 2 {
		t.Fatalf("result = %v, want object 2", got)
	}
	if e.Stats().Recomputations == 0 {
		t.Error("per-update ablation should have re-computed")
	}
}

// TestDeleteOfNN: off-line NNs are outgoing NNs (Section 4.2).
func TestDeleteOfNN(t *testing.T) {
	e := newTestEngine(8, Options{})
	e.Bootstrap(map[model.ObjectID]geom.Point{
		1: {X: 0.52, Y: 0.5},
		2: {X: 0.6, Y: 0.6},
	})
	q := geom.Point{X: 0.5, Y: 0.5}
	if err := e.RegisterQuery(1, q, 1); err != nil {
		t.Fatal(err)
	}
	e.ProcessBatch(model.Batch{Objects: []model.Update{
		model.DeleteUpdate(1, geom.Point{X: 0.52, Y: 0.5}),
	}})
	if got := e.Result(1); len(got) != 1 || got[0].ID != 2 {
		t.Fatalf("result = %v, want object 2", got)
	}
	checkInvariants(t, e, 1)
}

// TestUpdateFarAwayIgnored: updates outside every influence region must not
// touch any query bookkeeping (the "handling location updates only from
// objects in the vicinity of some query" claim).
func TestUpdateFarAwayIgnored(t *testing.T) {
	e := newTestEngine(16, Options{})
	e.Bootstrap(map[model.ObjectID]geom.Point{
		1: {X: 0.51, Y: 0.5},
		2: {X: 0.52, Y: 0.5},
		3: {X: 0.95, Y: 0.95},
		4: {X: 0.05, Y: 0.95},
	})
	q := geom.Point{X: 0.5, Y: 0.5}
	if err := e.RegisterQuery(1, q, 2); err != nil {
		t.Fatal(err)
	}
	e.installPending() // the registration's cells, counted at install
	accBefore := e.Stats().CellAccesses
	scBefore := e.Stats().ShortCircuits
	e.ProcessBatch(model.Batch{Objects: []model.Update{
		model.MoveUpdate(3, geom.Point{X: 0.95, Y: 0.95}, geom.Point{X: 0.9, Y: 0.9}),
		model.MoveUpdate(4, geom.Point{X: 0.05, Y: 0.95}, geom.Point{X: 0.1, Y: 0.9}),
	}})
	if acc := e.Stats().CellAccesses - accBefore; acc != 0 {
		t.Errorf("far updates caused %d cell accesses", acc)
	}
	if sc := e.Stats().ShortCircuits - scBefore; sc != 0 {
		t.Errorf("far updates touched %d queries", sc)
	}
	if got := e.Result(1); len(got) != 2 || got[0].ID != 1 || got[1].ID != 2 {
		t.Fatalf("result changed: %v", got)
	}
}

func TestQueryMoveViaBatch(t *testing.T) {
	w := newWorld(11)
	e := newTestEngine(16, Options{})
	e.Bootstrap(w.populate(200))
	if err := e.RegisterQuery(1, geom.Point{X: 0.2, Y: 0.2}, 4); err != nil {
		t.Fatal(err)
	}
	to := geom.Point{X: 0.8, Y: 0.75}
	b := w.randomBatch(30, false)
	b.Queries = []model.QueryUpdate{
		{ID: 1, Kind: model.QueryMove, NewPoints: []geom.Point{to}},
	}
	e.ProcessBatch(b)
	checkResult(t, "batch move", e.Result(1), oracle(e, PointQuery(to, 4)))
	checkInvariants(t, e, 1)
}

func TestQueryTerminateViaBatch(t *testing.T) {
	w := newWorld(12)
	e := newTestEngine(16, Options{})
	e.Bootstrap(w.populate(100))
	if err := e.RegisterQuery(1, w.randPoint(), 4); err != nil {
		t.Fatal(err)
	}
	b := w.randomBatch(10, false)
	b.Queries = []model.QueryUpdate{{ID: 1, Kind: model.QueryTerminate}}
	e.ProcessBatch(b)
	if e.Result(1) != nil {
		t.Error("terminated query still has a result")
	}
	// Terminating an unknown query is flagged, not fatal.
	e.ProcessBatch(model.Batch{Queries: []model.QueryUpdate{{ID: 77, Kind: model.QueryTerminate}}})
	if e.InvalidUpdates() == 0 {
		t.Error("unknown query termination not flagged")
	}
}

func TestInvalidObjectUpdates(t *testing.T) {
	e := newTestEngine(8, Options{})
	e.Bootstrap(map[model.ObjectID]geom.Point{1: {X: 0.5, Y: 0.5}})
	if err := e.RegisterQuery(1, geom.Point{X: 0.4, Y: 0.4}, 1); err != nil {
		t.Fatal(err)
	}
	e.ProcessBatch(model.Batch{Objects: []model.Update{
		model.MoveUpdate(99, geom.Point{}, geom.Point{X: 0.1, Y: 0.1}),  // unknown
		model.DeleteUpdate(98, geom.Point{}),                            // unknown
		model.InsertUpdate(1, geom.Point{X: 0.2, Y: 0.2}),               // duplicate
		{ID: 5, Kind: model.UpdateKind(9), New: geom.Point{X: 1, Y: 1}}, // bad kind
	}})
	if e.InvalidUpdates() != 4 {
		t.Errorf("InvalidUpdates = %d, want 4", e.InvalidUpdates())
	}
	// The valid state is untouched.
	if got := e.Result(1); len(got) != 1 || got[0].ID != 1 {
		t.Fatalf("result corrupted: %v", got)
	}
	checkInvariants(t, e, 1)
}

// TestChurnToEmptyAndBack drains the population below k and refills it.
func TestChurnToEmptyAndBack(t *testing.T) {
	e := newTestEngine(8, Options{})
	e.Bootstrap(map[model.ObjectID]geom.Point{
		0: {X: 0.1, Y: 0.1}, 1: {X: 0.2, Y: 0.2}, 2: {X: 0.3, Y: 0.3},
	})
	q := geom.Point{X: 0.5, Y: 0.5}
	if err := e.RegisterQuery(1, q, 2); err != nil {
		t.Fatal(err)
	}
	// Delete everything.
	e.ProcessBatch(model.Batch{Objects: []model.Update{
		model.DeleteUpdate(0, geom.Point{X: 0.1, Y: 0.1}),
		model.DeleteUpdate(1, geom.Point{X: 0.2, Y: 0.2}),
		model.DeleteUpdate(2, geom.Point{X: 0.3, Y: 0.3}),
	}})
	if len(e.Result(1)) != 0 {
		t.Fatalf("result on empty population: %v", e.Result(1))
	}
	checkInvariants(t, e, 1)
	// Refill.
	e.ProcessBatch(model.Batch{Objects: []model.Update{
		model.InsertUpdate(10, geom.Point{X: 0.55, Y: 0.5}),
		model.InsertUpdate(11, geom.Point{X: 0.45, Y: 0.5}),
		model.InsertUpdate(12, geom.Point{X: 0.9, Y: 0.9}),
	}})
	got := e.Result(1)
	if len(got) != 2 || got[0].ID != 11 || got[1].ID != 10 {
		t.Fatalf("result after refill = %v, want [11 10]", got)
	}
	checkInvariants(t, e, 1)
}

// TestManyQueriesSharedCells: queries with overlapping influence regions
// must not interfere through the shared influence lists.
func TestManyQueriesSharedCells(t *testing.T) {
	w := newWorld(13)
	e := newTestEngine(8, Options{})
	e.Bootstrap(w.populate(60))
	defs := map[model.QueryID]Def{}
	for i := 0; i < 10; i++ {
		id := model.QueryID(i)
		// All queries clustered so their regions overlap heavily.
		def := PointQuery(geom.Point{X: 0.45 + 0.01*float64(i), Y: 0.5}, 3)
		defs[id] = def
		if err := e.Register(id, def); err != nil {
			t.Fatal(err)
		}
	}
	for cycle := 0; cycle < 15; cycle++ {
		e.ProcessBatch(w.randomBatch(25, false))
		for id, def := range defs {
			checkResult(t, fmt.Sprintf("overlap c%d q%d", cycle, id), e.Result(id), oracle(e, def))
			checkInvariants(t, e, id)
		}
	}
}

// TestQueryUpdateThatRebuildsNothing: only a query update that rebuilds or
// removes its query — a valid move, a termination — exempts the query from
// the cycle's object updates. One that changes nothing — an install, an
// unknown kind, a move with the wrong number of points or a non-finite one —
// must leave it following the object stream, or its result goes stale.
func TestQueryUpdateThatRebuildsNothing(t *testing.T) {
	noops := map[string]model.QueryUpdate{
		"install":      {ID: 1, Kind: model.QueryInstall},
		"unknown kind": {ID: 1, Kind: model.QueryUpdateKind(7)},
		"two points":   {ID: 1, Kind: model.QueryMove, NewPoints: []geom.Point{{X: 0.1, Y: 0.1}, {X: 0.2, Y: 0.2}}},
		"NaN point":    {ID: 1, Kind: model.QueryMove, NewPoints: []geom.Point{{X: math.NaN(), Y: 0.5}}},
	}
	for name, u := range noops {
		e := newTestEngine(8, Options{})
		e.Bootstrap(map[model.ObjectID]geom.Point{1: {X: 0.5, Y: 0.5}, 2: {X: 0.9, Y: 0.9}})
		if err := e.RegisterQuery(1, geom.Point{X: 0.5, Y: 0.5}, 1); err != nil {
			t.Fatal(err)
		}
		e.ProcessBatch(model.Batch{
			Objects: []model.Update{model.DeleteUpdate(1, geom.Point{X: 0.5, Y: 0.5})},
			Queries: []model.QueryUpdate{u},
		})
		if got := e.Result(1); len(got) != 1 || got[0].ID != 2 {
			t.Errorf("%s: result %v after its NN was deleted, want object 2", name, got)
		}
		checkInvariants(t, e, 1)
	}
}
