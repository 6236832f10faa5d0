package core

import (
	"reflect"
	"testing"

	"cpm/internal/geom"
	"cpm/internal/model"
)

func diffEngine(t *testing.T) *testEngine {
	t.Helper()
	e := newTestEngine(16, Options{})
	e.EnableDiffs(true)
	e.Bootstrap(map[model.ObjectID]geom.Point{
		1: {X: 0.10, Y: 0.10},
		2: {X: 0.52, Y: 0.50},
		3: {X: 0.60, Y: 0.58},
		4: {X: 0.90, Y: 0.90},
		5: {X: 0.48, Y: 0.52},
	})
	return e
}

func TestDiffInstallUpdateRemove(t *testing.T) {
	e := diffEngine(t)
	if err := e.RegisterQuery(1, geom.Point{X: 0.5, Y: 0.5}, 2); err != nil {
		t.Fatal(err)
	}
	diffs := e.TakeDiffs()
	if len(diffs) != 1 {
		t.Fatalf("diffs after install = %v", diffs)
	}
	d := diffs[0]
	if d.Query != 1 || d.Kind != model.DiffInstall {
		t.Fatalf("install diff = %+v", d)
	}
	if len(d.Entered) != 2 || d.Entered[0].ID != 2 || d.Entered[1].ID != 5 {
		t.Fatalf("install Entered = %v", d.Entered)
	}
	if !reflect.DeepEqual(d.Result, d.Entered) {
		t.Fatalf("install Result %v != Entered %v", d.Result, d.Entered)
	}

	// Object 4 drives into the result; object 5 is displaced.
	e.ProcessBatch(model.Batch{Objects: []model.Update{
		model.MoveUpdate(4, geom.Point{X: 0.9, Y: 0.9}, geom.Point{X: 0.50, Y: 0.51}),
	}})
	diffs = e.TakeDiffs()
	if len(diffs) != 1 {
		t.Fatalf("diffs after move = %v", diffs)
	}
	d = diffs[0]
	if d.Kind != model.DiffUpdate {
		t.Fatalf("update diff kind = %v", d.Kind)
	}
	if len(d.Entered) != 1 || d.Entered[0].ID != 4 {
		t.Fatalf("update Entered = %v", d.Entered)
	}
	if len(d.Exited) != 1 || d.Exited[0] != 5 {
		t.Fatalf("update Exited = %v", d.Exited)
	}
	// Object 2 kept its distance and rank 2?  Rank 1 -> 2: re-ranked.
	if len(d.Reranked) != 1 || d.Reranked[0].ID != 2 {
		t.Fatalf("update Reranked = %v", d.Reranked)
	}
	if len(d.Result) != 2 || d.Result[0].ID != 4 || d.Result[1].ID != 2 {
		t.Fatalf("update Result = %v", d.Result)
	}

	e.RemoveQuery(1)
	diffs = e.TakeDiffs()
	if len(diffs) != 1 {
		t.Fatalf("diffs after remove = %v", diffs)
	}
	d = diffs[0]
	if d.Kind != model.DiffRemove || d.Result != nil {
		t.Fatalf("remove diff = %+v", d)
	}
	if len(d.Exited) != 2 || d.Exited[0] != 4 || d.Exited[1] != 2 {
		t.Fatalf("remove Exited = %v", d.Exited)
	}
}

func TestDiffRerankByDistanceChange(t *testing.T) {
	e := diffEngine(t)
	if err := e.RegisterQuery(1, geom.Point{X: 0.5, Y: 0.5}, 2); err != nil {
		t.Fatal(err)
	}
	e.TakeDiffs()
	// Object 2 moves but keeps rank 1: distance change alone must re-rank.
	e.ProcessBatch(model.Batch{Objects: []model.Update{
		model.MoveUpdate(2, geom.Point{X: 0.52, Y: 0.50}, geom.Point{X: 0.51, Y: 0.50}),
	}})
	diffs := e.TakeDiffs()
	if len(diffs) != 1 {
		t.Fatalf("diffs = %v", diffs)
	}
	d := diffs[0]
	if len(d.Entered) != 0 || len(d.Exited) != 0 {
		t.Fatalf("churn on pure re-rank: %+v", d)
	}
	if len(d.Reranked) != 1 || d.Reranked[0].ID != 2 {
		t.Fatalf("Reranked = %v", d.Reranked)
	}
}

func TestDiffRangeQuery(t *testing.T) {
	e := diffEngine(t)
	if err := e.RegisterRange(9, geom.Point{X: 0.5, Y: 0.5}, 0.15); err != nil {
		t.Fatal(err)
	}
	diffs := e.TakeDiffs()
	if len(diffs) != 1 || diffs[0].Kind != model.DiffInstall || len(diffs[0].Entered) != 3 {
		t.Fatalf("range install diffs = %v", diffs)
	}
	// Object 1 drives into the fence.
	e.ProcessBatch(model.Batch{Objects: []model.Update{
		model.MoveUpdate(1, geom.Point{X: 0.1, Y: 0.1}, geom.Point{X: 0.45, Y: 0.45}),
	}})
	diffs = e.TakeDiffs()
	if len(diffs) != 1 || len(diffs[0].Entered) != 1 || diffs[0].Entered[0].ID != 1 {
		t.Fatalf("range update diffs = %v", diffs)
	}
	if len(diffs[0].Result) != 4 {
		t.Fatalf("range Result = %v", diffs[0].Result)
	}
}

// TestDiffIdsMatchChangedQueries pins the pairing invariant: with diffs on,
// every batch's TakeDiffs ids equal ChangedQueries exactly (one event per
// changed query, sorted).
func TestDiffIdsMatchChangedQueries(t *testing.T) {
	e := diffEngine(t)
	for q := model.QueryID(0); q < 6; q++ {
		if err := e.RegisterQuery(q, geom.Point{X: 0.1 + 0.15*float64(q), Y: 0.5}, 2); err != nil {
			t.Fatal(err)
		}
	}
	e.TakeDiffs()
	batches := []model.Batch{
		{Objects: []model.Update{
			model.MoveUpdate(1, geom.Point{X: 0.1, Y: 0.1}, geom.Point{X: 0.3, Y: 0.5}),
			model.MoveUpdate(4, geom.Point{X: 0.9, Y: 0.9}, geom.Point{X: 0.7, Y: 0.5}),
		}},
		{Objects: []model.Update{model.DeleteUpdate(2, geom.Point{X: 0.52, Y: 0.50})}},
		{Queries: []model.QueryUpdate{
			{ID: 3, Kind: model.QueryMove, NewPoints: []geom.Point{{X: 0.9, Y: 0.1}}},
			{ID: 5, Kind: model.QueryTerminate},
		}},
		{Objects: []model.Update{model.InsertUpdate(50, geom.Point{X: 0.45, Y: 0.5})}},
		{}, // empty cycle: no diffs, no changes
	}
	for i, b := range batches {
		e.ProcessBatch(b)
		changed := e.ChangedQueries()
		diffs := e.TakeDiffs()
		ids := make([]model.QueryID, 0, len(diffs))
		for _, d := range diffs {
			ids = append(ids, d.Query)
		}
		if len(changed) == 0 && len(ids) == 0 {
			continue
		}
		if !reflect.DeepEqual(ids, changed) {
			t.Fatalf("batch %d: diff ids %v != changed %v", i, ids, changed)
		}
	}
}

// TestDiffPerUpdateComposesOneEventPerQuery pins the composition of a take
// window: run one cycle per update, a query changes in each of two cycles
// between takes, and the diffs must compose into a single event, diffed
// against the state at the window's start.
func TestDiffPerUpdateComposesOneEventPerQuery(t *testing.T) {
	e := newTestEngine(16, Options{})
	e.EnableDiffs(true)
	e.Bootstrap(map[model.ObjectID]geom.Point{
		1: {X: 0.10, Y: 0.10},
		2: {X: 0.52, Y: 0.50},
		3: {X: 0.60, Y: 0.58},
		4: {X: 0.90, Y: 0.90},
		5: {X: 0.48, Y: 0.52},
	})
	if err := e.RegisterQuery(1, geom.Point{X: 0.5, Y: 0.5}, 2); err != nil {
		t.Fatal(err)
	}
	e.TakeDiffs()
	// Two cycles, each changing query 1's result: 4 drives in (displacing
	// 5), then 3 drives in (displacing 2).
	for _, u := range []model.Update{
		model.MoveUpdate(4, geom.Point{X: 0.90, Y: 0.90}, geom.Point{X: 0.50, Y: 0.51}),
		model.MoveUpdate(3, geom.Point{X: 0.60, Y: 0.58}, geom.Point{X: 0.50, Y: 0.50}),
	} {
		e.ProcessBatch(model.Batch{Objects: []model.Update{u}})
		if changed := e.ChangedQueries(); len(changed) != 1 || changed[0] != 1 {
			t.Fatalf("the cycle of object %d changed %v, want query 1", u.ID, changed)
		}
	}
	diffs := e.TakeDiffs()
	if len(diffs) != 1 || diffs[0].Query != 1 {
		t.Fatalf("diffs %v: want exactly one composed event for query 1", diffs)
	}
	d := diffs[0]
	// The composed delta is against the start-of-batch result {2, 5}.
	if len(d.Entered) != 2 || d.Entered[0].ID != 3 || d.Entered[1].ID != 4 {
		t.Fatalf("composed Entered = %v", d.Entered)
	}
	if len(d.Exited) != 2 || d.Exited[0] != 2 || d.Exited[1] != 5 {
		t.Fatalf("composed Exited = %v", d.Exited)
	}
	if len(d.Result) != 2 || d.Result[0].ID != 3 || d.Result[1].ID != 4 {
		t.Fatalf("composed Result = %v", d.Result)
	}
}

// TestDiffDisabledCollectsNothing checks the default-off contract and that
// disabling discards pending diffs.
func TestDiffDisabledCollectsNothing(t *testing.T) {
	e := newTestEngine(16, Options{})
	e.Bootstrap(map[model.ObjectID]geom.Point{1: {X: 0.5, Y: 0.5}})
	if err := e.RegisterQuery(1, geom.Point{X: 0.5, Y: 0.5}, 1); err != nil {
		t.Fatal(err)
	}
	if got := e.TakeDiffs(); got != nil {
		t.Fatalf("diffs while disabled = %v", got)
	}
	e.EnableDiffs(true)
	if err := e.RegisterQuery(2, geom.Point{X: 0.5, Y: 0.5}, 1); err != nil {
		t.Fatal(err)
	}
	e.EnableDiffs(false)
	if got := e.TakeDiffs(); got != nil {
		t.Fatalf("diffs survived disable: %v", got)
	}
}

// TestDiffReplayReconstructsResult applies each diff's delta to the
// previous result set and checks it rebuilds Result exactly, across a
// randomized multi-query run (the replay property subscribers rely on).
func TestDiffReplayReconstructsResult(t *testing.T) {
	e := diffEngine(t)
	for q := model.QueryID(0); q < 4; q++ {
		if err := e.RegisterQuery(q, geom.Point{X: 0.2 + 0.2*float64(q), Y: 0.4}, 3); err != nil {
			t.Fatal(err)
		}
	}
	replay := make(map[model.QueryID]map[model.ObjectID]float64)
	apply := func(d model.ResultDiff) {
		if d.Kind == model.DiffRemove {
			delete(replay, d.Query)
			return
		}
		set := replay[d.Query]
		if set == nil {
			set = make(map[model.ObjectID]float64)
			replay[d.Query] = set
		}
		for _, id := range d.Exited {
			delete(set, id)
		}
		for _, n := range d.Entered {
			set[n.ID] = n.Dist
		}
		for _, n := range d.Reranked {
			set[n.ID] = n.Dist
		}
		if len(set) != len(d.Result) {
			t.Fatalf("q%d: replay size %d, Result %v", d.Query, len(set), d.Result)
		}
		for _, n := range d.Result {
			if got, ok := set[n.ID]; !ok || got != n.Dist {
				t.Fatalf("q%d: replay missing %v (set %v)", d.Query, n, set)
			}
		}
	}
	for _, d := range e.TakeDiffs() {
		apply(d)
	}
	positions := map[model.ObjectID]geom.Point{
		1: {X: 0.10, Y: 0.10}, 2: {X: 0.52, Y: 0.50}, 3: {X: 0.60, Y: 0.58},
		4: {X: 0.90, Y: 0.90}, 5: {X: 0.48, Y: 0.52},
	}
	rng := uint64(12345)
	next := func() float64 { // tiny deterministic LCG; no test should need crypto
		rng = rng*6364136223846793005 + 1442695040888963407
		return float64(rng>>11) / float64(1<<53)
	}
	for cycle := 0; cycle < 40; cycle++ {
		var b model.Batch
		for id := model.ObjectID(1); id <= 5; id++ {
			if next() < 0.6 {
				to := geom.Point{X: next(), Y: next()}
				b.Objects = append(b.Objects, model.MoveUpdate(id, positions[id], to))
				positions[id] = to
			}
		}
		e.ProcessBatch(b)
		for _, d := range e.TakeDiffs() {
			apply(d)
		}
		for q := model.QueryID(0); q < 4; q++ {
			want := e.Result(q)
			set := replay[q]
			if len(set) != len(want) {
				t.Fatalf("cycle %d q%d: replay %v vs Result %v", cycle, q, set, want)
			}
			for _, n := range want {
				if got, ok := set[n.ID]; !ok || got != n.Dist {
					t.Fatalf("cycle %d q%d: replay %v vs Result %v", cycle, q, set, want)
				}
			}
		}
	}
}

// TestDiffEventsImmutableAfterDelivery pins the aliasing contract of taken
// diffs: the engine reuses its reported-snapshot buffers in place across
// cycles, so events handed out by TakeDiffs must never share backing arrays
// with them. A subscriber may hold an event indefinitely (and read it from
// another goroutine) while the engine keeps processing.
func TestDiffEventsImmutableAfterDelivery(t *testing.T) {
	e := diffEngine(t)
	if err := e.RegisterQuery(1, geom.Point{X: 0.5, Y: 0.5}, 2); err != nil {
		t.Fatal(err)
	}
	if err := e.RegisterRange(2, geom.Point{X: 0.5, Y: 0.5}, 0.1); err != nil {
		t.Fatal(err)
	}
	taken := e.TakeDiffs()
	if len(taken) != 2 {
		t.Fatalf("diffs after installs = %v", taken)
	}
	held := make([]model.ResultDiff, len(taken))
	copy(held, taken)
	want := make([][]model.Neighbor, len(held))
	for i, d := range held {
		want[i] = append([]model.Neighbor(nil), d.Result...)
	}
	// Swap the membership of both queries to a different non-empty set, so
	// the engine's in-place snapshot reuse rewrites every element slot the
	// held events would alias: object 2 leaves the neighborhood, object 3
	// enters it.
	e.ProcessBatch(model.Batch{Objects: []model.Update{
		model.MoveUpdate(2, geom.Point{}, geom.Point{X: 0.90, Y: 0.10}),
		model.MoveUpdate(3, geom.Point{}, geom.Point{X: 0.52, Y: 0.55}),
	}})
	e.TakeDiffs()
	for i, d := range held {
		if !reflect.DeepEqual([]model.Neighbor(d.Result), want[i]) {
			t.Errorf("held event %d (query %d) mutated: Result = %v, want %v",
				i, d.Query, d.Result, want[i])
		}
		if d.Kind == model.DiffInstall && !reflect.DeepEqual([]model.Neighbor(d.Entered), want[i]) {
			t.Errorf("held install event %d (query %d) mutated: Entered = %v, want %v",
				i, d.Query, d.Entered, want[i])
		}
	}
}
