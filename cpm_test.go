package cpm

import (
	"math"
	"reflect"
	"testing"

	"cpm/internal/bruteforce"
	"cpm/internal/grid"
)

func seedObjects() map[ObjectID]Point {
	return map[ObjectID]Point{
		1: {X: 0.10, Y: 0.10},
		2: {X: 0.52, Y: 0.50},
		3: {X: 0.60, Y: 0.58},
		4: {X: 0.90, Y: 0.90},
		5: {X: 0.48, Y: 0.52},
	}
}

func TestMonitorQuickstartFlow(t *testing.T) {
	m := NewMonitor(Options{GridSize: 32})
	m.Bootstrap(seedObjects())
	if m.ObjectCount() != 5 {
		t.Fatalf("ObjectCount = %d", m.ObjectCount())
	}
	if err := m.RegisterQuery(1, Point{X: 0.5, Y: 0.5}, 2); err != nil {
		t.Fatal(err)
	}
	res := m.Result(1)
	if len(res) != 2 || res[0].ID != 2 || res[1].ID != 5 {
		t.Fatalf("initial result = %v", res)
	}
	// Object 4 drives by and becomes the nearest neighbor.
	m.MoveObject(4, Point{X: 0.50, Y: 0.51})
	res = m.Result(1)
	if res[0].ID != 4 {
		t.Fatalf("result after move = %v", res)
	}
	// It leaves again; the old pair returns.
	m.MoveObject(4, Point{X: 0.95, Y: 0.95})
	res = m.Result(1)
	if res[0].ID != 2 || res[1].ID != 5 {
		t.Fatalf("result after departure = %v", res)
	}
	m.DeleteObject(2)
	if res = m.Result(1); res[0].ID != 5 || res[1].ID != 3 {
		t.Fatalf("result after delete = %v", res)
	}
	m.InsertObject(10, Point{X: 0.5, Y: 0.5})
	if res = m.Result(1); res[0].ID != 10 {
		t.Fatalf("result after insert = %v", res)
	}
	if m.InvalidUpdates() != 0 {
		t.Fatalf("InvalidUpdates = %d", m.InvalidUpdates())
	}
}

func TestMonitorDefaultOptions(t *testing.T) {
	m := NewMonitor(Options{})
	m.Bootstrap(seedObjects())
	if err := m.RegisterQuery(1, Point{X: 0.5, Y: 0.5}, 1); err != nil {
		t.Fatal(err)
	}
	if got := m.Result(1); len(got) != 1 || got[0].ID != 2 {
		t.Fatalf("result = %v", got)
	}
	if m.MemoryFootprint() <= 0 {
		t.Error("MemoryFootprint not positive")
	}
	if m.Stats().FullSearches != 1 {
		t.Errorf("FullSearches = %d", m.Stats().FullSearches)
	}
}

func TestMonitorAggQuery(t *testing.T) {
	m := NewMonitor(Options{GridSize: 16})
	m.Bootstrap(seedObjects())
	pts := []Point{{X: 0.1, Y: 0.1}, {X: 0.9, Y: 0.9}}
	if err := m.RegisterAggQuery(7, pts, 1, AggSum); err != nil {
		t.Fatal(err)
	}
	// The sum-optimal object lies on the segment between the two users:
	// object 1 sits exactly on the first of them.
	res := m.Result(7)
	if len(res) != 1 || res[0].ID != 1 {
		t.Fatalf("agg result = %v", res)
	}
	if math.Abs(res[0].Dist-math.Hypot(0.8, 0.8)) > 1e-12 {
		t.Fatalf("agg dist = %v, want the users' separation", res[0].Dist)
	}
	// Moving one query point relocates the query; object 4 — exactly on
	// the second user — now edges out the middle objects.
	if err := m.MoveQuery(7, Point{X: 0.1, Y: 0.2}, Point{X: 0.9, Y: 0.9}); err != nil {
		t.Fatal(err)
	}
	if got := m.Result(7); len(got) != 1 || got[0].ID != 4 {
		t.Fatalf("agg result after move = %v", got)
	}
}

func TestMonitorConstrainedQuery(t *testing.T) {
	m := NewMonitor(Options{GridSize: 16})
	m.Bootstrap(seedObjects())
	ne := Rect{Lo: Point{X: 0.55, Y: 0.55}, Hi: Point{X: 1, Y: 1}}
	if err := m.RegisterConstrainedQuery(3, Point{X: 0.5, Y: 0.5}, 1, ne); err != nil {
		t.Fatal(err)
	}
	if got := m.Result(3); len(got) != 1 || got[0].ID != 3 {
		t.Fatalf("constrained result = %v", got)
	}
}

func TestMonitorTickBatch(t *testing.T) {
	m := NewMonitor(Options{GridSize: 16})
	m.Bootstrap(seedObjects())
	if err := m.RegisterQuery(1, Point{X: 0.5, Y: 0.5}, 1); err != nil {
		t.Fatal(err)
	}
	m.Tick(Batch{
		Objects: []Update{
			MoveUpdate(2, Point{X: 0.52, Y: 0.50}, Point{X: 0.05, Y: 0.05}),
			MoveUpdate(4, Point{X: 0.90, Y: 0.90}, Point{X: 0.50, Y: 0.50}),
		},
		Queries: []QueryUpdate{},
	})
	if got := m.Result(1); got[0].ID != 4 {
		t.Fatalf("result after batch = %v", got)
	}
	// Query terminates via the stream.
	m.Tick(Batch{Queries: []QueryUpdate{{ID: 1, Kind: QueryTerminate}}})
	if m.Result(1) != nil {
		t.Error("terminated query still present")
	}
}

func TestMonitorBestDist(t *testing.T) {
	m := NewMonitor(Options{GridSize: 16})
	m.Bootstrap(seedObjects())
	if err := m.RegisterQuery(1, Point{X: 0.52, Y: 0.5}, 1); err != nil {
		t.Fatal(err)
	}
	if d := m.BestDist(1); math.Abs(d) > 1e-12 {
		t.Errorf("BestDist = %v, want 0 (object 2 sits on the query)", d)
	}
	if err := m.RegisterQuery(2, Point{X: 0.5, Y: 0.5}, 100); err != nil {
		t.Fatal(err)
	}
	if !math.IsInf(m.BestDist(2), 1) {
		t.Errorf("BestDist with k>population = %v, want +Inf", m.BestDist(2))
	}
}

func TestMonitorObjectPosition(t *testing.T) {
	m := NewMonitor(Options{GridSize: 16})
	m.Bootstrap(seedObjects())
	if p, ok := m.ObjectPosition(1); !ok || p != (Point{X: 0.1, Y: 0.1}) {
		t.Errorf("ObjectPosition = %v, %v", p, ok)
	}
	if _, ok := m.ObjectPosition(99); ok {
		t.Error("unknown object reported present")
	}
}

func TestBaselineConstructors(t *testing.T) {
	objs := seedObjects()
	for _, method := range []Method{
		NewYPKMonitor(Options{GridSize: 16}),
		NewSEAMonitor(Options{GridSize: 16}),
	} {
		method.Bootstrap(objs)
		if err := method.RegisterQuery(1, Point{X: 0.5, Y: 0.5}, 2); err != nil {
			t.Fatal(err)
		}
		got := method.Result(1)
		if len(got) != 2 || got[0].ID != 2 || got[1].ID != 5 {
			t.Fatalf("%s result = %v", method.Name(), got)
		}
	}
}

func TestMonitorCustomWorkspace(t *testing.T) {
	ws := Rect{Lo: Point{X: -10, Y: -10}, Hi: Point{X: 10, Y: 10}}
	m := NewMonitor(Options{GridSize: 64, Workspace: ws})
	m.Bootstrap(map[ObjectID]Point{
		1: {X: -8, Y: -8},
		2: {X: 3, Y: 4},
	})
	if err := m.RegisterQuery(1, Point{X: 0, Y: 0}, 1); err != nil {
		t.Fatal(err)
	}
	got := m.Result(1)
	if len(got) != 1 || got[0].ID != 2 || math.Abs(got[0].Dist-5) > 1e-12 {
		t.Fatalf("custom workspace result = %v", got)
	}
}

func TestMonitorRangeQuery(t *testing.T) {
	m := NewMonitor(Options{GridSize: 16})
	m.Bootstrap(seedObjects())
	center := Point{X: 0.5, Y: 0.5}
	if err := m.RegisterRangeQuery(1, center, 0.15); err != nil {
		t.Fatal(err)
	}
	got := m.Result(1)
	if len(got) != 3 || got[0].ID != 2 || got[1].ID != 5 || got[2].ID != 3 {
		t.Fatalf("range result = %v", got)
	}
	// Object 4 drives into the fence.
	m.MoveObject(4, Point{X: 0.5, Y: 0.55})
	if got = m.Result(1); len(got) != 4 {
		t.Fatalf("range result after arrival = %v", got)
	}
	// The fence moves; only object 1 is inside the new one.
	if err := m.MoveQuery(1, Point{X: 0.1, Y: 0.1}); err != nil {
		t.Fatal(err)
	}
	if got = m.Result(1); len(got) != 1 || got[0].ID != 1 {
		t.Fatalf("range result after move = %v", got)
	}
	if err := m.MoveQuery(1, Point{X: 0.1, Y: 0.1}, Point{X: 0.2, Y: 0.2}); err == nil {
		t.Error("multi-point move of range query accepted")
	}
	m.RemoveQuery(1)
	if m.Result(1) != nil {
		t.Error("range query survives removal")
	}
}

func TestMonitorRangeValidation(t *testing.T) {
	m := NewMonitor(Options{GridSize: 16})
	m.Bootstrap(seedObjects())
	if err := m.RegisterRangeQuery(1, Point{X: 0.5, Y: 0.5}, -0.1); err == nil {
		t.Error("negative radius accepted")
	}
	if err := m.RegisterQuery(1, Point{X: 0.5, Y: 0.5}, 1); err != nil {
		t.Fatal(err)
	}
	if err := m.RegisterRangeQuery(1, Point{X: 0.5, Y: 0.5}, 0.1); err == nil {
		t.Error("range over existing kNN id accepted")
	}
}

// TestMonitorShardedAgreesWithSingle drives the whole public API surface —
// point, aggregate, constrained and range queries, ticks, single-object
// shortcuts and query moves — through a sharded monitor and a single-engine
// monitor, asserting identical observable behavior.
func TestMonitorShardedAgreesWithSingle(t *testing.T) {
	single := NewMonitor(Options{GridSize: 16})
	sharded := NewMonitor(Options{GridSize: 16, Shards: 4})
	both := []*Monitor{single, sharded}
	for _, m := range both {
		m.Bootstrap(seedObjects())
		if err := m.RegisterQuery(1, Point{X: 0.5, Y: 0.5}, 2); err != nil {
			t.Fatal(err)
		}
		if err := m.RegisterAggQuery(2, []Point{{X: 0.1, Y: 0.1}, {X: 0.9, Y: 0.9}}, 1, AggSum); err != nil {
			t.Fatal(err)
		}
		if err := m.RegisterConstrainedQuery(3, Point{X: 0.5, Y: 0.5}, 1,
			Rect{Lo: Point{X: 0.55, Y: 0.55}, Hi: Point{X: 1, Y: 1}}); err != nil {
			t.Fatal(err)
		}
		if err := m.RegisterRangeQuery(4, Point{X: 0.5, Y: 0.5}, 0.15); err != nil {
			t.Fatal(err)
		}
	}
	compare := func(stage string) {
		t.Helper()
		for qid := QueryID(1); qid <= 4; qid++ {
			a, b := single.Result(qid), sharded.Result(qid)
			if len(a) != len(b) {
				t.Fatalf("%s q%d: single %v, sharded %v", stage, qid, a, b)
			}
			for i := range a {
				if a[i] != b[i] {
					t.Fatalf("%s q%d: single %v, sharded %v", stage, qid, a, b)
				}
			}
			if single.BestDist(qid) != sharded.BestDist(qid) {
				t.Fatalf("%s q%d: BestDist %v vs %v", stage, qid, single.BestDist(qid), sharded.BestDist(qid))
			}
		}
		ca, cb := single.ChangedQueries(), sharded.ChangedQueries()
		if len(ca) != len(cb) {
			t.Fatalf("%s: changed %v vs %v", stage, ca, cb)
		}
		for i := range ca {
			if ca[i] != cb[i] {
				t.Fatalf("%s: changed %v vs %v", stage, ca, cb)
			}
		}
		if single.ObjectCount() != sharded.ObjectCount() {
			t.Fatalf("%s: ObjectCount %d vs %d", stage, single.ObjectCount(), sharded.ObjectCount())
		}
	}
	compare("initial")
	for _, m := range both {
		m.Tick(Batch{Objects: []Update{
			MoveUpdate(4, Point{X: 0.9, Y: 0.9}, Point{X: 0.52, Y: 0.53}),
			MoveUpdate(1, Point{X: 0.1, Y: 0.1}, Point{X: 0.12, Y: 0.12}),
		}})
	}
	compare("after tick")
	for _, m := range both {
		m.InsertObject(10, Point{X: 0.5, Y: 0.5})
		m.MoveObject(3, Point{X: 0.45, Y: 0.45})
		m.DeleteObject(2)
	}
	compare("after single-object ops")
	for _, m := range both {
		if err := m.MoveQuery(1, Point{X: 0.2, Y: 0.2}); err != nil {
			t.Fatal(err)
		}
		if err := m.MoveQuery(4, Point{X: 0.45, Y: 0.45}); err != nil {
			t.Fatal(err)
		}
		m.Tick(Batch{Queries: []QueryUpdate{{ID: 3, Kind: QueryTerminate}}})
	}
	compare("after query churn")
	if got := sharded.Result(3); got != nil {
		t.Fatalf("terminated query still answering: %v", got)
	}
	if single.InvalidUpdates() != sharded.InvalidUpdates() {
		t.Fatalf("InvalidUpdates: %d vs %d", single.InvalidUpdates(), sharded.InvalidUpdates())
	}
}

// TestBootstrapDropsNonFinite holds Bootstrap to the update stream's rule:
// an object at a non-finite position or under a negative id is dropped and
// counted in InvalidUpdates, never stored, so no result carries a NaN
// distance and Bootstrap does not panic halfway through the population.
func TestBootstrapDropsNonFinite(t *testing.T) {
	objs := map[ObjectID]Point{
		1:  {X: math.NaN(), Y: 0.5},
		2:  {X: 0.9, Y: 0.9},
		3:  {X: math.Inf(1), Y: 0.1},
		4:  {X: 0.2, Y: 0.3},
		-3: {X: 0.4, Y: 0.4},
	}
	oracle := grid.NewUnit(8)
	for _, id := range []ObjectID{2, 4} {
		if err := oracle.Insert(id, objs[id]); err != nil {
			t.Fatal(err)
		}
	}
	q := Point{X: 0.5, Y: 0.5}
	want := bruteforce.TopK(oracle, q, 3)
	for _, shards := range []int{1, 3} {
		m := NewMonitor(Options{GridSize: 8, Shards: shards})
		m.Bootstrap(objs)
		if got := m.ObjectCount(); got != 2 {
			t.Errorf("%d shards: ObjectCount = %d, want 2", shards, got)
		}
		if got := m.InvalidUpdates(); got != 3 {
			t.Errorf("%d shards: InvalidUpdates = %d, want 3", shards, got)
		}
		if err := m.RegisterQuery(7, q, 3); err != nil {
			t.Fatal(err)
		}
		if got := m.Result(7); !reflect.DeepEqual(got, want) {
			t.Errorf("%d shards: result %v, oracle %v", shards, got, want)
		}
		m.Close()
	}
}
