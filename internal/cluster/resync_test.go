package cluster_test

import (
	"math"
	"reflect"
	"testing"
	"time"

	"cpm"
	"cpm/internal/cluster"
	"cpm/internal/geom"
	"cpm/internal/model"
)

// metric reads one value off the coordinator's registry snapshot.
func metric(t *testing.T, c *cluster.Coordinator, name string) int64 {
	t.Helper()
	for _, s := range c.Metrics().Snapshot() {
		if s.Name == name {
			return s.Value
		}
	}
	t.Fatalf("metric %s not registered", name)
	return 0
}

// denseScene builds a deterministic population and query set in the unit
// workspace: n objects on a jittered lattice, q point queries.
func denseScene(n, q int) (map[model.ObjectID]geom.Point, map[model.QueryID]geom.Point) {
	objs := make(map[model.ObjectID]geom.Point, n)
	for i := 0; i < n; i++ {
		objs[model.ObjectID(i)] = geom.Point{
			X: (float64(i%12) + 0.3 + 0.02*float64(i%7)) / 12,
			Y: (float64(i/12) + 0.4 + 0.03*float64(i%5)) / 12,
		}
	}
	queries := make(map[model.QueryID]geom.Point, q)
	for i := 0; i < q; i++ {
		queries[model.QueryID(i)] = geom.Point{
			X: (float64(i%4) + 0.5) / 4,
			Y: (float64(i/4) + 0.5) / 4,
		}
	}
	return objs, queries
}

// nudge builds a small batch moving a handful of known objects — a tick
// whose footprint (and therefore a desynced worker's dirty set) stays far
// below the population size.
func nudge(round int, ids ...model.ObjectID) model.Batch {
	var b model.Batch
	for i, id := range ids {
		b.Objects = append(b.Objects, model.Update{
			ID:   id,
			Kind: model.Move,
			New: geom.Point{
				X: (float64(int(id)%12) + 0.1 + 0.05*float64((round+i)%10)) / 12,
				Y: (float64(int(id)/12) + 0.2 + 0.04*float64((round+2*i)%10)) / 12,
			},
		})
	}
	return b
}

// TestIncrementalResync pins the delta-replay rebuild path and its cost
// accounting: a worker that desyncs without restarting is repaired by
// replaying only its dirty objects — demonstrably cheaper than
// Reset+Bootstrap on the objects-sent counter — while a worker whose
// server instance changed takes the full path. Results must match a
// single in-process monitor either way.
func TestIncrementalResync(t *testing.T) {
	const nObjs, nQueries, k = 120, 8, 4
	coord, procs := startCluster(t, 2, 300*time.Millisecond)
	single := cpm.NewMonitor(cpm.Options{GridSize: 16})
	defer single.Close()

	objs, queries := denseScene(nObjs, nQueries)
	coord.Bootstrap(objs)
	single.Bootstrap(objs)
	for id, q := range queries {
		if err := coord.RegisterQuery(id, q, k); err != nil {
			t.Fatal(err)
		}
		if err := single.RegisterQuery(id, q, k); err != nil {
			t.Fatal(err)
		}
	}

	checkResults := func(stage string) {
		t.Helper()
		for id := range queries {
			if got, want := coord.Result(id), single.Result(id); !reflect.DeepEqual(got, want) {
				t.Fatalf("%s: query %d: cluster %v, single %v", stage, id, got, want)
			}
		}
	}
	tickBoth := func(b model.Batch) {
		coord.Tick(b)
		single.Tick(b)
	}
	repairAndVerify := func(stage string) {
		t.Helper()
		deadline := time.Now().Add(15 * time.Second)
		round := 100
		for coord.SyncedWorkers() < 2 {
			if time.Now().After(deadline) {
				t.Fatalf("%s: cluster never re-synced", stage)
			}
			tickBoth(nudge(round, 7, 8))
			round++
			time.Sleep(20 * time.Millisecond)
		}
		checkResults(stage)
	}

	tickBoth(nudge(0, 1, 2, 3))
	checkResults("baseline")

	// Phase 1 — incremental: wedge a worker past the op deadline. The
	// server instance survives, so the rebuild must be the delta replay.
	release := wedge(procs[0])
	tickBoth(nudge(1, 4, 5, 6))
	if coord.SyncedWorkers() != 1 {
		t.Fatalf("wedged worker still synced")
	}
	if h := coord.WorkerHealth(0); h != cluster.Desynced {
		t.Fatalf("wedged worker health %v, want desynced", h)
	}
	// A tick while the worker is away grows its dirty set.
	tickBoth(nudge(2, 10, 11))
	release()
	repairAndVerify("after incremental repair")

	incr := metric(t, coord, "cpm_coord_resync_incremental_total")
	full := metric(t, coord, "cpm_coord_resync_full_total")
	sent := metric(t, coord, "cpm_coord_resync_objects_sent_total")
	if incr == 0 {
		t.Fatalf("no incremental re-sync ran (incremental=%d full=%d)", incr, full)
	}
	if full != 0 {
		t.Fatalf("full re-sync ran where incremental sufficed (full=%d)", full)
	}
	// The cost bar: the delta must be far below re-shipping the world.
	// Every accepted incremental replayed only dirty objects (≤ the
	// handful the nudges touched), never the nObjs a Bootstrap ships.
	if sent >= nObjs/2 {
		t.Fatalf("incremental re-sync shipped %d objects, want far fewer than population %d", sent, nObjs)
	}

	// The health machine: probation after re-sync, promoted after a
	// streak of clean operations.
	if h := coord.WorkerHealth(0); h != cluster.Degraded {
		t.Fatalf("re-synced worker health %v, want degraded (probation)", h)
	}
	for i := 0; i < 4; i++ {
		tickBoth(nudge(200+i, 20, 21))
	}
	if h := coord.WorkerHealth(0); h != cluster.Healthy {
		t.Fatalf("worker health %v after clean streak, want healthy", h)
	}
	checkResults("after promotion")

	// Phase 2 — full: kill and restart the worker on its old address. The
	// instance id changes, so retained state is gone and the rebuild must
	// take (and be charged as) the full Reset+Bootstrap path.
	procs[0].kill()
	procs[0] = startWorker(t, procs[0].addr)
	tickBoth(nudge(300, 30, 31)) // detect the restart, desync, spawn
	repairAndVerify("after full repair")

	if got := metric(t, coord, "cpm_coord_resync_full_total"); got == 0 {
		t.Fatal("restart repaired without a full re-sync")
	}
	if grew := metric(t, coord, "cpm_coord_resync_objects_sent_total") - sent; grew < nObjs {
		t.Fatalf("full re-sync shipped %d objects, want the whole population (%d)", grew, nObjs)
	}
}

// TestIncrementalResyncAfterLostAnswer: a worker that applied a tick whose
// answer the coordinator gave up on holds results the mirror never saw.
// The incremental re-sync replays the tick's object as a delete+insert
// landing where the worker already has it — which changes nothing the
// worker would report — so it must ask the worker for its untouched
// queries' results instead of keeping the mirror's.
func TestIncrementalResyncAfterLostAnswer(t *testing.T) {
	const q = 0 // owned by worker 0
	coord, procs := startCluster(t, 2, 300*time.Millisecond)
	if model.Owner(q, 2) != 0 {
		t.Fatal("query 0 must live on worker 0")
	}
	single := cpm.NewMonitor(cpm.Options{GridSize: 16})
	defer single.Close()
	objs, queries := denseScene(120, 8)
	coord.Bootstrap(objs)
	single.Bootstrap(objs)
	for id, p := range queries {
		if err := coord.RegisterQuery(id, p, 4); err != nil {
			t.Fatal(err)
		}
		if err := single.RegisterQuery(id, p, 4); err != nil {
			t.Fatal(err)
		}
	}

	// Object 60 lands on query 0, so query 0's nearest neighbour changes on
	// worker 0 — which applies the tick only after the coordinator gave up.
	release := wedge(procs[0])
	b := model.Batch{Objects: []model.Update{{ID: 60, Kind: model.Move, New: queries[q]}}}
	coord.Tick(b)
	single.Tick(b)
	if coord.SyncedWorkers() != 1 {
		t.Fatal("wedged worker still synced")
	}
	release()

	// Repair while ticking only far from query 0: no later diff of its own
	// would paper over a stale mirror.
	deadline := time.Now().Add(15 * time.Second)
	for round := 0; coord.SyncedWorkers() < 2; round++ {
		if time.Now().After(deadline) {
			t.Fatal("cluster never re-synced")
		}
		b := nudge(round, 119)
		coord.Tick(b)
		single.Tick(b)
		time.Sleep(20 * time.Millisecond)
	}
	if metric(t, coord, "cpm_coord_resync_incremental_total") == 0 {
		t.Fatal("the repair was not the incremental re-sync")
	}
	for id := range queries {
		if got, want := coord.Result(id), single.Result(id); !reflect.DeepEqual(got, want) {
			t.Fatalf("query %d after re-sync: cluster %v, single %v", id, got, want)
		}
	}
}

// TestFleetStatsFanIn pins the coordinator's read fan-in: GridSize,
// Rebalances and Stats aggregate the workers' engine counters over the
// wire Stats frame (sum for work counters, max for grid size) instead of
// reporting zero.
func TestFleetStatsFanIn(t *testing.T) {
	coord, procs := startCluster(t, 3, 5*time.Second)
	objs, queries := denseScene(150, 8)
	coord.Bootstrap(objs)
	for id, q := range queries {
		if err := coord.RegisterQuery(id, q, 4); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 5; i++ {
		coord.Tick(nudge(i, 1, 2, 3, 4, 5))
	}

	var want model.Stats
	wantGrid := 0
	var wantReb int64
	for _, p := range procs {
		want.Add(p.mon.Stats())
		if g := p.mon.GridSize(); g > wantGrid {
			wantGrid = g
		}
		wantReb += p.mon.Rebalances()
	}
	if want.CellAccesses == 0 || want.ObjectsProcessed == 0 {
		t.Fatal("workers recorded no engine work — the scenario is too idle to test aggregation")
	}

	got := coord.Stats()
	if got != want {
		t.Fatalf("aggregated stats %+v, want per-worker sum %+v", got, want)
	}
	if g := coord.GridSize(); g != wantGrid {
		t.Fatalf("GridSize %d, want fleet max %d", g, wantGrid)
	}
	if r := coord.Rebalances(); r != wantReb {
		t.Fatalf("Rebalances %d, want fleet sum %d", r, wantReb)
	}

	// The aggregation is cached: an immediate re-read must serve the same
	// snapshot even though the workers keep running.
	coord.Tick(nudge(9, 6, 7))
	if again := coord.Stats(); again != got {
		t.Fatalf("stats cache missed within TTL: %+v then %+v", got, again)
	}
}

// TestResyncAfterInvalidQueryMove: a query move the engines refuse — here
// a NaN point — must not reach the coordinator's definition mirror either.
// A mirror that stored it would re-register the poisoned definition on
// every re-sync, each worker would reject it, and the cluster would never
// come back after a restart. The mirror counts the refused updates as the
// monitor does.
func TestResyncAfterInvalidQueryMove(t *testing.T) {
	const k = 3
	coord, procs := startCluster(t, 2, 300*time.Millisecond)
	single := cpm.NewMonitor(cpm.Options{GridSize: 16})
	defer single.Close()

	objs, queries := denseScene(60, 4)
	coord.Bootstrap(objs)
	single.Bootstrap(objs)
	for id, q := range queries {
		if err := coord.RegisterQuery(id, q, k); err != nil {
			t.Fatal(err)
		}
		if err := single.RegisterQuery(id, q, k); err != nil {
			t.Fatal(err)
		}
	}
	nan := geom.Point{X: math.NaN(), Y: 0.5}
	if err := coord.MoveQuery(2, nan); err == nil {
		t.Fatal("coordinator accepted a non-finite query move")
	}
	b := nudge(0, 1, 2)
	b.Queries = []model.QueryUpdate{
		{ID: 0, Kind: model.QueryMove, NewPoints: []geom.Point{nan}},
		{ID: 1, Kind: model.QueryMove, NewPoints: []geom.Point{{X: 0.3, Y: 0.3}}},
		{ID: 3, Kind: model.QueryMove, NewPoints: []geom.Point{{X: 0.3, Y: 0.3}, {X: 0.4, Y: 0.4}}},
		{ID: 99, Kind: model.QueryTerminate},
	}
	coord.Tick(b)
	single.Tick(b)
	if got, want := coord.InvalidUpdates(), single.InvalidUpdates(); got != want || want != 3 {
		t.Fatalf("InvalidUpdates: coordinator %d, monitor %d, want 3 each", got, want)
	}

	for i := range procs {
		procs[i].kill()
		procs[i] = startWorker(t, procs[i].addr)
	}
	deadline := time.Now().Add(15 * time.Second)
	for round := 1; round == 1 || coord.SyncedWorkers() < 2; round++ {
		if time.Now().After(deadline) {
			t.Fatal("the cluster never re-synced after the restart")
		}
		coord.Tick(nudge(round, 7, 8)) // the first detects the restarts
		single.Tick(nudge(round, 7, 8))
		time.Sleep(20 * time.Millisecond)
	}
	if got := metric(t, coord, "cpm_coord_resync_full_total"); got < 2 {
		t.Fatalf("%d full re-syncs, want one per restarted worker", got)
	}
	for id := range queries {
		if got, want := coord.Result(id), single.Result(id); !reflect.DeepEqual(got, want) {
			t.Fatalf("query %d after re-sync: cluster %v, monitor %v", id, got, want)
		}
	}
}
