package cluster_test

import (
	"maps"
	"math"
	"reflect"
	"slices"
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

// nudge builds a small batch moving a handful of known objects.
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

// TestResyncAfterStallAndRestart: a worker that stalls past the operation
// deadline without restarting, and later one that restarts and loses its
// state, are each rebuilt from the mirror while ticks keep running. After
// each rebuild the results must match a single in-process monitor, and
// the rebuilt worker serves on probation until a streak of clean
// operations promotes it.
func TestResyncAfterStallAndRestart(t *testing.T) {
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

	// Phase 1 — stall: wedge a worker past the op deadline. The server
	// instance survives, with state the rebuild must overwrite.
	release := wedge(procs[0])
	tickBoth(nudge(1, 4, 5, 6))
	if coord.SyncedWorkers() != 1 {
		t.Fatalf("wedged worker still synced")
	}
	if h := coord.WorkerHealth(0); h != cluster.Desynced {
		t.Fatalf("wedged worker health %v, want desynced", h)
	}
	// A tick the worker misses while it is away.
	tickBoth(nudge(2, 10, 11))
	release()
	repairAndVerify("after the stall")

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

	// Phase 2 — restart: kill and restart the worker on its old address.
	// The instance id changes and the worker's state is gone.
	procs[0].kill()
	procs[0] = startWorker(t, procs[0].addr)
	tickBoth(nudge(300, 30, 31)) // detect the restart, desync, spawn
	repairAndVerify("after the restart")
}

// TestResyncAfterLostAnswer: a worker that applied a tick whose answer the
// coordinator gave up on holds results the mirror never saw. The re-sync
// must take its owned queries' results from the rebuilt worker instead of
// keeping the mirror's.
func TestResyncAfterLostAnswer(t *testing.T) {
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

// resyncScene starts a coordinator over two loopback workers and a
// one-shard monitor beside it, and loads both with denseScene(60, 4) and
// its queries at k = 3.
func resyncScene(t *testing.T) (*cluster.Coordinator, []*workerProc, *cpm.Monitor, map[model.QueryID]geom.Point) {
	t.Helper()
	coord, procs := startCluster(t, 2, 300*time.Millisecond)
	single := cpm.NewMonitor(cpm.Options{GridSize: 16})
	t.Cleanup(single.Close)
	objs, queries := denseScene(60, 4)
	coord.Bootstrap(objs)
	single.Bootstrap(objs)
	for id, q := range queries {
		if err := coord.RegisterQuery(id, q, 3); err != nil {
			t.Fatal(err)
		}
		if err := single.RegisterQuery(id, q, 3); err != nil {
			t.Fatal(err)
		}
	}
	return coord, procs, single, queries
}

// awaitResync ticks the coordinator and the monitor alike until both
// workers are synced (the first tick finds any restart), failing after
// 15 s, and then requires the cluster to answer every query in ids as the
// monitor does.
func awaitResync(t *testing.T, coord *cluster.Coordinator, single *cpm.Monitor, ids []model.QueryID) {
	t.Helper()
	deadline := time.Now().Add(15 * time.Second)
	for round := 1; round == 1 || coord.SyncedWorkers() < 2; round++ {
		if time.Now().After(deadline) {
			t.Fatalf("%d of 2 workers synced after the restart", coord.SyncedWorkers())
		}
		coord.Tick(nudge(round, 7, 8))
		single.Tick(nudge(round, 7, 8))
		time.Sleep(20 * time.Millisecond)
	}
	for _, id := range ids {
		if got, want := coord.Result(id), single.Result(id); !reflect.DeepEqual(got, want) {
			t.Fatalf("query %d after re-sync: cluster %v, monitor %v", id, got, want)
		}
	}
}

// restartWorkers kills every worker and starts a fresh one on its address.
func restartWorkers(t *testing.T, procs []*workerProc) {
	t.Helper()
	for i := range procs {
		procs[i].kill()
		procs[i] = startWorker(t, procs[i].addr)
	}
}

// TestResyncUnderBackToBackTicks: a worker lost while ticks run back to
// back, with no pause between them, rejoins within a few ticks once its
// abandoned call drains: the operation that finds it reachable rebuilds
// it before it runs. No sleep — the rejoin must depend on the operation
// sequence, not on the scheduler leaving a gap.
func TestResyncUnderBackToBackTicks(t *testing.T) {
	coord, procs, single, queries := resyncScene(t)
	release := wedge(procs[0])
	coord.Tick(nudge(0, 1, 2))
	single.Tick(nudge(0, 1, 2))
	if coord.SyncedWorkers() != 1 {
		t.Fatal("wedged worker still synced")
	}
	release()

	const limit = 200
	round := 1
	for ; coord.SyncedWorkers() < 2; round++ {
		if round > limit {
			t.Fatalf("worker not re-synced after %d back-to-back ticks (%d re-syncs, %d failed)", limit,
				metric(t, coord, "cpm_coord_resyncs_total"), metric(t, coord, "cpm_coord_resync_failures_total"))
		}
		coord.Tick(nudge(round, 7, 8))
		single.Tick(nudge(round, 7, 8))
	}
	t.Logf("re-synced on back-to-back tick %d", round-1)
	for i := 0; i < 3; i++ {
		coord.Tick(nudge(round+i, 7, 8))
		single.Tick(nudge(round+i, 7, 8))
	}
	for id := range queries {
		if got, want := coord.Result(id), single.Result(id); !reflect.DeepEqual(got, want) {
			t.Fatalf("query %d after re-sync: cluster %v, monitor %v", id, got, want)
		}
	}
}

// TestDeadLinkCostsNoTicks: while a dead worker's link is down, the
// operations that cannot rebuild it must not wait for its reconnect loop
// — twenty back-to-back ticks finish in well under one ReconnectWait,
// where a rebuild attempt on the dead link would cost a ReconnectWait
// each. A worker restarted on the old address then rejoins inside a
// back-to-back tick loop.
func TestDeadLinkCostsNoTicks(t *testing.T) {
	const reconnectWait = 200 * time.Millisecond // startCluster's
	coord, procs, single, queries := resyncScene(t)
	procs[0].kill()
	coord.Tick(nudge(0, 1, 2)) // finds the worker gone
	single.Tick(nudge(0, 1, 2))
	if coord.SyncedWorkers() != 1 {
		t.Fatal("killed worker still synced")
	}
	coord.WaitWorkerIdle(0) // a call the first tick abandoned has drained

	start := time.Now()
	for round := 1; round <= 20; round++ {
		coord.Tick(nudge(round, 7, 8))
		single.Tick(nudge(round, 7, 8))
	}
	d := time.Since(start)
	if d > reconnectWait/2 {
		t.Fatalf("20 ticks with a dead worker took %v, want well under ReconnectWait (%v)", d, reconnectWait)
	}
	t.Logf("20 ticks with a dead worker took %v", d)

	procs[0] = startWorker(t, procs[0].addr)
	deadline := time.Now().Add(15 * time.Second)
	for round := 21; coord.SyncedWorkers() < 2; round++ {
		if time.Now().After(deadline) {
			t.Fatal("restarted worker never rejoined")
		}
		coord.Tick(nudge(round, 7, 8))
		single.Tick(nudge(round, 7, 8))
	}
	for id := range queries {
		if got, want := coord.Result(id), single.Result(id); !reflect.DeepEqual(got, want) {
			t.Fatalf("query %d after rejoin: cluster %v, monitor %v", id, got, want)
		}
	}
}

// TestResyncAfterInvalidQueryMove: a query move the engines refuse — here
// a NaN point — must not reach the coordinator's definition mirror either.
// A mirror that stored it would re-register the poisoned definition on
// every re-sync, each worker would reject it, and the cluster would never
// come back after a restart. The mirror counts the refused updates as the
// monitor does.
func TestResyncAfterInvalidQueryMove(t *testing.T) {
	coord, procs, single, queries := resyncScene(t)
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

	restartWorkers(t, procs)
	awaitResync(t, coord, single, slices.Collect(maps.Keys(queries)))
	if got := metric(t, coord, "cpm_coord_resyncs_total"); got < 2 {
		t.Fatalf("%d re-syncs, want one per restarted worker", got)
	}
}

// TestResyncAfterNegativeObjectInsert: an object update every worker
// refuses — here an insert under a negative id — must not reach the
// coordinator's object mirror. A mirror that stored it would ship the object
// in every re-sync's Bootstrap, each worker would drop it, and the
// mirror would disagree with the workers it rebuilt. The mirror counts the
// refused update as the monitor does.
func TestResyncAfterNegativeObjectInsert(t *testing.T) {
	coord, procs, single, queries := resyncScene(t)
	b := nudge(0, 1, 2)
	b.Objects = append(b.Objects, model.InsertUpdate(-5, geom.Point{X: 0.5, Y: 0.5}))
	coord.Tick(b)
	single.Tick(b)
	if got, want := coord.InvalidUpdates(), single.InvalidUpdates(); got != want || want != 1 {
		t.Fatalf("InvalidUpdates: coordinator %d, monitor %d, want 1 each", got, want)
	}
	if got, want := coord.ObjectCount(), single.ObjectCount(); got != want {
		t.Fatalf("ObjectCount: coordinator %d, monitor %d", got, want)
	}

	restartWorkers(t, procs)
	awaitResync(t, coord, single, slices.Collect(maps.Keys(queries)))
	if got, want := coord.ObjectCount(), single.ObjectCount(); got != want {
		t.Fatalf("ObjectCount after re-sync: coordinator %d, monitor %d", got, want)
	}
}

// TestResyncAfterInvalidRegistration: a registration absorbed while its
// owner is out of sync is held to the worker's register-time rule. A
// definition the mirror stored unchecked would be refused by every re-sync
// that tried to install it, and the restarted workers would never sync.
func TestResyncAfterInvalidRegistration(t *testing.T) {
	const k = 3
	coord, procs, single, queries := resyncScene(t)
	for _, p := range procs {
		p.kill()
	}
	coord.Tick(nudge(0, 1, 2)) // finds both workers gone
	single.Tick(nudge(0, 1, 2))
	if got := coord.SyncedWorkers(); got != 0 {
		t.Fatalf("%d workers synced after both died", got)
	}

	mid := geom.Point{X: 0.5, Y: 0.5}
	if err := coord.RegisterQuery(100, geom.Point{X: math.NaN(), Y: 0.5}, k); err == nil {
		t.Error("coordinator absorbed a query at a non-finite point")
	}
	if err := coord.RegisterQuery(200, mid, 0); err == nil {
		t.Error("coordinator absorbed a query with k = 0")
	}
	if err := coord.RegisterRangeQuery(300, mid, -1); err == nil {
		t.Error("coordinator absorbed a range query with a negative radius")
	}
	if err := coord.RegisterAggQuery(400, nil, k, geom.AggSum); err == nil {
		t.Error("coordinator absorbed an aggregate query with no points")
	}
	if err := coord.RegisterQuery(500, mid, k); err != nil {
		t.Fatalf("a valid registration while out of sync: %v", err)
	}
	if err := single.RegisterQuery(500, mid, k); err != nil {
		t.Fatal(err)
	}
	if got := coord.QueryCount(); got != len(queries)+1 {
		t.Errorf("QueryCount = %d, want %d", got, len(queries)+1)
	}

	for i := range procs {
		procs[i] = startWorker(t, procs[i].addr)
	}
	awaitResync(t, coord, single, append(slices.Collect(maps.Keys(queries)), 500))
}

// TestBootstrapDropsNonFinite: the coordinator's mirror drops and counts a
// non-finite bootstrap position and a negative id as a monitor does, so
// ObjectCount, InvalidUpdates and the results agree.
func TestBootstrapDropsNonFinite(t *testing.T) {
	coord, _ := startCluster(t, 2, time.Second)
	single := cpm.NewMonitor(cpm.Options{GridSize: 16})
	defer single.Close()

	objs, _ := denseScene(60, 0)
	objs[1000] = geom.Point{X: math.NaN(), Y: 0.5}
	objs[1001] = geom.Point{X: 0.5, Y: math.Inf(-1)}
	objs[-3] = geom.Point{X: 0.4, Y: 0.4}
	coord.Bootstrap(objs)
	single.Bootstrap(objs)
	if got, want := coord.ObjectCount(), single.ObjectCount(); got != want || want != 60 {
		t.Errorf("ObjectCount: coordinator %d, monitor %d, want 60 each", got, want)
	}
	if got, want := coord.InvalidUpdates(), single.InvalidUpdates(); got != want || want != 3 {
		t.Errorf("InvalidUpdates: coordinator %d, monitor %d, want 3 each", got, want)
	}
	q := geom.Point{X: 0.5, Y: 0.5}
	if err := coord.RegisterQuery(1, q, 4); err != nil {
		t.Fatal(err)
	}
	if err := single.RegisterQuery(1, q, 4); err != nil {
		t.Fatal(err)
	}
	if got, want := coord.Result(1), single.Result(1); !reflect.DeepEqual(got, want) {
		t.Fatalf("result: cluster %v, monitor %v", got, want)
	}
}
