package cluster_test

import (
	"testing"
	"time"

	"cpm/internal/geom"
	"cpm/internal/model"
)

// TestAbandonedCallKeepsItsBatch pins the rule that makes the
// coordinator's reuse of per-worker buffers safe: nothing rewrites a
// buffer that a call abandoned at the deadline may still read. Holding the
// victim's link mutex stalls its Tick call before the call reads its
// share of the batch — where a call waiting out a reconnect sits — so
// the call reads it only after the coordinator has run three more ticks,
// a registration and a removal without that worker. Under -race, a
// partition that rewrote the out-of-sync worker's batch shows up here as a
// data race: the mutex is released by a goroutine that never synchronizes
// with those operations. Afterwards the worker must be rebuilt exactly
// once and the results must equal a one-shard monitor's.
func TestAbandonedCallKeepsItsBatch(t *testing.T) {
	const nObjs, nQueries, victim = 120, 8, 0
	cc := startChaosCluster(t, 2, 1)
	cc.seedScene(t, nObjs, nQueries)
	cc.tick(rotBatch(0, nObjs, 4))

	// Every batch moves every query, so each worker's share of it is
	// never empty.
	batch := func(round int) model.Batch {
		b := rotBatch(round, nObjs, 4)
		for id := model.QueryID(0); id < nQueries; id++ {
			p := geom.Point{X: (float64(id%4) + 0.4 + 0.02*float64(round)) / 4, Y: (float64(id/4) + 0.5) / 4}
			cc.queries[id] = geom2{p.X, p.Y}
			b.Queries = append(b.Queries, model.QueryUpdate{ID: id, Kind: model.QueryMove, NewPoints: []geom.Point{p}})
		}
		return b
	}

	release := cc.coord.HoldWorker(victim)
	cc.tick(batch(1))
	if cc.coord.WorkerSynced(victim) {
		t.Fatal("the held worker answered a tick")
	}
	go func() {
		time.Sleep(time.Second)
		release()
	}()
	for round := 2; round <= 4; round++ {
		cc.tick(batch(round))
	}
	const extra = model.QueryID(100)
	q := geom.Point{X: 0.3, Y: 0.7}
	if err := cc.coord.RegisterQuery(extra, q, 4); err != nil {
		t.Fatal(err)
	}
	if err := cc.single.RegisterQuery(extra, q, 4); err != nil {
		t.Fatal(err)
	}
	cc.coord.RemoveQuery(3)
	cc.single.RemoveQuery(3)
	delete(cc.queries, 3)
	cc.queries[extra] = geom2{q.X, q.Y}
	if cc.coord.WorkerSynced(victim) {
		t.Fatal("the held worker was rebuilt while its abandoned call held its link")
	}

	cc.coord.WaitWorkerIdle(victim) // the abandoned call has run and returned
	cc.tick(batch(5))
	if n := cc.coord.SyncedWorkers(); n != 2 {
		t.Fatalf("%d of 2 workers synced after the straggler returned", n)
	}
	if err := cc.verify("after the rebuild"); err != nil {
		t.Fatal(err)
	}
	if got := metric(t, cc.coord, "cpm_coord_resyncs_total"); got != 1 {
		t.Fatalf("%d rebuilds, want exactly 1", got)
	}
	if got := metric(t, cc.coord, "cpm_coord_worker_desyncs_total"); got != 1 {
		t.Fatalf("%d desyncs, want exactly 1", got)
	}
}
