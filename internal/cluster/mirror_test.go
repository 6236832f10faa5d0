package cluster

import (
	"slices"
	"testing"

	"cpm/internal/geom"
	"cpm/internal/model"
	"cpm/internal/wire"
)

// mirrorCoordinator is a coordinator over one out-of-sync worker, with a
// two-point aggregate query 5 installed in the mirror and no network: enough
// for snapshotFor, acceptResync and the mirror's maintenance to run.
func mirrorCoordinator() *Coordinator {
	c := &Coordinator{
		met:     newCoordMetrics(1),
		objs:    map[model.ObjectID]geom.Point{1: {X: 0.1, Y: 0.1}, 2: {X: 0.2, Y: 0.2}},
		defs:    map[model.QueryID]wire.Register{5: {ID: 5, Kind: wire.KindAgg, K: 2, Points: []geom.Point{{X: 0.5, Y: 0.5}, {X: 0.6, Y: 0.6}}}},
		results: map[model.QueryID][]model.Neighbor{},
	}
	w := &worker{dirtyObjs: map[model.ObjectID]bool{}, dirtyQueries: map[model.QueryID]bool{}}
	w.healthG = c.met.reg.Gauge("cpm_coord_worker0_health")
	c.workers = []*worker{w}
	return c
}

// TestMirrorOwnsItsBuffers: the mirror copies what it is fed — a diff's
// Result, a re-sync's fresh results, a move's points — into buffers of its
// own, rewritten in place, so it neither pins its feeders' arena chunks nor
// changes when they are reused.
func TestMirrorOwnsItsBuffers(t *testing.T) {
	c := mirrorCoordinator()
	res := []model.Neighbor{{ID: 1, Dist: 0.5}, {ID: 2, Dist: 0.6}}
	c.finishDiffs([]model.ResultDiff{{Query: 5, Kind: model.DiffInstall, Entered: res, Result: res}})
	res[0].ID = 99
	if got := c.results[5]; got[0].ID != 1 {
		t.Fatalf("mirror result aliases the diff it was fed: %v", got)
	}

	fresh := []model.Neighbor{{ID: 2, Dist: 0.1}, {ID: 1, Dist: 0.2}}
	c.acceptResync(resyncResult{results: map[model.QueryID][]model.Neighbor{5: fresh}})
	fresh[0].ID = 99
	if got := c.results[5]; got[0].ID != 2 {
		t.Fatalf("mirror result aliases the re-sync's fresh result: %v", got)
	}

	pts := []geom.Point{{X: 0.7, Y: 0.7}, {X: 0.8, Y: 0.8}}
	c.applyBatchToMirror(model.Batch{Queries: []model.QueryUpdate{{ID: 5, Kind: model.QueryMove, NewPoints: pts}}})
	pts[0].X = -1
	if got := c.defs[5].Points; got[0] != (geom.Point{X: 0.7, Y: 0.7}) || got[1] != (geom.Point{X: 0.8, Y: 0.8}) {
		t.Fatalf("mirror definition aliases the batch's points: %v", got)
	}
}

// TestResyncSnapshotStableDuringOps: operations keep running while a
// re-sync does, and the mirror rewrites its buffers in place, so a re-sync
// snapshot — incremental or full — must share none of them: it still holds
// the definitions as they were when it was taken.
func TestResyncSnapshotStableDuringOps(t *testing.T) {
	c := mirrorCoordinator()
	w := c.workers[0]
	w.dirtyQueries[5] = true
	incr := c.snapshotFor(w)
	w.needFull = true
	full := c.snapshotFor(w)
	if incr.full || !full.full || len(incr.defs) != 1 || len(full.defs) != 1 {
		t.Fatalf("want one incremental and one full snapshot carrying query 5: %+v, %+v", incr, full)
	}
	want := slices.Clone(c.defs[5].Points)

	c.applyBatchToMirror(model.Batch{Queries: []model.QueryUpdate{{ID: 5, Kind: model.QueryMove,
		NewPoints: []geom.Point{{X: 0.1, Y: 0.9}, {X: 0.9, Y: 0.1}}}}})
	if c.defs[5].Points[0] != (geom.Point{X: 0.1, Y: 0.9}) {
		t.Fatalf("the move did not reach the mirror: %v", c.defs[5].Points)
	}
	for _, snap := range []resyncSnap{incr, full} {
		if got := snap.defs[0].Points; !slices.Equal(got, want) {
			t.Fatalf("snapshot (full %v) changed under a later move: %v, want %v", snap.full, got, want)
		}
	}
}
