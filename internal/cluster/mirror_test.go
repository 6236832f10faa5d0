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
	w := &worker{}
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
	c.acceptResync(c.workers[0], resyncResult{results: map[model.QueryID][]model.Neighbor{5: fresh}})
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

// TestResyncSnapshotStableDuringOps: a re-sync abandoned at the deadline
// keeps running while later operations do, and the mirror rewrites its
// buffers in place, so a re-sync snapshot must share none of them: it
// still holds the objects and the definitions as they were when it was
// taken.
func TestResyncSnapshotStableDuringOps(t *testing.T) {
	c := mirrorCoordinator()
	snap := c.snapshotFor(c.workers)[0]
	if len(snap.defs) != 1 || len(snap.objs) != 2 {
		t.Fatalf("want a snapshot carrying query 5 and both objects: %+v", snap)
	}
	want := slices.Clone(c.defs[5].Points)

	c.applyBatchToMirror(model.Batch{
		Objects: []model.Update{{ID: 1, Kind: model.Move, New: geom.Point{X: 0.9, Y: 0.9}}},
		Queries: []model.QueryUpdate{{ID: 5, Kind: model.QueryMove,
			NewPoints: []geom.Point{{X: 0.1, Y: 0.9}, {X: 0.9, Y: 0.1}}}},
	})
	if c.defs[5].Points[0] != (geom.Point{X: 0.1, Y: 0.9}) || c.objs[1] != (geom.Point{X: 0.9, Y: 0.9}) {
		t.Fatalf("the move did not reach the mirror: %v, %v", c.defs[5].Points, c.objs[1])
	}
	if got := snap.defs[0].Points; !slices.Equal(got, want) {
		t.Fatalf("snapshot definition changed under a later move: %v, want %v", got, want)
	}
	if got := snap.objs[1]; got != (geom.Point{X: 0.1, Y: 0.1}) {
		t.Fatalf("snapshot object changed under a later move: %v", got)
	}
}
