package core

import (
	"math/rand"
	"testing"

	"cpm/internal/geom"
	"cpm/internal/model"
)

// BenchmarkRelocate measures the pure index-maintenance path — the cost the
// paper's Section 4.1 model calls Time_ind. The queries (and therefore all
// influence regions) live in the lower-left quadrant while the moving
// objects are confined to the upper-right one, so every move passes the
// affected-cell pre-filter without scanning a single influence list: each
// update is exactly one grid relocation (swap-delete from the old cell's
// slice, append to the new one's).
func BenchmarkRelocate(b *testing.B) {
	const (
		nObjects = 4096 // moving population, upper-right quadrant
		nStatic  = 1024 // static population around the queries: keeps every
		// influence region inside the lower-left quadrant
		nQueries = 64
		batchLen = 1024
	)
	rng := rand.New(rand.NewSource(17))
	e := newTestEngine(64, Options{})
	objs := make(map[model.ObjectID]geom.Point, nObjects+nStatic)
	pos := make([]geom.Point, nObjects)
	for i := range pos {
		// Moving objects stay in [0.55,1)² — outside every query's reach.
		pos[i] = geom.Point{X: 0.55 + 0.45*rng.Float64(), Y: 0.55 + 0.45*rng.Float64()}
		objs[model.ObjectID(i)] = pos[i]
	}
	for i := 0; i < nStatic; i++ {
		objs[model.ObjectID(nObjects+i)] = geom.Point{X: 0.25 * rng.Float64(), Y: 0.25 * rng.Float64()}
	}
	e.Bootstrap(objs)
	for i := 0; i < nQueries; i++ {
		q := geom.Point{X: 0.2 * rng.Float64(), Y: 0.2 * rng.Float64()}
		if err := e.RegisterQuery(model.QueryID(i), q, 8); err != nil {
			b.Fatal(err)
		}
	}
	// A ring of pre-built move batches keeps generation out of the loop;
	// moves jitter within the upper-right quadrant so no influence region
	// is ever touched.
	clampHi := func(v float64) float64 {
		if v < 0.55 {
			return 0.55
		}
		if v > 0.999 {
			return 0.999
		}
		return v
	}
	batches := make([]model.Batch, 8)
	for c := range batches {
		upd := make([]model.Update, batchLen)
		for j := range upd {
			id := model.ObjectID(rng.Intn(nObjects))
			to := geom.Point{
				X: clampHi(pos[id].X + (rng.Float64()-0.5)*0.02),
				Y: clampHi(pos[id].Y + (rng.Float64()-0.5)*0.02),
			}
			upd[j] = model.MoveUpdate(id, pos[id], to)
			pos[id] = to
		}
		batches[c] = model.Batch{Objects: upd}
	}
	base := e.Stats()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.ProcessBatch(batches[i%len(batches)])
	}
	b.StopTimer()
	if d := e.Stats().Sub(base); d.ObjectsProcessed != 0 || d.Recomputations != 0 {
		b.Fatalf("relocation touched query state: %+v", d)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*batchLen), "ns/move")
}

// BenchmarkMoveQueries prices the from-scratch search: every query moves
// every iteration, so each op is one NN computation (Figure 3.4) per query.
// The mix follows a query-churn workload — 7 in 9 point queries with k=64,
// the rest sum-aggregate and constrained with k=16 — over 10 000 uniform
// objects on 128², about 0.6 objects a cell, where most of the cells a
// search crosses are empty.
func BenchmarkMoveQueries(b *testing.B) {
	const (
		nObjects = 10000
		nQueries = 450
		rounds   = 8
	)
	rng := rand.New(rand.NewSource(23))
	w := &world{rng: rng, pos: map[model.ObjectID]geom.Point{}}
	e := newTestEngine(128, Options{})
	e.Bootstrap(w.populate(nObjects))
	near := func(c geom.Point) geom.Point {
		return geom.Point{X: c.X + 0.1*rng.Float64() - 0.05, Y: c.Y + 0.1*rng.Float64() - 0.05}
	}
	batches := make([][]model.QueryUpdate, rounds)
	for i := range nQueries {
		id := model.QueryID(i)
		var def Def
		switch i % 9 {
		case 7:
			c := w.randPoint()
			def = AggQuery([]geom.Point{near(c), near(c), near(c)}, 16, geom.AggSum)
		case 8:
			region := geom.Rect{Lo: geom.Point{X: 0.35, Y: 0.35}, Hi: geom.Point{X: 0.65, Y: 0.65}}
			def = PointQuery(geom.Point{X: 0.35 + 0.3*rng.Float64(), Y: 0.35 + 0.3*rng.Float64()}, 16)
			def.Constraint = &region
		default:
			def = PointQuery(w.randPoint(), 64)
		}
		if err := e.Register(id, def); err != nil {
			b.Fatal(err)
		}
		for r := range batches {
			to := make([]geom.Point, len(def.Points))
			c := w.randPoint()
			for j := range to {
				to[j] = c
				if len(to) > 1 {
					to[j] = near(c)
				}
			}
			batches[r] = append(batches[r], model.QueryUpdate{ID: id, Kind: model.QueryMove, NewPoints: to})
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.ProcessBatch(model.Batch{Queries: batches[i%rounds]})
	}
	b.StopTimer()
	if e.InvalidUpdates() != 0 {
		b.Fatalf("%d invalid query moves", e.InvalidUpdates())
	}
	b.ReportMetric(float64(e.Stats().HeapOps)/float64(b.N+1), "heapops/op")
}
