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
