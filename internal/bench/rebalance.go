package bench

import (
	"fmt"
	"math/rand"
	"time"

	"cpm/internal/core"
	"cpm/internal/geom"
	"cpm/internal/model"
	"cpm/internal/shard"
)

// The ablation.rebalance table: online grid rebalancing exists to keep
// cycle time flat when the population density drifts away from the density
// δ was sized for, so this experiment runs a hotspot-drift workload —
// every object contracts from a uniform spread into a tiny hotspot, then
// keeps churning inside it — twice over identical update streams: once on
// a frozen grid (the paper's fixed δ, degrading as cells around the
// hotspot fill up) and once with the auto-rebalancing policy on. The
// rebalancing monitor's post-drift cycle time holds near the
// uniform-density cost while the frozen one's blows up with the hotspot.
// TestRebalanceBeatsFrozen pins the relation on deterministic work
// counters.

// driftParams sizes the hotspot-drift workload.
type driftParams struct {
	N        int   // objects
	Queries  int   // k-NN queries, sprinkled around the hotspot
	K        int   // neighbors per query
	GridSize int   // initial cells per dimension (the frozen grid keeps it)
	Cycles   int   // total processing cycles; the first half is the drift
	Seed     int64 // rng seed
}

// driftHotspot is the collapse target: center and radius of the final
// population blob (a handful of cells of the initial grid).
var driftHotspot = struct {
	center geom.Point
	radius float64
}{geom.Point{X: 0.5, Y: 0.5}, 0.02}

// driftWorkload pre-generates the full update stream (identical for both
// monitors): initial positions, per-cycle batches, and the query points.
func driftWorkload(p driftParams) (objs map[model.ObjectID]geom.Point, batches []model.Batch, queries []geom.Point) {
	rng := rand.New(rand.NewSource(p.Seed))
	clamp := func(v float64) float64 {
		if v < 0 {
			return 0
		}
		if v > 1 {
			return 1
		}
		return v
	}
	inHotspot := func() geom.Point {
		return geom.Point{
			X: clamp(driftHotspot.center.X + (rng.Float64()*2-1)*driftHotspot.radius),
			Y: clamp(driftHotspot.center.Y + (rng.Float64()*2-1)*driftHotspot.radius),
		}
	}

	pos := make([]geom.Point, p.N)
	objs = make(map[model.ObjectID]geom.Point, p.N)
	for i := range pos {
		pos[i] = geom.Point{X: rng.Float64(), Y: rng.Float64()}
		objs[model.ObjectID(i)] = pos[i]
	}
	queries = make([]geom.Point, p.Queries)
	for i := range queries {
		queries[i] = inHotspot()
	}

	batches = make([]model.Batch, p.Cycles)
	for c := range batches {
		b := model.Batch{Objects: make([]model.Update, 0, p.N)}
		for i := range pos {
			old := pos[i]
			var to geom.Point
			if c < p.Cycles/2 {
				// Drift: contract 35% of the way toward a point inside the
				// hotspot each cycle — fully collapsed well before halftime.
				target := inHotspot()
				to = geom.Point{
					X: old.X + (target.X-old.X)*0.35,
					Y: old.Y + (target.Y-old.Y)*0.35,
				}
			} else {
				// Post-drift steady state: churn inside the hotspot, keeping
				// the update (and result-maintenance) load high at maximum
				// density.
				to = inHotspot()
			}
			pos[i] = to
			b.Objects = append(b.Objects, model.MoveUpdate(model.ObjectID(i), old, to))
		}
		batches[c] = b
	}
	return objs, batches, queries
}

// driftRun is one monitor's measurement over the drift workload.
type driftRun struct {
	Elapsed    time.Duration // total ProcessBatch time, all cycles
	SecondHalf time.Duration // ProcessBatch time across the post-drift half
	HalfStats  model.Stats   // post-drift-half counter deltas
	GridSize   int           // final cells per dimension
	Rebalances int64         // resizes performed
}

// runDrift drives one monitor through the pre-generated drift stream.
func runDrift(m *shard.Monitor, objs map[model.ObjectID]geom.Point, batches []model.Batch, queries []geom.Point, k int) (driftRun, error) {
	defer m.Close()
	m.Bootstrap(objs)

	for i, q := range queries {
		if err := m.RegisterQuery(model.QueryID(i), q, k); err != nil {
			return driftRun{}, err
		}
	}
	var r driftRun
	var halfBase model.Stats
	for c, b := range batches {
		start := time.Now()
		m.ProcessBatch(b)
		d := time.Since(start)
		r.Elapsed += d
		if c >= len(batches)/2 {
			r.SecondHalf += d
		}
		if c == len(batches)/2-1 {
			halfBase = m.Stats()
		}
	}
	r.HalfStats = m.Stats().Sub(halfBase)
	r.GridSize = m.GridSize()
	r.Rebalances = m.Rebalances()
	return r, nil
}

// runDriftPair runs the identical drift stream on a frozen-grid monitor
// and an auto-rebalancing one.
func runDriftPair(p driftParams) (frozen, auto driftRun, err error) {
	objs, batches, queries := driftWorkload(p)

	frozen, err = runDrift(shard.NewUnit(1, p.GridSize, core.Options{}), objs, batches, queries, p.K)
	if err != nil {
		return driftRun{}, driftRun{}, err
	}

	m := shard.NewUnit(1, p.GridSize, core.Options{})
	m.SetAutoRebalance(shard.AutoRebalance{
		Enabled:    true,
		CheckEvery: 4, // react during the drift, not after it
	})
	auto, err = runDrift(m, objs, batches, queries, p.K)
	if err != nil {
		return driftRun{}, driftRun{}, err
	}
	return frozen, auto, nil
}

// runAblationRebalance renders the drift pair: N = 60K·scale objects (at
// least 1 000), one query per 125 objects, 2·ts cycles on a 64² grid.
func runAblationRebalance(o Options) (Table, error) {
	o.defaults()
	n := max(1000, int(60_000*o.Scale))
	p := driftParams{N: n, Queries: n / 125, K: 8, GridSize: 64, Cycles: 2 * o.Timestamps, Seed: o.Seed}
	frozen, auto, err := runDriftPair(p)
	if err != nil {
		return Table{}, err
	}
	t := Table{
		ID:    "ablation.rebalance",
		Title: "online grid rebalancing vs a frozen grid under hotspot drift",
		Note: fmt.Sprintf("N=%d n=%d k=%d grid=%d cycles=%d (the first half drifts); CPU in ms",
			p.N, p.Queries, p.K, p.GridSize, p.Cycles),
		Header: []string{"monitor", "total", "post-drift/cycle", "post-drift objects", "final grid", "resizes"},
	}
	half := time.Duration(p.Cycles - p.Cycles/2)
	for _, r := range []struct {
		name string
		run  driftRun
	}{{"frozen", frozen}, {"rebalance", auto}} {
		t.Rows = append(t.Rows, []string{
			r.name,
			fmtFloat(float64(r.run.Elapsed.Microseconds()) / 1000),
			fmtFloat(float64((r.run.SecondHalf / half).Microseconds()) / 1000),
			fmt.Sprintf("%d", r.run.HalfStats.ObjectsProcessed),
			fmt.Sprintf("%d^2", r.run.GridSize),
			fmt.Sprintf("%d", r.run.Rebalances),
		})
	}
	return t, nil
}
