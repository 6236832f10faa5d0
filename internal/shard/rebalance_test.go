package shard_test

import (
	"reflect"
	"sort"
	"testing"

	"cpm/internal/core"
	"cpm/internal/geom"
	"cpm/internal/model"
	"cpm/internal/shard"
)

// installExisting registers the world's current query set (at its current
// locations) on a freshly built monitor, in ascending id order.
func installExisting(t *testing.T, w *world, m monitor) {
	t.Helper()
	ids := make([]model.QueryID, 0, len(w.queries))
	for id := range w.queries {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	for _, id := range ids {
		def := w.queries[id]
		var err error
		switch def.kind {
		case qPoint:
			err = m.RegisterQuery(id, def.pts[0], def.k)
		case qConstrained:
			d := core.PointQuery(def.pts[0], def.k)
			d.Constraint = &def.constraint
			err = m.Register(id, d)
		case qAgg:
			err = m.Register(id, core.AggQuery(def.pts, def.k, def.agg))
		case qRange:
			err = m.RegisterRange(id, def.pts[0], def.radius)
		}
		if err != nil {
			t.Fatalf("install q%d on fresh monitor: %v", id, err)
		}
	}
}

// TestRebalanceEquivalence is the resize correctness property: after
// Rebalance(newSize) — growing and shrinking, at 1 and 8 shards — the
// resized monitor's per-query results and its ordered diff stream over all
// subsequent cycles are byte-for-byte those of a monitor freshly built at
// the new size over the same state, and both match the brute-force oracle
// every cycle.
func TestRebalanceEquivalence(t *testing.T) {
	const (
		startSize = 16
		objects   = 220
		initialQ  = 12
	)
	for _, shards := range []int{1, 8} {
		for _, newSize := range []int{37, 6} { // grow and shrink
			for _, seed := range []int64{2, 13} {
				w := newWorld(seed, startSize, objects)
				m := shard.NewUnit(shards, startSize, core.Options{})
				defer m.Close()

				boot := make(map[model.ObjectID]geom.Point, len(w.pos))
				for id, p := range w.pos {
					boot[id] = p
				}
				m.Bootstrap(boot)
				m.EnableDiffs(true)
				for i := 0; i < initialQ; i++ {
					w.install(t, []monitor{m})
				}

				// A few warm-up cycles so the resize hits a lived-in monitor
				// (populated visit lists, trimmed influence prefixes).
				for cycle := 0; cycle < 6; cycle++ {
					b := w.batch()
					w.applyToOracle(b)
					m.ProcessBatch(b)
					m.TakeDiffs()
				}

				before := make(map[model.QueryID][]model.Neighbor, len(w.queries))
				for id, def := range w.queries {
					before[id] = w.result(m, id, def)
				}

				m.Rebalance(newSize)

				if got := m.GridSize(); got != newSize {
					t.Fatalf("GridSize = %d after Rebalance(%d)", got, newSize)
				}
				if got := m.Rebalances(); got != 1 {
					t.Fatalf("Rebalances = %d, want 1", got)
				}
				if diffs := m.TakeDiffs(); len(diffs) != 0 {
					t.Fatalf("Rebalance emitted diffs: %v", diffs)
				}
				for id, def := range w.queries {
					got := w.result(m, id, def)
					if !neighborsEqual(got, before[id]) {
						t.Fatalf("shards=%d newSize=%d seed=%d: Rebalance changed q%d\nbefore %v\nafter  %v",
							shards, newSize, seed, id, before[id], got)
					}
				}

				// The reference: a monitor built directly at the new size
				// over the current object population and query set. Its
				// pending install diffs are drained so both streams start
				// empty.
				fresh := shard.NewUnit(shards, newSize, core.Options{})
				defer fresh.Close()
				curObjs := make(map[model.ObjectID]geom.Point, len(w.pos))
				for id, p := range w.pos {
					curObjs[id] = p
				}
				fresh.Bootstrap(curObjs)
				fresh.EnableDiffs(true)
				installExisting(t, w, fresh)
				fresh.TakeDiffs()

				for id, def := range w.queries {
					got, ref := w.result(m, id, def), w.result(fresh, id, def)
					if !neighborsEqual(got, ref) {
						t.Fatalf("shards=%d newSize=%d seed=%d q%d: resized %v, fresh %v",
							shards, newSize, seed, id, got, ref)
					}
				}

				// Subsequent cycles: identical batches (including churn,
				// query moves and terminations) must produce identical
				// results, change sets and ordered diff streams on the
				// resized and the fresh monitor, and oracle-exact results.
				for cycle := 0; cycle < 10; cycle++ {
					// Mid-stream, rebuild the (shared, at 8 shards) grid
					// again on the resized monitor only: results are
					// δ-independent, so the two monitors must stay
					// byte-identical even at different grid sizes.
					if cycle == 5 {
						m.Rebalance(24)
						if got := m.Rebalances(); got != 2 {
							t.Fatalf("Rebalances = %d after mid-stream resize, want 2", got)
						}
					}
					b := w.batch()
					w.applyToOracle(b)
					m.ProcessBatch(b)
					fresh.ProcessBatch(b)

					for id, def := range w.queries {
						want := w.expect(def)
						got := w.result(m, id, def)
						if !neighborsEqual(got, want) {
							t.Fatalf("shards=%d newSize=%d seed=%d cycle %d q%d: resized monitor diverged from oracle\ngot  %v\nwant %v",
								shards, newSize, seed, cycle, id, got, want)
						}
						if ref := w.result(fresh, id, def); !neighborsEqual(got, ref) {
							t.Fatalf("shards=%d newSize=%d seed=%d cycle %d q%d: resized %v, fresh %v",
								shards, newSize, seed, cycle, id, got, ref)
						}
					}
					if got, ref := m.ChangedQueries(), fresh.ChangedQueries(); !reflect.DeepEqual(got, ref) {
						t.Fatalf("shards=%d newSize=%d seed=%d cycle %d: changed sets\nresized %v\nfresh   %v",
							shards, newSize, seed, cycle, got, ref)
					}
					if got, ref := m.TakeDiffs(), fresh.TakeDiffs(); !reflect.DeepEqual(got, ref) {
						t.Fatalf("shards=%d newSize=%d seed=%d cycle %d: diff streams\nresized %v\nfresh   %v",
							shards, newSize, seed, cycle, got, ref)
					}
					for w.rng.Float64() < 0.3 { // query churn on both monitors
						w.install(t, []monitor{m, fresh})
					}
				}
			}
		}
	}
}

// TestRebalanceSameSizeIsNoop pins the fast path: no rebuild, no count.
func TestRebalanceSameSizeIsNoop(t *testing.T) {
	m := shard.NewUnit(1, 16, core.Options{})
	m.Bootstrap(map[model.ObjectID]geom.Point{1: {X: 0.5, Y: 0.5}})
	epoch := m.GridEpoch()
	m.Rebalance(16)
	if m.Rebalances() != 0 || m.GridEpoch() != epoch {
		t.Fatalf("same-size Rebalance counted %d resizes, epoch %d → %d", m.Rebalances(), epoch, m.GridEpoch())
	}
}

// TestAutoRebalancePolicy checks the density-driven trigger: a population
// collapsing into a hotspot must grow the grid, a dispersing one must
// shrink it back, results staying oracle-exact throughout; and occupancy
// inside the hysteresis band must never trigger at all.
func TestAutoRebalancePolicy(t *testing.T) {
	const n = 1500
	for _, shards := range []int{1, 4} {
		w := newWorld(9, 32, n)
		m := shard.NewUnit(shards, 32, core.Options{})
		defer m.Close()
		m.SetAutoRebalance(shard.AutoRebalance{
			Enabled:              true,
			TargetObjectsPerCell: 6,
			CheckEvery:           2,
			MaxSize:              256,
		})
		boot := make(map[model.ObjectID]geom.Point, len(w.pos))
		for id, p := range w.pos {
			boot[id] = p
		}
		m.Bootstrap(boot)
		for i := 0; i < 8; i++ {
			w.install(t, []monitor{m})
		}

		check := func(label string) {
			t.Helper()
			for id, def := range w.queries {
				got, want := w.result(m, id, def), w.expect(def)
				if !neighborsEqual(got, want) {
					t.Fatalf("shards=%d %s q%d: got %v, want %v", shards, label, id, got, want)
				}
			}
		}

		// Phase 1: collapse everything into a 0.02-radius hotspot over a
		// few cycles. Density explodes, the policy must refine the grid.
		startSize := m.GridSize()
		hotspot := geom.Point{X: 0.31, Y: 0.64}
		ids := make([]model.ObjectID, 0, len(w.pos))
		for id := range w.pos {
			ids = append(ids, id)
		}
		sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
		for cycle := 0; cycle < 8; cycle++ {
			var b model.Batch
			for _, id := range ids {
				old := w.pos[id]
				to := geom.Point{
					X: hotspot.X + (old.X-hotspot.X)*0.4 + (w.rng.Float64()-0.5)*0.004,
					Y: hotspot.Y + (old.Y-hotspot.Y)*0.4 + (w.rng.Float64()-0.5)*0.004,
				}
				w.pos[id] = to
				b.Objects = append(b.Objects, model.MoveUpdate(id, old, to))
			}
			w.applyToOracle(b)
			m.ProcessBatch(b)
			check("collapse")
		}
		grown := m.GridSize()
		if grown <= startSize {
			t.Fatalf("shards=%d: grid did not grow under hotspot density: %d -> %d",
				shards, startSize, grown)
		}
		if m.Rebalances() == 0 {
			t.Fatalf("shards=%d: no rebalance recorded", shards)
		}

		// Phase 2: disperse back to uniform; the policy must coarsen again.
		for cycle := 0; cycle < 8; cycle++ {
			var b model.Batch
			for _, id := range ids {
				old := w.pos[id]
				to := w.randPoint()
				w.pos[id] = to
				b.Objects = append(b.Objects, model.MoveUpdate(id, old, to))
			}
			w.applyToOracle(b)
			m.ProcessBatch(b)
			check("disperse")
		}
		if shrunk := m.GridSize(); shrunk >= grown {
			t.Fatalf("shards=%d: grid did not shrink back after dispersal: %d (was %d)",
				shards, shrunk, grown)
		}

		// Phase 3: steady density. The sqrt correction may need a couple of
		// further checks to converge into the band (each step moves toward
		// the target), so let it settle first; after that the hysteresis
		// band must hold the size absolutely still.
		for cycle := 0; cycle < 12; cycle++ {
			b := w.batch()
			w.applyToOracle(b)
			m.ProcessBatch(b)
			check("settle")
		}
		count, size := m.Rebalances(), m.GridSize()
		for cycle := 0; cycle < 8; cycle++ {
			b := w.batch()
			w.applyToOracle(b)
			m.ProcessBatch(b)
			check("steady")
		}
		if got := m.Rebalances(); got != count {
			t.Fatalf("shards=%d: policy thrashed in steady state: %d extra resizes (size %d -> %d)",
				shards, got-count, size, m.GridSize())
		}
	}
}
