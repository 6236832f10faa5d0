package shard_test

import (
	"fmt"
	"math/rand"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"cpm/internal/core"
	"cpm/internal/geom"
	"cpm/internal/metrics"
	"cpm/internal/model"
	"cpm/internal/notify"
	"cpm/internal/shard"
)

// TestSteadyStateAllocs pins the allocation-free hot path: once a monitor
// is warmed (every pooled buffer — visit lists, heaps, in-lists, the
// per-cycle dirty/changed sets, the shard routing buffers and worker
// channels — has reached its steady capacity), ProcessBatch must perform
// zero heap allocations per tick, at 1 shard (the bare engine path) and at
// 8 shards (the persistent-worker fan-out), also when every query moves
// every tick over a sparse grid. Range queries ride along to cover the
// range-monitoring notification path.
//
// The paper's cost model (Section 4.1) charges updates a constant
// Time_ind for index maintenance; this test is the Go-level counterpart —
// no hidden allocator or GC traffic on top of that constant.
func TestSteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; allocation counts are meaningless")
	}
	cases := []struct {
		name string
		// A sparse case moves every query, half of them each tick, as a
		// query-churn stream does: a move is a from-scratch search over a
		// 256² grid a thousand objects leave mostly empty, which puts the
		// search's parked-cell run on the measured path, and in the tick
		// between its moves the object stream re-computes or shrinks the
		// query, which sorts the visit list that search left unordered.
		sparse bool
		shards int
	}{
		{"shards=1", false, 1},
		{"shards=8", false, 8},
		{"sparse-moving/shards=1", true, 1},
		{"sparse-moving/shards=8", true, 8},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			w := makeTickWorkload(2048, 64, 8, 8, 0.5, 5)
			gridSize := 64
			if tc.sparse {
				w = makeTickWorkload(1000, 32, 64, 8, 0.2, 9)
				w.moveQueries()
				gridSize = 256
			}
			m := shard.NewUnit(tc.shards, gridSize, core.Options{})
			// Auto-rebalancing rides along — except on the sparse grid,
			// which it would coarsen — with a band wide enough that the
			// steady workload never triggers a resize: the per-tick policy
			// check (occupancy read + hysteresis test) must itself be
			// allocation-free between rebalances. The trailing Rebalances
			// assertion turns an unexpected resize into a readable failure
			// instead of a mysterious alloc count.
			m.SetAutoRebalance(shard.AutoRebalance{
				Enabled:              !tc.sparse,
				TargetObjectsPerCell: 2,
				CheckEvery:           1,
				Band:                 4,
			})
			w.mount(t, m)
			// A few standing range queries exercise the range entries of
			// the influence scans and their change notes alongside the k-NN
			// path.
			for i := 0; i < 4; i++ {
				id := model.QueryID(len(w.queries) + i)
				center := geom.Point{X: 0.2 + 0.2*float64(i), Y: 0.5}
				if err := m.RegisterRange(id, center, 0.05); err != nil {
					t.Fatal(err)
				}
			}
			// Warm: several passes over the batch ring grow every reusable
			// buffer to the capacity the periodic workload needs.
			for c := 0; c < 4*len(w.batches); c++ {
				m.ProcessBatch(w.batches[c%len(w.batches)])
			}
			// Metrics recording rides in the measured loop exactly as the
			// serving layer records it per tick (a cycle-time histogram
			// observation plus counter traffic): instrumentation must stay
			// free on the hot path, not just the engine.
			reg := metrics.NewRegistry()
			cycleHist := reg.Histogram("cpm_test_cycle_ns")
			tickCtr := reg.Counter("cpm_test_ticks_total")
			tick := 0
			before := m.Stats()
			avg := testing.AllocsPerRun(100, func() {
				start := time.Now()
				m.ProcessBatch(w.batches[tick%len(w.batches)])
				cycleHist.ObserveSince(start)
				tickCtr.Inc()
				tick++
			})
			if avg != 0 {
				t.Errorf("steady-state ProcessBatch allocates %.2f/op, want 0", avg)
			}
			if got := m.Rebalances(); got != 0 {
				t.Errorf("steady workload triggered %d rebalances; widen the test band", got)
			}
			if st := m.Stats().Sub(before); tc.sparse && (st.FullSearches < int64(50*len(w.queries)) || st.Recomputations == 0 || st.ShortCircuits == 0) {
				t.Errorf("%d full searches, %d re-computations, %d short circuits: the sparse case misses a search path",
					st.FullSearches, st.Recomputations, st.ShortCircuits)
			}
		})
	}
}

// TestSubscribedAllocsDoNotScaleWithDiffs pins the delivery path's
// allocation cost: with diffs collected, taken and published to a draining
// subscriber, a tick allocates a small constant — a few arena chunks and
// nothing per event — whether 64 queries change in it or 512. Before the
// per-take arena every diff cost about 14 allocations.
func TestSubscribedAllocsDoNotScaleWithDiffs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; allocation counts are meaningless")
	}
	const perTickBudget = 8
	for _, shards := range []int{1, 8} {
		for _, queries := range []int{64, 512} {
			t.Run(fmt.Sprintf("shards=%d/queries=%d", shards, queries), func(t *testing.T) {
				w := makeTickWorkload(4096, queries, 8, 8, 0.5, 5)
				m := shard.NewUnit(shards, 64, core.Options{})
				defer m.Close()
				m.EnableDiffs(true)
				w.mount(t, m)
				hub := notify.NewHub()
				defer hub.Close()
				sub := hub.Subscribe(notify.Options{Buffer: 4096})
				var delivered atomic.Int64
				go func() {
					for range sub.Events() {
						delivered.Add(1)
					}
				}()
				tick := 0
				var published int64
				// Closed loop: the next tick starts when the subscriber has
				// the last one (AllocsPerRun runs on one P, so yield to it).
				cycle := func() {
					m.ProcessBatch(w.batches[tick%len(w.batches)])
					diffs := m.TakeDiffs()
					published += int64(len(diffs))
					hub.Publish(diffs)
					for delivered.Load() < published {
						runtime.Gosched()
					}
					tick++
				}
				for c := 0; c < 4*len(w.batches); c++ {
					cycle()
				}
				before := published
				avg := testing.AllocsPerRun(100, cycle)
				perTick := float64(published-before) / 101 // AllocsPerRun adds a warm-up run
				if perTick < float64(queries)/2 {
					t.Fatalf("only %.0f diffs per tick from %d queries; the scenario is too idle", perTick, queries)
				}
				t.Logf("%.1f allocs/op at %.0f diffs per tick", avg, perTick)
				if avg > perTickBudget {
					t.Errorf("subscribed tick allocates %.1f/op at %.0f diffs per tick, want at most %d", avg, perTick, perTickBudget)
				}
				if sub.Dropped() != 0 {
					t.Errorf("subscriber dropped %d events; widen its buffer", sub.Dropped())
				}
			})
		}
	}
}

// TestReRegisterAllocs pins what subscription churn costs: on a warm
// monitor, removing a query and registering it again — anywhere, with its
// diffs collected and taken as a served monitor does — re-arms the slot the
// removal parked, buffers and all, instead of rebuilding the query's
// book-keeping. Before the slot table a pair cost about 21 mallocs. What is
// left is the diff arena's share: a fresh chunk every few dozen events.
func TestReRegisterAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; allocation counts are meaningless")
	}
	const perPairBudget = 1
	region := geom.Rect{Lo: geom.Point{X: 0.2, Y: 0.2}, Hi: geom.Point{X: 0.8, Y: 0.8}}
	kinds := []struct {
		name     string
		register func(m *shard.Monitor, id model.QueryID, at geom.Point) error
	}{
		{"point", func(m *shard.Monitor, id model.QueryID, at geom.Point) error {
			return m.RegisterQuery(id, at, 64)
		}},
		{"aggregate", func(m *shard.Monitor, id model.QueryID, at geom.Point) error {
			pts := [3]geom.Point{at, {X: at.X, Y: at.Y / 2}, {X: at.X / 2, Y: at.Y}}
			return m.Register(id, core.AggQuery(pts[:], 16, geom.AggSum))
		}},
		{"constrained", func(m *shard.Monitor, id model.QueryID, at geom.Point) error {
			def := core.PointQuery(geom.Point{X: 0.2 + 0.6*at.X, Y: 0.2 + 0.6*at.Y}, 16)
			def.Constraint = &region
			return m.Register(id, def)
		}},
		{"range", func(m *shard.Monitor, id model.QueryID, at geom.Point) error {
			return m.RegisterRange(id, at, 0.05)
		}},
	}
	for _, shards := range []int{1, 8} {
		for _, kind := range kinds {
			t.Run(fmt.Sprintf("shards=%d/%s", shards, kind.name), func(t *testing.T) {
				w := makeTickWorkload(4096, 64, 8, 4, 0.5, 5)
				m := shard.NewUnit(shards, 32, core.Options{})
				defer m.Close()
				m.EnableDiffs(true)
				w.mount(t, m)
				const churned = 16 // ids past the standing queries, spread over the shards
				rng := rand.New(rand.NewSource(11))
				next := 0
				pair := func() {
					id := model.QueryID(len(w.queries) + next%churned)
					next++
					m.RemoveQuery(id)
					if err := kind.register(m, id, geom.Point{X: rng.Float64(), Y: rng.Float64()}); err != nil {
						t.Fatal(err)
					}
					m.TakeDiffs()
				}
				// Warm: every churned query has been everywhere, so every
				// cell's influence list (one per cell and shard, made on
				// first use) has held its longest.
				for i := 0; i < 512*churned; i++ {
					pair()
				}
				if avg := testing.AllocsPerRun(200, pair); avg > perPairBudget {
					t.Errorf("remove+register of a %s query allocates %.2f/op, want at most %d", kind.name, avg, perPairBudget)
				} else {
					t.Logf("%.2f allocs per remove+register", avg)
				}
			})
		}
	}
}
