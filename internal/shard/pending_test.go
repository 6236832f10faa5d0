package shard_test

import (
	"fmt"
	"testing"

	"cpm/internal/core"
	"cpm/internal/geom"
	"cpm/internal/model"
	"cpm/internal/shard"
)

// TestMovingQueriesLeaveTheLogEmpty: a query that moves every tick is
// rebuilt before its influence lists are read, so it never enters its
// engine's index and never widens the write-log filter. With every query
// moving tick after tick, each tick logs nothing, while the results follow
// the brute-force oracle at 1 and 4 shards, which agree on work and memory.
// A still tick installs the queries and its log fills again. The next tick
// moves every query again, still then moving: the installed queries leave
// the index when the tick opens, before the filter is read, so it logs
// nothing either.
func TestMovingQueriesLeaveTheLogEmpty(t *testing.T) {
	const gridSize, objects = 16, 300
	w := newWorld(9, gridSize, objects)
	boot := make(map[model.ObjectID]geom.Point, len(w.pos))
	for id, p := range w.pos {
		boot[id] = p
	}
	var monitors []*shard.Monitor
	var plain []monitor
	for _, n := range []int{1, 4} {
		m := shard.NewUnit(n, gridSize, core.Options{})
		defer m.Close()
		m.Bootstrap(boot)
		monitors = append(monitors, m)
		plain = append(plain, m)
	}
	for range 12 {
		w.install(t, plain)
	}
	// A registered query is pending like a moved one, so the first tick
	// already logs nothing.
	for tick := range 16 {
		still := tick == 8
		queries := w.queries
		w.queries = nil // object updates only: the test moves the queries
		b := w.batch()
		w.queries = queries
		if !still {
			for id, def := range w.queries {
				for i := range def.pts {
					def.pts[i] = w.stepFrom(def.pts[i])
				}
				b.Queries = append(b.Queries, model.QueryUpdate{ID: id, Kind: model.QueryMove, NewPoints: append([]geom.Point(nil), def.pts...)})
			}
		}
		w.applyToOracle(b)
		for _, m := range monitors {
			m.ProcessBatch(b)
			label := fmt.Sprintf("tick %d %s", tick, m.Name())
			for id, def := range w.queries {
				if got, want := w.result(m, id, def), w.expect(def); !neighborsEqual(got, want) {
					t.Fatalf("%s q%d: got %v, oracle %v", label, id, got, want)
				}
			}
			if logged := m.Logged(); (logged != 0) != still {
				t.Fatalf("%s: %d updates logged (still tick %v)", label, logged, still)
			}
		}
		if a, b := monitors[0].MemoryFootprint(), monitors[1].MemoryFootprint(); a != b {
			t.Fatalf("tick %d: memory footprint %d at 1 shard, %d at 4", tick, a, b)
		}
		if a, b := monitors[0].Stats(), monitors[1].Stats(); a != b {
			t.Fatalf("tick %d: stats %+v at 1 shard, %+v at 4", tick, a, b)
		}
	}
}
