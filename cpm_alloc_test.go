package cpm

import (
	"fmt"
	"math/rand"
	"testing"
)

// TestRegisterDoesNotAllocate pins the public registration path: on a warm
// monitor, removing a query and registering it again — any kind, at any
// shard count — re-arms the slot the removal parked and copies the
// definition into it, so nothing the caller passes escapes to the heap: not
// a constrained query's region, not an aggregate query's caller-held points.
func TestRegisterDoesNotAllocate(t *testing.T) {
	at := Point{X: 0.4, Y: 0.6}
	pts := []Point{at, {X: 0.5, Y: 0.5}, {X: 0.3, Y: 0.7}}
	region := Rect{Lo: Point{X: 0.2, Y: 0.2}, Hi: Point{X: 0.8, Y: 0.8}}
	kinds := []struct {
		name     string
		register func(m *Monitor, id QueryID) error
	}{
		{"point", func(m *Monitor, id QueryID) error { return m.RegisterQuery(id, at, 8) }},
		{"constrained", func(m *Monitor, id QueryID) error { return m.RegisterConstrainedQuery(id, at, 8, region) }},
		{"aggregate", func(m *Monitor, id QueryID) error { return m.RegisterAggQuery(id, pts, 8, AggMax) }},
		{"range", func(m *Monitor, id QueryID) error { return m.RegisterRangeQuery(id, at, 0.1) }},
	}
	for _, shards := range []int{1, 4} {
		for _, kind := range kinds {
			t.Run(fmt.Sprintf("shards=%d/%s", shards, kind.name), func(t *testing.T) {
				m := NewMonitor(Options{GridSize: 32, Shards: shards})
				defer m.Close()
				rng := rand.New(rand.NewSource(3))
				objs := make(map[ObjectID]Point, 2000)
				for i := range 2000 {
					objs[ObjectID(i)] = Point{X: rng.Float64(), Y: rng.Float64()}
				}
				m.Bootstrap(objs)
				for id := range QueryID(16) {
					if err := m.RegisterQuery(id, Point{X: rng.Float64(), Y: rng.Float64()}, 8); err != nil {
						t.Fatal(err)
					}
				}
				const id = 100
				pair := func() {
					m.RemoveQuery(id)
					if err := kind.register(m, id); err != nil {
						t.Fatal(err)
					}
				}
				if err := kind.register(m, id); err != nil {
					t.Fatal(err)
				}
				for range 64 {
					pair()
				}
				if avg := testing.AllocsPerRun(100, pair); avg != 0 {
					t.Errorf("remove + register of a %s query allocates %.2f/op, want 0", kind.name, avg)
				}
			})
		}
	}
}
