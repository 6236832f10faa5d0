package cpm

import (
	"reflect"
	"testing"
)

// TestMonitorRebalanceSurface exercises the public resize API: a manual
// Rebalance must keep every result identical, emit no events on an active
// subscription, and leave the stream fully live afterwards.
func TestMonitorRebalanceSurface(t *testing.T) {
	for _, shards := range []int{1, 4} {
		m := NewMonitor(Options{GridSize: 16, Shards: shards})
		m.Bootstrap(seedObjects())
		if err := m.RegisterQuery(1, Point{X: 0.5, Y: 0.5}, 2); err != nil {
			t.Fatal(err)
		}
		if err := m.RegisterRangeQuery(2, Point{X: 0.55, Y: 0.55}, 0.2); err != nil {
			t.Fatal(err)
		}
		sub := m.Subscribe()
		before1, before2 := m.Result(1), m.Result(2)

		if err := m.Rebalance(0); err == nil {
			t.Fatal("Rebalance(0) accepted")
		}
		if err := m.Rebalance(48); err != nil {
			t.Fatal(err)
		}
		if got := m.GridSize(); got != 48 {
			t.Fatalf("GridSize = %d, want 48", got)
		}
		if got := m.Rebalances(); got != 1 {
			t.Fatalf("Rebalances = %d, want 1", got)
		}
		if got := m.Result(1); !reflect.DeepEqual(got, before1) {
			t.Fatalf("Rebalance changed q1: %v -> %v", before1, got)
		}
		if got := m.Result(2); !reflect.DeepEqual(got, before2) {
			t.Fatalf("Rebalance changed q2: %v -> %v", before2, got)
		}
		select {
		case ev := <-sub.Events():
			t.Fatalf("Rebalance pushed an event: %+v", ev)
		default:
		}

		// The stream stays live on the new geometry.
		m.MoveObject(4, Point{X: 0.50, Y: 0.51})
		ev := <-sub.Events()
		if ev.Query != 1 || ev.Result[0].ID != 4 {
			t.Fatalf("post-rebalance event = %+v", ev)
		}
		m.Close()
	}
}

// TestMonitorAutoRebalanceOption checks the Options plumbing: with
// AutoRebalance on, a density shift triggers a resize through plain Ticks,
// at the policy's default cadence of 16.
func TestMonitorAutoRebalanceOption(t *testing.T) {
	m := NewMonitor(Options{GridSize: 8, AutoRebalance: true})
	defer m.Close()
	objs := make(map[ObjectID]Point, 600)
	for i := 0; i < 600; i++ {
		// Everything inside one crowded corner cell of the 8x8 grid.
		objs[ObjectID(i)] = Point{X: float64(i%25) / 25 * 0.12, Y: float64(i/25) / 24 * 0.12}
	}
	m.Bootstrap(objs)
	if err := m.RegisterQuery(1, Point{X: 0.06, Y: 0.06}, 4); err != nil {
		t.Fatal(err)
	}
	before := m.Result(1)
	for range 15 {
		m.Tick(Batch{})
	}
	if m.Rebalances() != 0 {
		t.Fatalf("%d resizes before the 16th Tick", m.Rebalances())
	}
	m.Tick(Batch{})
	if m.Rebalances() == 0 || m.GridSize() <= 8 {
		t.Fatalf("auto-rebalance did not trigger: %d resizes, grid %d", m.Rebalances(), m.GridSize())
	}
	if got := m.Result(1); !reflect.DeepEqual(got, before) {
		t.Fatalf("auto-rebalance changed the result: %v -> %v", before, got)
	}
}
