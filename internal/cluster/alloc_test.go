package cluster_test

import (
	"fmt"
	"net"
	"sync/atomic"
	"testing"
	"time"

	"cpm/client"
	"cpm/internal/model"
	"cpm/internal/server"
	"cpm/workload"
)

// TestServedTickAllocsDoNotScaleWithDiffs pins what a warm served cluster
// allocates per tick — two loopback workers, a coordinator hosted by a
// front server, one remote subscriber — across every process of the stack
// (they share this test binary): the workers decode their Tick frames and
// the coordinator's links decode their Diffs frames into read-loop arenas,
// the mirror copies into buffers it owns, and the subscriber decodes its
// Event frames into an arena and queues them in a ring. What is left is
// per-operation, not per-diff: the fan-out's goroutines and timers, and a
// fresh arena chunk every few ticks. Before the arenas a tick allocated
// four slices per diff on each hop.
func TestServedTickAllocsDoNotScaleWithDiffs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; allocation counts are meaningless")
	}
	const perTickBudget = 80
	for _, queries := range []int{64, 512} {
		t.Run(fmt.Sprintf("queries=%d", queries), func(t *testing.T) {
			coord, _ := startCluster(t, 2, 5*time.Second)
			front := server.New(coord, server.Options{})
			ln, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			go front.Serve(ln)
			t.Cleanup(func() { front.Close() })

			wl, err := workload.New(
				workload.CityOptions{Width: 16, Height: 16, Seed: 5},
				workload.Params{
					N: 2000, NumQueries: queries,
					ObjectSpeed: workload.Fast, QuerySpeed: workload.Medium,
					ObjectAgility: 0.5, QueryAgility: 0.1,
					Seed: 9,
				},
			)
			if err != nil {
				t.Fatal(err)
			}
			coord.Bootstrap(wl.InitialObjects())
			for i, q := range wl.InitialQueries() {
				if err := coord.RegisterQuery(model.QueryID(i), q, 8); err != nil {
					t.Fatal(err)
				}
			}
			const warm, runs = 30, 100
			batches := make([]model.Batch, warm+runs+1) // AllocsPerRun adds a warm-up run
			for i := range batches {
				batches[i] = wl.Advance()
			}

			cl, err := client.Dial(ln.Addr().String(), client.Options{})
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { cl.Close() })
			sub, err := cl.SubscribeWith(client.SubscribeOptions{Buffer: 4096})
			if err != nil {
				t.Fatal(err)
			}
			var delivered, gaps atomic.Int64
			go func() {
				for ev := range sub.Events() {
					if ev.Type == client.EventDiff {
						delivered.Add(1)
					} else {
						gaps.Add(1)
					}
				}
			}()

			tick, published := 0, int64(0)
			// Closed loop: the next tick starts once the subscriber has every
			// event of the last one, so nothing queues up across ticks.
			cycle := func() {
				front.Locked(func(server.Backend) {
					coord.Tick(batches[tick])
					published += int64(len(coord.ChangedQueries()))
				})
				tick++
				for delivered.Load() < published && gaps.Load() == 0 {
					time.Sleep(20 * time.Microsecond)
				}
			}
			for tick < warm {
				cycle()
			}
			before := published
			avg := testing.AllocsPerRun(runs, cycle)
			perTick := float64(published-before) / (runs + 1)
			if gaps.Load() != 0 {
				t.Fatalf("the subscriber saw %d gaps; the scenario must deliver every event", gaps.Load())
			}
			if perTick < float64(queries)/4 {
				t.Fatalf("only %.0f diffs per tick from %d queries; the scenario is too idle", perTick, queries)
			}
			t.Logf("%.1f allocs per tick at %.0f diffs per tick", avg, perTick)
			if avg > perTickBudget {
				t.Errorf("a served tick allocates %.1f times at %.0f diffs per tick, want at most %d", avg, perTick, perTickBudget)
			}
		})
	}
}
