package cluster_test

import (
	"fmt"
	"net"
	"sync/atomic"
	"testing"
	"time"

	"cpm/client"
	"cpm/internal/cluster"
	"cpm/internal/model"
	"cpm/internal/server"
	"cpm/workload"
)

// servedStack is a served cluster: two loopback workers, a coordinator
// hosted by a front server, and one remote subscriber counting what it is
// delivered. Every process of the stack shares the test binary.
type servedStack struct {
	coord     *cluster.Coordinator
	front     *server.Server
	wl        *workload.Workload
	published int64
	delivered atomic.Int64
	gaps      atomic.Int64
}

// startServedStack brings a served stack up over a 2 000-object workload
// with the given number of k=8 queries.
func startServedStack(tb testing.TB, queries int) *servedStack {
	tb.Helper()
	coord, _ := startCluster(tb, 2, 5*time.Second)
	front := server.New(coord, server.Options{})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		tb.Fatal(err)
	}
	go front.Serve(ln)
	tb.Cleanup(func() { front.Close() })

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
		tb.Fatal(err)
	}
	coord.Bootstrap(wl.InitialObjects())
	for i, q := range wl.InitialQueries() {
		if err := coord.RegisterQuery(model.QueryID(i), q, 8); err != nil {
			tb.Fatal(err)
		}
	}

	cl, err := client.Dial(ln.Addr().String(), client.Options{})
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() { cl.Close() })
	sub, err := cl.SubscribeWith(client.SubscribeOptions{Buffer: 4096})
	if err != nil {
		tb.Fatal(err)
	}
	s := &servedStack{coord: coord, front: front, wl: wl}
	go func() {
		for ev := range sub.Events() {
			if ev.Type == client.EventDiff {
				s.delivered.Add(1)
			} else {
				s.gaps.Add(1)
			}
		}
	}()
	return s
}

// tick runs one closed-loop tick: it returns once the subscriber has
// every event of it, so nothing queues up across ticks.
func (s *servedStack) tick(b model.Batch) {
	s.front.Locked(func(server.Backend) {
		s.coord.Tick(b)
		s.published += int64(len(s.coord.ChangedQueries()))
	})
	for s.delivered.Load() < s.published && s.gaps.Load() == 0 {
		time.Sleep(20 * time.Microsecond)
	}
}

// TestServedTickAllocsDoNotScaleWithDiffs pins what a warm served cluster
// allocates per tick across every process of the stack: the workers
// decode their Tick frames and the coordinator's links decode their Diffs
// frames into read-loop arenas, the mirror copies into buffers it owns,
// and the subscriber decodes its Event frames into an arena and queues
// them in a ring. The coordinator's fan-out reuses its goroutines, timer,
// answer channel and buffers, and the links reuse their call records.
// What is left are hand-offs and warm-up: a fresh arena chunk every few
// ticks on each hop, each worker's hand-off of its tick's diffs
// (cpm.Monitor's TakeDiffs) and the engines' cell lists still growing. It
// measures 6 allocations a tick at 64 queries and 14 at 512; the budget
// leaves a quarter on top. Before the arenas a tick allocated four slices
// per diff on each hop, and before the reuse the fan-out cost 33 and 48.
func TestServedTickAllocsDoNotScaleWithDiffs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; allocation counts are meaningless")
	}
	const perTickBudget = 18
	for _, queries := range []int{64, 512} {
		t.Run(fmt.Sprintf("queries=%d", queries), func(t *testing.T) {
			s := startServedStack(t, queries)
			const warm, runs = 30, 100
			batches := make([]model.Batch, warm+runs+1) // AllocsPerRun adds a warm-up run
			for i := range batches {
				batches[i] = s.wl.Advance()
			}
			tick := 0
			cycle := func() {
				s.tick(batches[tick])
				tick++
			}
			for tick < warm {
				cycle()
			}
			before := s.published
			avg := testing.AllocsPerRun(runs, cycle)
			perTick := float64(s.published-before) / (runs + 1)
			if s.gaps.Load() != 0 {
				t.Fatalf("the subscriber saw %d gaps; the scenario must deliver every event", s.gaps.Load())
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

// BenchmarkServedTick prices one warm served tick at 512 queries, from
// the coordinator's Tick to the subscriber holding every event of it; the
// workload's next batch is generated off the clock.
func BenchmarkServedTick(b *testing.B) {
	s := startServedStack(b, 512)
	for range 30 {
		s.tick(s.wl.Advance())
	}
	b.ReportAllocs()
	b.ResetTimer()
	for range b.N {
		b.StopTimer()
		batch := s.wl.Advance()
		b.StartTimer()
		s.tick(batch)
	}
	b.StopTimer()
	if s.gaps.Load() != 0 {
		b.Fatalf("the subscriber saw %d gaps; the scenario must deliver every event", s.gaps.Load())
	}
}
