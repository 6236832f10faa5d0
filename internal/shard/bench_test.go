package shard_test

import (
	"fmt"
	"math"
	"math/rand"
	"os"
	"runtime"
	"testing"
	"time"

	"cpm/internal/core"
	"cpm/internal/geom"
	"cpm/internal/model"
	"cpm/internal/notify"
	"cpm/internal/shard"
)

// tickWorkload is a monitoring load: a fixed object population and a ring
// of pre-generated move-only batches (moves of live ids are always valid,
// so cycling through the ring never desynchronizes a grid). advance
// continues the stream past the ring for runs that must never replay.
type tickWorkload struct {
	objs    map[model.ObjectID]geom.Point
	queries []geom.Point
	k       int
	batches []model.Batch

	rng     *rand.Rand
	pos     []geom.Point
	agility float64
}

func makeTickWorkload(n, numQueries, k, batchCount int, agility float64, seed int64) *tickWorkload {
	rng := rand.New(rand.NewSource(seed))
	w := &tickWorkload{
		objs:    make(map[model.ObjectID]geom.Point, n),
		k:       k,
		rng:     rng,
		pos:     make([]geom.Point, n),
		agility: agility,
	}
	for i := range w.pos {
		w.pos[i] = geom.Point{X: rng.Float64(), Y: rng.Float64()}
		w.objs[model.ObjectID(i)] = w.pos[i]
	}
	for i := 0; i < numQueries; i++ {
		w.queries = append(w.queries, geom.Point{X: rng.Float64(), Y: rng.Float64()})
	}
	for c := 0; c < batchCount; c++ {
		w.batches = append(w.batches, w.advance())
	}
	return w
}

// advance generates the stream's next batch: every object moves with
// probability agility, from where the previous batch left it.
func (w *tickWorkload) advance() model.Batch {
	clamp := func(v float64) float64 { return math.Max(0, math.Min(1, v)) }
	var b model.Batch
	for i, from := range w.pos {
		if w.rng.Float64() >= w.agility {
			continue
		}
		to := geom.Point{
			X: clamp(from.X + (w.rng.Float64()-0.5)*0.05),
			Y: clamp(from.Y + (w.rng.Float64()-0.5)*0.05),
		}
		b.Objects = append(b.Objects, model.MoveUpdate(model.ObjectID(i), from, to))
		w.pos[i] = to
	}
	return b
}

// moveQueries adds to every batch of the ring a move of half the queries,
// the other half in the next batch, each to a fresh random point. The
// points are drawn once, so replaying the ring allocates nothing.
func (w *tickWorkload) moveQueries() {
	for i := range w.batches {
		pts := make([]geom.Point, len(w.queries))
		for j := i % 2; j < len(w.queries); j += 2 {
			pts[j] = geom.Point{X: w.rng.Float64(), Y: w.rng.Float64()}
			w.batches[i].Queries = append(w.batches[i].Queries, model.QueryUpdate{
				ID: model.QueryID(j), Kind: model.QueryMove, NewPoints: pts[j : j+1],
			})
		}
	}
}

// mount boots a monitor with the workload's population and queries.
func (w *tickWorkload) mount(tb testing.TB, m monitor) {
	tb.Helper()
	m.Bootstrap(w.objs)
	for i, q := range w.queries {
		if err := m.RegisterQuery(model.QueryID(i), q, w.k); err != nil {
			tb.Fatal(err)
		}
	}
}

// BenchmarkTick compares one monitoring cycle at increasing shard counts,
// over an identical multi-query workload. On a multi-core runner the
// multi-shard rows should beat shards=1 from a few shards on; with
// GOMAXPROCS=1 they instead expose the fan-out overhead.
//
// The monitor is warmed on the workload's ring outside the timer — a cold
// one spends its first laps growing every query's buffers for the first
// time — and then fed a stream that is generated as it goes and never
// replayed, like BenchmarkTickSubscribed's: a replayed ring jumps every
// object back a lap at each wrap. What allocates here is the rare buffer
// that outgrows its high-water mark on a configuration the stream had not
// produced before (14 allocs/op at 200x, 2 at 2000x); a periodic stream
// stops producing them, which is the case TestSteadyStateAllocs pins at 0.
func BenchmarkTick(b *testing.B) {
	run := func(b *testing.B, n int) {
		w := makeTickWorkload(8192, 256, 16, 16, 0.5, 3)
		m := shard.NewUnit(n, 64, core.Options{})
		defer m.Close()
		w.mount(b, m)
		for _, batch := range w.batches {
			m.ProcessBatch(batch)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			batch := w.advance()
			b.StartTimer()
			m.ProcessBatch(batch)
		}
	}
	for _, n := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("shards=%d", n), func(b *testing.B) { run(b, n) })
	}
}

// BenchmarkTickSubscribed is the delivery path BenchmarkTick leaves out: one
// cycle at the paper's default shape (N=10 000, 500 k=16 queries, grid
// 128²) with diffs collected, taken and published to one subscriber that
// drains as fast as it can. The stream is generated outside the timer and
// never replayed, so every move carries a true old position.
func BenchmarkTickSubscribed(b *testing.B) {
	for _, n := range []int{1, 2} {
		b.Run(fmt.Sprintf("shards=%d", n), func(b *testing.B) {
			w := makeTickWorkload(10000, 500, 16, 0, 0.5, 3)
			m := shard.NewUnit(n, 128, core.Options{})
			defer m.Close()
			m.EnableDiffs(true)
			w.mount(b, m)
			hub := notify.NewHub()
			sub := hub.Subscribe(notify.Options{Buffer: 4096})
			drained := make(chan struct{})
			go func() {
				defer close(drained)
				for range sub.Events() {
				}
			}()
			hub.Publish(m.TakeDiffs()) // the install events
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				batch := w.advance()
				b.StartTimer()
				m.ProcessBatch(batch)
				hub.Publish(m.TakeDiffs())
			}
			b.StopTimer()
			hub.Close()
			<-drained
		})
	}
}

// TestShardedSpeedup measures the point of the exercise: on a multi-core
// machine, ProcessBatch on ≥4 shards is faster than on one shard for
// a multi-query workload. By default the measurement is logged; set
// CPM_SPEEDUP_STRICT=1 (a quiet multi-core box, not a shared CI runner
// with noisy neighbors) to make a missing speedup fail the test.
func TestShardedSpeedup(t *testing.T) {
	if testing.Short() {
		t.Skip("speedup measurement is not short")
	}
	if raceEnabled {
		t.Skip("race instrumentation serializes the shard goroutines; wall-clock comparison is meaningless")
	}
	if runtime.NumCPU() < 4 {
		t.Skipf("NumCPU = %d; the parallel speedup needs a multi-core runner", runtime.NumCPU())
	}
	const shards = 4
	w := makeTickWorkload(8192, 256, 16, 16, 0.5, 3)
	measure := func(m monitor) time.Duration {
		w.mount(t, m)
		start := time.Now()
		for c := 0; c < 2*len(w.batches); c++ {
			m.ProcessBatch(w.batches[c%len(w.batches)])
		}
		return time.Since(start)
	}
	// Best-of-three damps scheduler noise on shared CI runners.
	best := func(f func() time.Duration) time.Duration {
		b := f()
		for i := 0; i < 2; i++ {
			if d := f(); d < b {
				b = d
			}
		}
		return b
	}
	single := best(func() time.Duration { return measure(shard.NewUnit(1, 64, core.Options{})) })
	parallel := best(func() time.Duration { return measure(shard.NewUnit(shards, 64, core.Options{})) })
	t.Logf("single %v, %d shards %v (%.2fx)", single, shards, parallel, float64(single)/float64(parallel))
	if parallel >= single {
		msg := fmt.Sprintf("sharded ProcessBatch (%d shards) took %v, one shard %v — no speedup", shards, parallel, single)
		if os.Getenv("CPM_SPEEDUP_STRICT") != "" {
			t.Error(msg)
		} else {
			// A wall-clock assertion on a shared runner is a flake
			// generator; outside strict mode the number is informational.
			t.Log(msg)
		}
	}
}
