package cluster_test

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"
	"time"

	"cpm"
	"cpm/client"
	"cpm/internal/chaos"
	"cpm/internal/cluster"
	"cpm/internal/geom"
	"cpm/internal/model"
)

// chaosCluster is a coordinator whose every worker link runs through a
// chaos proxy: one fault domain per worker, individually scriptable.
type chaosCluster struct {
	coord   *cluster.Coordinator
	procs   []*workerProc
	links   []*chaos.Link
	single  *cpm.Monitor
	queries map[model.QueryID]geom2
	n       int
}

// geom2 avoids importing geom twice under a different name in this file.
type geom2 = struct{ X, Y float64 }

// startChaosCluster boots n workers, each behind a seeded chaos proxy,
// and a coordinator dialing the proxies — plus the single-monitor oracle
// fed the identical operation stream.
func startChaosCluster(t *testing.T, n int, seed int64) *chaosCluster {
	t.Helper()
	cc := &chaosCluster{n: n, queries: make(map[model.QueryID]geom2)}
	addrs := make([]string, n)
	for i := 0; i < n; i++ {
		p := startWorker(t, "127.0.0.1:0")
		link := chaos.NewLink(seed + int64(i))
		proxy, err := chaos.NewProxy("127.0.0.1:0", p.addr, link)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { proxy.Close() })
		cc.procs = append(cc.procs, p)
		cc.links = append(cc.links, link)
		addrs[i] = proxy.Addr()
	}
	coord, err := cluster.New(cluster.Options{
		Workers:   addrs,
		OpTimeout: 250 * time.Millisecond,
		Logf:      func(f string, a ...any) { fmt.Printf(f+"\n", a...) },
		Client: client.Options{
			ReconnectWait: 300 * time.Millisecond,
			Backoff:       5 * time.Millisecond,
			MaxBackoff:    50 * time.Millisecond,
			DialTimeout:   time.Second,
			FrameTimeout:  time.Second,
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(coord.Close)
	cc.coord = coord
	cc.single = cpm.NewMonitor(cpm.Options{GridSize: 16})
	t.Cleanup(cc.single.Close)
	return cc
}

// seedScene bootstraps the population and queries into the coordinator
// and the oracle.
func (cc *chaosCluster) seedScene(t *testing.T, nObjs, nQueries int) {
	t.Helper()
	objs, queries := denseScene(nObjs, nQueries)
	cc.coord.Bootstrap(objs)
	cc.single.Bootstrap(objs)
	for id, q := range queries {
		cc.queries[id] = geom2{q.X, q.Y}
		if err := cc.coord.RegisterQuery(id, q, 4); err != nil {
			t.Fatal(err)
		}
		if err := cc.single.RegisterQuery(id, q, 4); err != nil {
			t.Fatal(err)
		}
	}
}

// rotBatch moves a rotating window of span objects to round-dependent
// positions: deterministic, and successive rounds touch different ids.
func rotBatch(round, nObjs, span int) model.Batch {
	ids := make([]model.ObjectID, span)
	for i := range ids {
		ids[i] = model.ObjectID((round*span + i) % nObjs)
	}
	return nudge(round, ids...)
}

// shiftAll teleports every object to a fresh lattice offset no other
// batch generator uses, so every neighbor distance — and therefore every
// query's result — is guaranteed to change in this one tick.
func shiftAll(nObjs, pass int) model.Batch {
	var b model.Batch
	for i := 0; i < nObjs; i++ {
		b.Objects = append(b.Objects, model.Update{
			ID:   model.ObjectID(i),
			Kind: model.Move,
			New: geom.Point{
				X: (float64(i%12) + 0.45 + 0.001*float64(pass)) / 12,
				Y: (float64(i/12) + 0.55 + 0.001*float64(pass)) / 12,
			},
		})
	}
	return b
}

// tick drives one cycle through both the cluster and the oracle.
func (cc *chaosCluster) tick(b model.Batch) {
	cc.coord.Tick(b)
	cc.single.Tick(b)
}

// verify is the suite's core invariant: a query whose owner the
// coordinator believes is synced must have exactly the single-monitor
// result — any divergence outside an explicit desync window is silent
// corruption. Returned (not fataled) so the negative control can assert
// the harness detects a seeded bug.
func (cc *chaosCluster) verify(stage string) error {
	for id := range cc.queries {
		if !cc.coord.WorkerSynced(model.Owner(id, cc.n)) {
			continue // gap-bracketed: staleness is flagged, not silent
		}
		got, want := cc.coord.Result(id), cc.single.Result(id)
		if !reflect.DeepEqual(got, want) {
			return fmt.Errorf("%s: query %d (owner synced): cluster %v, single %v", stage, id, got, want)
		}
	}
	return nil
}

// reconverge clears every fault and ticks until the whole fleet holds
// exact state again and every result matches the oracle.
func (cc *chaosCluster) reconverge(t *testing.T) {
	t.Helper()
	for _, l := range cc.links {
		l.Clear()
	}
	deadline := time.Now().Add(30 * time.Second)
	round := 10_000
	for {
		cc.tick(rotBatch(round, 120, 4))
		round++
		if cc.coord.SyncedWorkers() == cc.n {
			if err := cc.verify("post-heal"); err == nil {
				return
			} else if time.Now().After(deadline) {
				t.Fatalf("cluster synced but diverged: %v", err)
			}
		}
		if time.Now().After(deadline) {
			t.Fatalf("cluster never reconverged: %d/%d synced", cc.coord.SyncedWorkers(), cc.n)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// chaosFaults is the fault palette the suite cycles through — the four
// classes the acceptance bar names: partition, reset, corruption, stall.
var chaosFaults = []chaos.Fault{
	{Class: chaos.Partition},
	{Class: chaos.Reset},
	{Class: chaos.Corrupt},
	{Class: chaos.SlowLoris, Chunk: 3, Stall: 40 * time.Millisecond},
}

// TestChaosFaultSchedule is the chaos property suite: replayable
// randomized fault schedules (seeded victim choice, full class coverage
// per run) against a 3-worker cluster, asserting after every tick that
// the cluster is never silently wrong (verify) and never wedged (tick
// wall time bounded), and that after the faults clear the fleet
// reconverges to exact oracle state with every loss bracketed by
// explicit gap accounting.
func TestChaosFaultSchedule(t *testing.T) {
	for _, seed := range []int64{1, 2, 3} {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			runChaosSchedule(t, seed)
		})
	}
}

func runChaosSchedule(t *testing.T, seed int64) {
	const nObjs, nQueries, ticks = 120, 8, 24
	cc := startChaosCluster(t, 3, seed)
	cc.seedScene(t, nObjs, nQueries)
	sub := cc.coord.SubscribeWith(cpm.SubscribeOptions{Buffer: 8192})
	defer sub.Close()

	// The schedule: four windows, one per fault class (rotated by seed so
	// every class meets every position across the suite), each against an
	// rng-chosen victim for two ticks.
	rng := rand.New(rand.NewSource(seed))
	type window struct {
		start, end int
		victim     int
		fault      chaos.Fault
	}
	var plan []window
	for i := 0; i < len(chaosFaults); i++ {
		start := 3 + i*5
		plan = append(plan, window{
			start:  start,
			end:    start + 2,
			victim: rng.Intn(cc.n),
			fault:  chaosFaults[(i+int(seed))%len(chaosFaults)],
		})
	}

	for tk := 0; tk < ticks; tk++ {
		for _, w := range plan {
			if tk == w.start {
				t.Logf("tick %d: worker %d gets %s", tk, w.victim, w.fault.Class)
				cc.links[w.victim].Set(w.fault)
			}
			if tk == w.end {
				cc.links[w.victim].Clear()
			}
		}
		start := time.Now()
		cc.tick(rotBatch(tk, nObjs, 10))
		if d := time.Since(start); d > 5*time.Second {
			t.Fatalf("tick %d took %v — the cluster wedged", tk, d)
		}
		if err := cc.verify(fmt.Sprintf("tick %d", tk)); err != nil {
			t.Fatal(err)
		}
	}

	cc.reconverge(t)

	// Gap accounting: the schedule certainly desynced workers (partition
	// and stall windows outlast the op deadline); every one of those
	// losses must have surfaced as explicit subscriber gaps.
	desyncs := metric(t, cc.coord, "cpm_coord_worker_desyncs_total")
	if desyncs == 0 {
		t.Fatal("fault schedule produced no desyncs — the faults never bit")
	}
	if sub.Dropped() == 0 {
		t.Fatal("workers desynced but subscribers saw no gap — silent loss")
	}

	// The subscriber's folded view must agree with the final results. A
	// gap invalidates subscriber state until the next diff per query, so
	// first teleport every object — forcing a fresh post-gap diff for
	// every query — then fold: the last event per query must equal the
	// current result.
	cc.tick(shiftAll(nObjs, 1))
	if err := cc.verify("final shift"); err != nil {
		t.Fatal(err)
	}
	// Delivery is a pump goroutine, so "drained" means a stretch of
	// silence, not a momentarily empty channel.
	last := make(map[model.QueryID][]model.Neighbor)
drain:
	for {
		select {
		case ev := <-sub.Events():
			if ev.Kind == model.DiffRemove {
				delete(last, ev.Query)
			} else {
				last[ev.Query] = ev.Result
			}
		case <-time.After(300 * time.Millisecond):
			break drain
		}
	}
	if len(last) != nQueries {
		t.Fatalf("folded subscriber state covers %d queries after the all-object shift, want %d", len(last), nQueries)
	}
	for id, res := range last {
		if want := cc.coord.Result(id); !reflect.DeepEqual(res, want) {
			t.Fatalf("query %d: folded subscriber state %v, current result %v", id, res, want)
		}
	}

	// Fired-fault accounting: at least one injected class actually bit.
	total := int64(0)
	for _, l := range cc.links {
		for _, n := range l.Counters() {
			total += n
		}
	}
	if total == 0 {
		t.Fatal("chaos links report zero fired faults")
	}
}

// TestChaosNegativeControl proves the harness catches the bug class it
// exists for: with the re-sync generation check disabled (the seeded
// bug), a rebuild from a stale snapshot is accepted while ticks keep
// moving objects, and the invariant the schedule test enforces at every
// tick MUST now flag a divergence. If it does not, the suite is
// asserting nothing.
func TestChaosNegativeControl(t *testing.T) {
	const nObjs, nQueries = 120, 8
	cc := startChaosCluster(t, 3, 99)
	cc.coord.DisableGenCheck()
	cc.seedScene(t, nObjs, nQueries)
	cc.tick(rotBatch(0, nObjs, 10))
	if err := cc.verify("baseline"); err != nil {
		t.Fatalf("healthy baseline diverged: %v", err)
	}

	victim := model.Owner(0, cc.n)
	// Desync the victim with a partition outlasting the op deadline...
	cc.links[victim].Set(chaos.Fault{Class: chaos.Partition})
	cc.tick(rotBatch(1, nObjs, 10))
	if cc.coord.WorkerSynced(victim) {
		t.Fatal("victim still synced after partitioned tick")
	}
	// ...then heal it into a slow link: the background re-sync crawls
	// while ticks keep advancing the generation and moving objects, so
	// the snapshot it rebuilds from is stale by many operations.
	cc.links[victim].Set(chaos.Fault{Class: chaos.Latency, Delay: 150 * time.Millisecond})

	deadline := time.Now().Add(20 * time.Second)
	round := 2
	for !cc.coord.WorkerSynced(victim) {
		if time.Now().After(deadline) {
			t.Fatal("stale re-sync never accepted — negative control cannot run")
		}
		cc.tick(rotBatch(round, nObjs, 10))
		round++
		time.Sleep(20 * time.Millisecond)
	}
	cc.links[victim].Clear()

	// The seeded bug accepted a rebuild that missed those ticks. The
	// harness invariant must catch the silent divergence.
	if err := cc.verify("after stale accept"); err == nil {
		t.Fatal("generation check disabled yet no divergence detected — the chaos harness is blind")
	} else {
		t.Logf("harness correctly flagged: %v", err)
	}
}
