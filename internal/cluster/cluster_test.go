package cluster_test

import (
	"fmt"
	"net"
	"reflect"
	"slices"
	"sync"
	"testing"
	"time"

	"cpm"
	"cpm/client"
	"cpm/internal/bruteforce"
	"cpm/internal/cluster"
	"cpm/internal/geom"
	"cpm/internal/model"
	"cpm/internal/server"
	"cpm/workload"
)

// workerProc is one worker server under test control: it can be killed
// and restarted on the same address, like a real process.
type workerProc struct {
	addr string
	srv  *server.Server
	mon  *cpm.Monitor
	dead sync.Once
}

// startWorker serves a fresh monitor on addr ("127.0.0.1:0" for a new
// port, an explicit address to restart a killed worker on its old one).
func startWorker(t *testing.T, addr string) *workerProc {
	t.Helper()
	mon := cpm.NewMonitor(cpm.Options{GridSize: 16})
	srv := server.New(mon, server.Options{})
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		t.Fatalf("listen %s: %v", addr, err)
	}
	go srv.Serve(ln)
	p := &workerProc{addr: ln.Addr().String(), srv: srv, mon: mon}
	t.Cleanup(p.kill)
	return p
}

func (p *workerProc) kill() {
	p.dead.Do(func() {
		p.srv.Close()
		p.mon.Close()
	})
}

// startCluster brings up n workers and a coordinator over them, with
// timeouts short enough that failure paths run in test time.
func startCluster(t *testing.T, n int, opTimeout time.Duration) (*cluster.Coordinator, []*workerProc) {
	t.Helper()
	procs := make([]*workerProc, n)
	addrs := make([]string, n)
	for i := range procs {
		procs[i] = startWorker(t, "127.0.0.1:0")
		addrs[i] = procs[i].addr
	}
	coord, err := cluster.New(cluster.Options{
		Workers:   addrs,
		OpTimeout: opTimeout,
		Client: client.Options{
			ReconnectWait: 200 * time.Millisecond,
			MaxBackoff:    100 * time.Millisecond,
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(coord.Close)
	return coord, procs
}

func testWorkload(t *testing.T) *workload.Workload {
	t.Helper()
	w, err := workload.New(
		workload.CityOptions{Width: 16, Height: 16, Seed: 77},
		workload.Params{
			N: 400, NumQueries: 10,
			ObjectSpeed: workload.Medium, QuerySpeed: workload.Medium,
			ObjectAgility: 0.5, QueryAgility: 0.4,
			Seed: 11,
		},
	)
	if err != nil {
		t.Fatal(err)
	}
	return w
}

// oracle tracks raw positions and query points for brute-force checks.
type oracle struct {
	objs map[model.ObjectID]geom.Point
	qpts map[model.QueryID]geom.Point
}

func newOracle(objs map[model.ObjectID]geom.Point) *oracle {
	o := &oracle{objs: make(map[model.ObjectID]geom.Point, len(objs)), qpts: make(map[model.QueryID]geom.Point)}
	for id, p := range objs {
		o.objs[id] = p
	}
	return o
}

func (o *oracle) apply(b model.Batch) {
	for _, u := range b.Objects {
		switch u.Kind {
		case model.Move, model.Insert:
			o.objs[u.ID] = u.New
		case model.Delete:
			delete(o.objs, u.ID)
		}
	}
	for _, qu := range b.Queries {
		if qu.Kind == model.QueryMove && len(qu.NewPoints) == 1 {
			if _, ok := o.qpts[qu.ID]; ok {
				o.qpts[qu.ID] = qu.NewPoints[0]
			}
		}
	}
}

func (o *oracle) topK(q geom.Point, k int) []model.Neighbor {
	sel := bruteforce.NewSelector(k)
	for id, p := range o.objs {
		sel.Offer(id, geom.Dist(p, q))
	}
	return sel.Sorted()
}

// TestClusterEquivalence is the acceptance test of the cluster layer: a
// coordinator over N loopback workers, fed a workload, must produce
// byte-for-byte the result sets and ordered diff stream of one in-process
// monitor — including across a worker that is killed and restarted, where
// the loss must surface as an explicit gap followed by re-sync, never as
// silent divergence.
func TestClusterEquivalence(t *testing.T) {
	for _, n := range []int{2, 4} {
		t.Run(fmt.Sprintf("workers=%d", n), func(t *testing.T) { runEquivalence(t, n) })
	}
}

func runEquivalence(t *testing.T, nWorkers int) {
	const k, phase1, phase3 = 4, 6, 5

	coord, procs := startCluster(t, nWorkers, 5*time.Second)
	single := cpm.NewMonitor(cpm.Options{GridSize: 16})
	defer single.Close()

	// Pull both diff streams through the same collection path the sync
	// serving mode uses, so the comparison is exact and ordered.
	single.KeepDiffs(true)
	coord.KeepDiffs(true)

	compareDiffs := func(stage string) ([]model.ResultDiff, []model.ResultDiff) {
		t.Helper()
		want, got := single.TakeDiffs(), coord.TakeDiffs()
		if !reflect.DeepEqual(want, got) {
			t.Fatalf("%s: diff streams diverge:\nsingle: %+v\ncluster: %+v", stage, want, got)
		}
		return want, got
	}

	w := testWorkload(t)
	objs := w.InitialObjects()
	oracle := newOracle(objs)
	single.Bootstrap(objs)
	coord.Bootstrap(objs)
	compareDiffs("bootstrap")

	sub := coord.SubscribeWith(cpm.SubscribeOptions{Buffer: 4096})
	defer sub.Close()

	for i, q := range w.InitialQueries() {
		id := model.QueryID(i)
		oracle.qpts[id] = q
		if err := single.RegisterQuery(id, q, k); err != nil {
			t.Fatal(err)
		}
		if err := coord.RegisterQuery(id, q, k); err != nil {
			t.Fatal(err)
		}
		compareDiffs(fmt.Sprintf("register %d", id))
	}

	checkResults := func(stage string) {
		t.Helper()
		for id, q := range oracle.qpts {
			want := single.Result(id)
			got := coord.Result(id)
			if !reflect.DeepEqual(want, got) {
				t.Fatalf("%s: query %d: cluster result %v, single %v", stage, id, got, want)
			}
			brute := oracle.topK(q, k)
			if !reflect.DeepEqual(got, brute) {
				t.Fatalf("%s: query %d: cluster result %v, brute force %v", stage, id, got, brute)
			}
		}
	}
	checkResults("after registration")

	// Phase 1: healthy cluster, exact stream equality every cycle.
	for cycle := 0; cycle < phase1; cycle++ {
		b := w.Advance()
		oracle.apply(b)
		single.Tick(b)
		coord.Tick(b)
		compareDiffs(fmt.Sprintf("phase1 cycle %d", cycle))
		checkResults(fmt.Sprintf("phase1 cycle %d", cycle))
	}

	// Phase 2: kill the owner of query 0 and keep ticking. The merged
	// stream must carry exactly the surviving workers' diffs, and the
	// victim's queries must gap — visibly — rather than silently stall.
	victim := model.Owner(0, nWorkers)
	procs[victim].kill()
	for cycle := 0; cycle < 2; cycle++ {
		b := w.Advance()
		oracle.apply(b)
		single.Tick(b)
		coord.Tick(b)
		want, got := single.TakeDiffs(), coord.TakeDiffs()
		var surviving []model.ResultDiff
		for _, d := range want {
			if model.Owner(d.Query, nWorkers) != victim {
				surviving = append(surviving, d)
			}
		}
		if !reflect.DeepEqual(surviving, got) {
			t.Fatalf("outage cycle %d: surviving-worker diffs diverge:\nwant %+v\ngot %+v", cycle, surviving, got)
		}
	}
	if coord.SyncedWorkers() != nWorkers-1 {
		t.Fatalf("after kill: %d synced workers, want %d", coord.SyncedWorkers(), nWorkers-1)
	}
	if sub.Dropped() == 0 {
		t.Fatal("worker loss produced no subscriber gap")
	}

	// Phase 2b: restart the worker on its old address and tick until an
	// operation re-syncs it.
	procs[victim] = startWorker(t, procs[victim].addr)
	deadline := time.Now().Add(15 * time.Second)
	for coord.SyncedWorkers() < nWorkers {
		if time.Now().After(deadline) {
			t.Fatalf("worker %d did not re-sync in time", victim)
		}
		b := w.Advance()
		oracle.apply(b)
		single.Tick(b)
		coord.Tick(b)
		single.TakeDiffs()
		coord.TakeDiffs()
		time.Sleep(20 * time.Millisecond)
	}
	// Re-sync reconciliation must have restored every result exactly.
	checkResults("after re-sync")

	// Phase 3: exact stream equality again, across the healed cluster.
	for cycle := 0; cycle < phase3; cycle++ {
		b := w.Advance()
		oracle.apply(b)
		single.Tick(b)
		coord.Tick(b)
		compareDiffs(fmt.Sprintf("phase3 cycle %d", cycle))
		checkResults(fmt.Sprintf("phase3 cycle %d", cycle))
	}

	// Removal propagates and terminates the stream for that query.
	single.RemoveQuery(3)
	coord.RemoveQuery(3)
	delete(oracle.qpts, 3)
	compareDiffs("remove")
	checkResults("after remove")
}

// TestReadsStableAcrossTicks: what a caller gets from the coordinator — a
// Result, a Snapshot, the diffs of TakeDiffs — is not changed by later
// ticks, although the mirror rewrites its result buffers in place and the
// diffs' slices share arena chunks with later frames.
func TestReadsStableAcrossTicks(t *testing.T) {
	coord, _ := startCluster(t, 2, 5*time.Second)
	coord.KeepDiffs(true)
	w := testWorkload(t)
	coord.Bootstrap(w.InitialObjects())
	for i, q := range w.InitialQueries() {
		if err := coord.RegisterQuery(model.QueryID(i), q, 4); err != nil {
			t.Fatal(err)
		}
	}
	coord.Tick(w.Advance())

	result := coord.Result(0)
	snaps := coord.Snapshot()
	taken := coord.TakeDiffs()
	if len(result) == 0 || len(taken) == 0 {
		t.Fatal("the scenario has no result or no diffs to hold")
	}
	wantResult, wantSnaps, wantTaken := slices.Clone(result), cloneSnaps(snaps), cloneDiffs(taken)
	changed := false
	for i := 0; i < 20; i++ {
		coord.Tick(w.Advance())
		changed = changed || !reflect.DeepEqual(coord.Result(0), wantResult)
	}
	if !changed {
		t.Fatal("query 0's result never changed; the scenario is too idle")
	}
	if !reflect.DeepEqual(result, wantResult) {
		t.Fatalf("held Result changed: %v, want %v", result, wantResult)
	}
	if !reflect.DeepEqual(snaps, wantSnaps) {
		t.Fatalf("held Snapshot changed:\ngot  %+v\nwant %+v", snaps, wantSnaps)
	}
	if !reflect.DeepEqual(taken, wantTaken) {
		t.Fatalf("held diffs changed:\ngot  %+v\nwant %+v", taken, wantTaken)
	}
}

// cloneSnaps and cloneDiffs copy what a caller holds, sharing no memory.
func cloneSnaps(snaps []cpm.QuerySnapshot) []cpm.QuerySnapshot {
	out := slices.Clone(snaps)
	for i := range out {
		out[i].Result = slices.Clone(out[i].Result)
	}
	return out
}

func cloneDiffs(diffs []model.ResultDiff) []model.ResultDiff {
	out := slices.Clone(diffs)
	for i := range out {
		d := &out[i]
		d.Entered, d.Exited = slices.Clone(d.Entered), slices.Clone(d.Exited)
		d.Reranked, d.Result = slices.Clone(d.Reranked), slices.Clone(d.Result)
	}
	return out
}
