package cluster_test

import (
	"net"
	"reflect"
	"strings"
	"testing"
	"time"

	"cpm"
	"cpm/client"
	"cpm/internal/cluster"
	"cpm/internal/model"
	"cpm/internal/server"
	"cpm/workload"
)

// setupSmallCluster boots a 2-worker cluster with a small population and
// a handful of queries, so every worker owns some.
func setupSmallCluster(t *testing.T, opTimeout time.Duration) (*cluster.Coordinator, []*workerProc, *workload.Workload) {
	t.Helper()
	c, p := startCluster(t, 2, opTimeout)
	wl := testWorkload(t)
	c.Bootstrap(wl.InitialObjects())
	for i, q := range wl.InitialQueries() {
		if err := c.RegisterQuery(model.QueryID(i), q, 4); err != nil {
			t.Fatal(err)
		}
	}
	return c, p, wl
}

// wedge grabs a worker's monitor mutex so its request handlers stall —
// the "slow worker" failure mode (a long cycle, a stuck in-process
// driver) as opposed to a dead one.
func wedge(p *workerProc) (release func()) {
	ch := make(chan struct{})
	held := make(chan struct{})
	go p.srv.Locked(func(m server.Backend) {
		close(held)
		<-ch
	})
	<-held
	return func() { close(ch) }
}

// TestSlowWorkerBoundedTick: a wedged worker must cost one tick at most
// OpTimeout — the tick barrier converts the stall into a desync plus
// subscriber gap instead of inheriting it.
func TestSlowWorkerBoundedTick(t *testing.T) {
	coord, procs, wl := setupSmallCluster(t, 150*time.Millisecond)
	sub := coord.SubscribeWith(cpm.SubscribeOptions{Buffer: 1024})
	defer sub.Close()
	coord.Tick(wl.Advance()) // healthy baseline

	release := wedge(procs[0])

	start := time.Now()
	coord.Tick(wl.Advance())
	elapsed := time.Since(start)
	if elapsed > 2*time.Second {
		t.Fatalf("tick with wedged worker took %v, want ~OpTimeout (150ms)", elapsed)
	}
	if got := coord.SyncedWorkers(); got != 1 {
		t.Fatalf("wedged worker still synced: %d synced, want 1", got)
	}
	if sub.Dropped() == 0 {
		t.Fatal("wedged worker produced no subscriber gap")
	}

	// Releasing the wedge lets the abandoned call drain and the next
	// tick's re-sync repair the worker.
	release()
	deadline := time.Now().Add(10 * time.Second)
	for coord.SyncedWorkers() < 2 {
		if time.Now().After(deadline) {
			t.Fatal("wedged worker never re-synced after release")
		}
		coord.Tick(wl.Advance())
		time.Sleep(20 * time.Millisecond)
	}
}

// TestStallWithoutTimeout is the negative control for the tick barrier:
// with the deadline disabled (OpTimeout < 0) a wedged worker must stall
// the tick — proving the timeout, not luck, is what bounds it above.
func TestStallWithoutTimeout(t *testing.T) {
	coord, procs, wl := setupSmallCluster(t, -1)
	release := wedge(procs[0])

	done := make(chan struct{})
	go func() {
		coord.Tick(wl.Advance())
		close(done)
	}()
	select {
	case <-done:
		t.Fatal("tick completed despite wedged worker and no timeout")
	case <-time.After(400 * time.Millisecond):
		// Stalled, as an unbounded barrier must.
	}
	release()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("tick did not complete after releasing the wedge")
	}
	if got := coord.SyncedWorkers(); got != 2 {
		t.Fatalf("worker desynced without timeout: %d synced, want 2", got)
	}
}

// TestWorkerKilledMidTick: a worker that dies while holding a tick's
// request must fail that tick over to the gap path promptly — the
// connection teardown, not the full OpTimeout, bounds the wait.
func TestWorkerKilledMidTick(t *testing.T) {
	coord, procs, wl := setupSmallCluster(t, 10*time.Second)
	release := wedge(procs[0])
	// Kill the worker while its tick request is still wedged in the
	// handler: Close drops the connections first (the client sees the
	// disconnect at once) and only then waits for the handler, so the
	// kill goroutine finishes after the wedge lifts.
	killed := make(chan struct{})
	go func() {
		time.Sleep(100 * time.Millisecond)
		procs[0].kill()
		close(killed)
	}()

	start := time.Now()
	coord.Tick(wl.Advance())
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("tick with killed worker took %v, want well under OpTimeout (10s)", elapsed)
	}
	if got := coord.SyncedWorkers(); got != 1 {
		t.Fatalf("killed worker still synced: %d synced, want 1", got)
	}
	release()
	<-killed
}

// TestSecondBootstrapRejected: a coordinator that holds a population
// refuses a second Bootstrap as a monitor does. Through a front server the
// client gets the error a monitor behind a server gives, and the
// coordinator refuses before it touches its mirror or any worker: no worker
// desyncs, and the next tick answers from the first population.
func TestSecondBootstrapRejected(t *testing.T) {
	coord, procs := startCluster(t, 2, 5*time.Second)
	front := server.New(coord, server.Options{})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go front.Serve(ln)
	t.Cleanup(func() { front.Close() })
	dial := func(addr string) *client.Client {
		t.Helper()
		cl, err := client.Dial(addr, client.Options{SyncDiffs: true})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { cl.Close() })
		return cl
	}
	viaCoord, viaMonitor := dial(ln.Addr().String()), dial(startWorker(t, "127.0.0.1:0").addr)

	wl := testWorkload(t)
	first := wl.InitialObjects()
	second := map[cpm.ObjectID]cpm.Point{0: {X: 0.5, Y: 0.5}, 1: {X: 0.25, Y: 0.75}}
	var refusals []error
	for _, cl := range []*client.Client{viaCoord, viaMonitor} {
		if err := cl.Bootstrap(first); err != nil {
			t.Fatal(err)
		}
		if err := cl.RegisterQuery(1, cpm.Point{X: 0.4, Y: 0.6}, 5); err != nil {
			t.Fatal(err)
		}
		refusals = append(refusals, cl.Bootstrap(second))
	}
	if refusals[0] == nil || refusals[1] == nil || refusals[0].Error() != refusals[1].Error() {
		t.Fatalf("second Bootstrap: coordinator %v, monitor %v; want the monitor's error from both", refusals[0], refusals[1])
	}
	if !strings.Contains(refusals[0].Error(), "bootstrap rejected: population already loaded") {
		t.Fatalf("second Bootstrap: %v", refusals[0])
	}

	o := newOracle(first)
	b := wl.Advance()
	o.apply(b)
	if err := viaCoord.Tick(b); err != nil {
		t.Fatal(err)
	}
	if n := metric(t, coord, "cpm_coord_worker_desyncs_total"); n != 0 {
		t.Fatalf("%d worker desyncs after a refused Bootstrap, want 0", n)
	}
	if n := coord.ObjectCount(); n != len(o.objs) {
		t.Fatalf("the mirror holds %d objects, the first population after a tick %d", n, len(o.objs))
	}
	for i, p := range procs {
		if n := p.mon.ObjectCount(); n != len(o.objs) {
			t.Fatalf("worker %d holds %d objects, want %d", i, n, len(o.objs))
		}
	}
	got, err := viaCoord.Result(1)
	if err != nil {
		t.Fatal(err)
	}
	if want := o.topK(cpm.Point{X: 0.4, Y: 0.6}, 5); !reflect.DeepEqual(got, want) {
		t.Fatalf("result after the refused Bootstrap %v, oracle %v", got, want)
	}
}
