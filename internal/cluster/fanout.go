package cluster

import (
	"errors"
	"fmt"
	"maps"
	"math/rand"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"cpm/client"
	"cpm/internal/geom"
	"cpm/internal/metrics"
	"cpm/internal/model"
	"cpm/internal/tracing"
	"cpm/internal/wire"
)

// Health is the coordinator's per-worker health state: Healthy workers
// serve cleanly, Degraded ones are on probation (recent retries, or just
// re-synced — watch them), Desynced ones hold unknown state and receive
// no operations until a re-sync rebuilds them. Exposed per worker as the
// cpm_coord_worker<N>_health gauge (0/1/2).
type Health int

const (
	Healthy Health = iota
	Degraded
	Desynced
)

// String returns the health state name used in logs and docs.
func (h Health) String() string {
	switch h {
	case Healthy:
		return "healthy"
	case Degraded:
		return "degraded"
	case Desynced:
		return "desynced"
	default:
		return fmt.Sprintf("health(%d)", int(h))
	}
}

// healthyStreak is how many consecutive clean (no-retry) operations a
// degraded worker must serve before it is promoted back to Healthy.
const healthyStreak = 3

// worker is one downstream server the coordinator shards onto.
type worker struct {
	idx  int
	addr string
	cl   *client.Client
	// span, timeoutSpan and resyncSpan name the operation's child spans
	// for this worker, built once so an untraced operation formats nothing.
	span, timeoutSpan, resyncSpan string

	// mu serializes every wire call to this worker. An operation the
	// coordinator abandoned at the deadline may still be in flight; a
	// re-sync must not start before it drains, or the stale request could
	// land between the re-sync's Reset and Bootstrap and corrupt the
	// rebuilt state.
	mu sync.Mutex

	// seen is the server instance id from the latest handshake, written
	// by the client's OnConnect callback (dialing goroutine) and read by
	// the coordinator loop.
	seen atomic.Uint64

	// Coordinator-loop state: synced reports whether the worker's state
	// is exactly the mirror's; instance is the server instance that
	// state was built on — a differing seen means the worker restarted
	// underneath us.
	synced   bool
	instance uint64

	// Health machine state (coordinator loop only): health is the
	// current state, cleanOps counts consecutive retry-free operations
	// while degraded.
	health   Health
	cleanOps int

	// batch is the worker's share of the tick in flight (partition). The
	// loop rewrites it only while the worker is synced: a call abandoned
	// at the deadline may still be about to encode it, and an abandoned
	// worker is out of sync until a rebuild has taken its mutex.
	batch model.Batch
	// phases and phasesAt are the tick-phase report of the worker's
	// answer to the last fan-out and when that call started; phasesAt
	// is zero if it did not answer (coordinator loop only).
	phases   model.PhaseNanos
	phasesAt time.Time

	rtt        *metrics.Histogram
	reconnects *metrics.Counter
	healthG    *metrics.Gauge
}

var (
	errOpTimeout       = errors.New("cluster: operation timed out")
	errInstanceChanged = errors.New("server instance changed (worker restart)")
)

// synced returns the workers currently holding exact state, in a buffer
// the coordinator reuses: it is valid until the next call.
func (c *Coordinator) synced() []*worker {
	c.targets = c.targets[:0]
	for _, w := range c.workers {
		if w.synced {
			c.targets = append(c.targets, w)
		}
	}
	return c.targets
}

// beginOp is the prologue of every mutating operation: demote workers
// whose server instance changed underneath a healthy connection, then
// re-sync every out-of-sync worker that can be rebuilt now, so that it
// takes part in this very operation.
func (c *Coordinator) beginOp() {
	for _, w := range c.workers {
		if w.synced && w.seen.Load() != w.instance {
			c.desync(w, errInstanceChanged)
		}
	}
	c.resync()
}

// fan is the reusable state of one fan-out path: one long-lived goroutine
// per worker that runs call for each request it receives, the answer
// channel they share, the sequence number of the gather in flight and its
// timer. A fan belongs to one goroutine at a time — the coordinator loop
// for operations and rebuilds, the scrape path (under statsMu) for fleet
// stats — so gathers on it never overlap.
type fan[A, T any] struct {
	call    func(*worker, A) T
	seq     uint64
	inbox   []chan request[A] // per worker; nil until its first request
	owed    []bool            // per worker: a request of this gather is unanswered
	answers chan answer[T]
	timer   *time.Timer
	closed  bool
	running sync.WaitGroup // the per-worker goroutines
}

type request[A any] struct {
	seq uint64
	arg A
}

type answer[T any] struct {
	seq uint64
	w   *worker
	v   T
}

// newFan returns the fan-out state for n workers, each call running
// call. A worker holds at most two requests (one running, one queued
// behind it), so the answer channel never blocks a worker's goroutine.
func newFan[A, T any](n int, call func(*worker, A) T) *fan[A, T] {
	return &fan[A, T]{
		call:    call,
		inbox:   make([]chan request[A], n),
		owed:    make([]bool, n),
		answers: make(chan answer[T], 2*n),
	}
}

// serve is worker w's goroutine on f: it answers requests in order until
// the fan closes.
func (f *fan[A, T]) serve(w *worker, in <-chan request[A]) {
	defer f.running.Done()
	for r := range in {
		f.answers <- answer[T]{r.seq, w, f.call(w, r.arg)}
	}
}

// close stops the fan's goroutines and returns once their calls in
// flight have returned and they have exited. Later gathers send nothing
// and report every target late.
func (f *fan[A, T]) close() {
	if f.closed {
		return
	}
	f.closed = true
	for _, in := range f.inbox {
		if in != nil {
			close(in)
		}
	}
	f.running.Wait()
}

// gather runs f's call with arg against every target concurrently and
// hands each answer to take on the calling goroutine, until every target
// has answered or timeout (none when not positive) runs out. It returns
// the targets still unanswered then; their calls are abandoned, not
// stopped, and their answers, tagged with an older sequence number, are
// dropped when they arrive. A target whose goroutine is still held by
// two earlier abandoned calls gets no request and is late at once.
func gather[A, T any](f *fan[A, T], targets []*worker, timeout time.Duration, arg A, take func(*worker, T)) (late []*worker) {
	for len(f.answers) > 0 {
		<-f.answers // answers of abandoned calls
	}
	f.seq++
	waiting := 0
	for _, w := range targets {
		f.owed[w.idx] = true
		if f.closed {
			continue
		}
		in := f.inbox[w.idx]
		if in == nil {
			in = make(chan request[A], 1)
			f.inbox[w.idx] = in
			f.running.Add(1)
			go f.serve(w, in)
		}
		select {
		case in <- request[A]{f.seq, arg}:
			waiting++
		default:
		}
	}
	var deadline <-chan time.Time
	if timeout > 0 && waiting > 0 {
		if f.timer == nil {
			f.timer = time.NewTimer(timeout)
		} else {
			f.timer.Reset(timeout) // go 1.23 timers: no stale value survives a Reset
		}
		defer f.timer.Stop()
		deadline = f.timer.C
	}
wait:
	for waiting > 0 {
		select {
		case a := <-f.answers:
			if a.seq != f.seq {
				continue
			}
			f.owed[a.w.idx] = false
			waiting--
			take(a.w, a.v)
		case <-deadline:
			break wait
		}
	}
	for _, w := range targets {
		if f.owed[w.idx] {
			late = append(late, w)
		}
	}
	return late
}

// opFunc is one operation's call on one worker: the round trip's result
// diffs, the tick-phase report of a Tick, and its error.
type opFunc func(*worker) ([]model.ResultDiff, model.PhaseNanos, error)

// noPhases adapts a round trip that reports no tick phases to opFunc.
func noPhases(d []model.ResultDiff, err error) ([]model.ResultDiff, model.PhaseNanos, error) {
	return d, model.PhaseNanos{}, err
}

// opArgs is what one fan-out sends every target: the call, the trace
// context to stamp ahead of it and the deadline of its ErrUnsent retries.
type opArgs struct {
	f     opFunc
	ctx   tracing.Context
	until time.Time // zero: no deadline (OpTimeout disabled)
}

// fanResult is one worker's answer to an operation.
type fanResult struct {
	diffs   []model.ResultDiff
	phases  model.PhaseNanos
	err     error
	at      time.Time // when the worker's call started (post worker mutex)
	rtt     time.Duration
	retries int
}

// runOp is the operations fan's call: one operation on one worker,
// behind the worker's mutex, with ErrUnsent retries until the deadline.
// Each attempt is stamped with the trace context anew.
func runOp(w *worker, a opArgs) fanResult {
	w.mu.Lock()
	defer w.mu.Unlock()
	r := fanResult{at: time.Now()}
	for {
		stampTrace(a.ctx, w)
		r.diffs, r.phases, r.err = a.f(w)
		if !errors.Is(r.err, client.ErrUnsent) || !retryWait(a.until, r.retries) {
			break
		}
		r.retries++
	}
	r.rtt = time.Since(r.at)
	return r
}

// fanOut runs f concurrently against the given workers, bounded by
// Options.OpTimeout, and returns the merged diffs in ascending query id
// order — the single-monitor stream order — in a buffer the coordinator
// reuses: they are valid until the next fan-out. Each target that
// answered keeps its tick-phase report in phases/phasesAt. A worker that
// fails with a transport error or misses the deadline is desynced (its
// abandoned call, if any, drains behind its per-worker mutex). An
// application error — the server processed the request and rejected it —
// leaves the worker synced and is returned; with desyncOnAppErr
// (fleet-wide operations, where a rejection means the worker's state is
// in question) it desyncs instead.
//
// A successful answer counts only if the worker's server instance is still
// the one its state was built on: a handshake with a new instance always
// precedes the first request on the new connection, so an unchanged id
// after the answer proves the answer came from the state the mirror knows.
//
// ErrUnsent failures — the request provably never reached the wire, so a
// repeat cannot double-apply — are retried in place with jittered backoff
// until the deadline, instead of desyncing immediately: a worker caught
// mid-reconnect (restart, transient partition) rejoins without paying a
// re-sync. Retries are counted (cpm_coord_op_retries_total) and
// demote the worker to Degraded; healthyStreak clean operations promote
// it back.
func (c *Coordinator) fanOut(targets []*worker, desyncOnAppErr bool, f opFunc) ([]model.ResultDiff, error) {
	if len(targets) == 0 {
		return nil, nil
	}
	start := time.Now()
	args := opArgs{f: f, ctx: c.opSpan.Context()}
	if c.opts.OpTimeout > 0 {
		args.until = start.Add(c.opts.OpTimeout)
	}
	for _, w := range targets {
		w.phases, w.phasesAt = model.PhaseNanos{}, time.Time{}
	}
	merged := c.merged[:0]
	var appErr error
	late := gather(c.ops, targets, c.opts.OpTimeout, args, func(w *worker, r fanResult) {
		w.rtt.Observe(r.rtt)
		// take runs on the coordinator loop, so reading c.opSpan here is
		// race-free; the span covers the whole round trip
		// (dial/send/wait/decode) behind the worker mutex.
		c.opSpan.ChildAt(w.span, r.at, r.rtt)
		if r.retries > 0 {
			c.met.opRetries.Add(int64(r.retries))
		}
		switch {
		case r.err == nil && w.seen.Load() != w.instance:
			// beginOp checked the instance before the send, but the
			// client may have reconnected to a restarted — empty —
			// server in between: the answer then describes state the
			// mirror never had, so it is dropped like a lost one.
			c.desync(w, errInstanceChanged)
		case r.err == nil:
			c.noteOutcome(w, r.retries)
			merged = append(merged, r.diffs...)
			w.phases, w.phasesAt = r.phases, r.at
		case isTransportErr(r.err) || desyncOnAppErr:
			c.desync(w, r.err)
		default:
			appErr = r.err
		}
	})
	if len(late) > 0 {
		c.met.opTimeouts.Inc()
		for _, w := range late {
			c.desync(w, errOpTimeout)
			c.opSpan.ChildAt(w.timeoutSpan, start, time.Since(start))
		}
	}
	c.met.fanout.ObserveSince(start)
	model.SortByQuery(merged)
	c.merged = merged
	return merged, appErr
}

// retryWait decides whether an ErrUnsent attempt gets another try and, if
// so, sleeps the jittered backoff first. With no deadline the retries are
// capped instead (an unreachable worker must not stall a deadline-less
// operation forever — the pre-retry behavior was to give up at once).
func retryWait(until time.Time, retries int) bool {
	const (
		base       = 2 * time.Millisecond
		maxDelay   = 50 * time.Millisecond
		capNoBound = 2
	)
	if until.IsZero() && retries >= capNoBound {
		return false
	}
	ceil := base << retries
	if ceil > maxDelay || ceil <= 0 {
		ceil = maxDelay
	}
	d := time.Duration(1 + rand.Int63n(int64(ceil)))
	if !until.IsZero() {
		left := time.Until(until)
		if left <= 0 {
			return false
		}
		if d > left {
			d = left
		}
	}
	time.Sleep(d)
	return true
}

// noteOutcome runs the health machine on one successful operation:
// retries demote to Degraded, a streak of clean operations promotes a
// degraded worker back to Healthy.
func (c *Coordinator) noteOutcome(w *worker, retries int) {
	if !w.synced {
		return
	}
	if retries > 0 {
		w.cleanOps = 0
		c.setHealth(w, Degraded)
		return
	}
	w.cleanOps++
	if w.health == Degraded && w.cleanOps >= healthyStreak {
		c.setHealth(w, Healthy)
	}
}

// setHealth moves one worker's health state and its gauge together.
func (c *Coordinator) setHealth(w *worker, h Health) {
	if w.health == h {
		return
	}
	w.health = h
	w.healthG.Set(int64(h))
	c.logf("cluster: worker %d (%s) health: %s", w.idx, w.addr, h)
}

// isTransportErr separates "the request may not have reached the worker,
// or its fate is unknown" from "the worker processed and rejected it".
func isTransportErr(err error) bool {
	return errors.Is(err, client.ErrDisconnected) || errors.Is(err, client.ErrClosed)
}

// desync marks a worker's state unknown: it stops receiving operations,
// its owned queries' subscribers get an explicit sequence gap, and the
// next operation whose beginOp can reach it re-syncs it. Nothing about
// what the worker missed is recorded: the re-sync rebuilds it whole from
// the mirror, which also covers an operation it half-applied.
func (c *Coordinator) desync(w *worker, err error) {
	if !w.synced {
		return
	}
	w.synced = false
	w.cleanOps = 0
	c.setHealth(w, Desynced)
	c.met.desyncs.Inc()
	c.met.workersSynced.Set(int64(c.SyncedWorkers()))
	c.logf("cluster: worker %d (%s) out of sync: %v", w.idx, w.addr, err)
	owned := c.ownedIDs(w.idx)
	if len(owned) > 0 {
		c.gapQueries(owned...)
	}
}

// gapQueries advances interested subscribers' sequence numbers without an
// event, so the loss surfaces downstream as an explicit Gap frame.
func (c *Coordinator) gapQueries(ids ...model.QueryID) {
	c.met.gapQueries.Add(int64(len(ids)))
	if c.hub != nil {
		c.hub.Gap(ids...)
	}
}

// ownedIDs returns the installed queries owned by worker idx, ascending.
func (c *Coordinator) ownedIDs(idx int) []model.QueryID {
	var ids []model.QueryID
	for id := range c.defs {
		if c.owner(id) == idx {
			ids = append(ids, id)
		}
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return ids
}

// ---- Re-sync ---------------------------------------------------------------

// resyncSnap is everything one rebuild reads: copies of the mirror's
// object population and of the definitions of every query its worker
// owns, ascending. They are copies because a rebuild abandoned at the
// deadline may still be reading them while later operations rewrite the
// mirror in place.
type resyncSnap struct {
	objs map[model.ObjectID]geom.Point
	defs []wire.Register
}

// resyncResult reports one finished rebuild.
type resyncResult struct {
	instance uint64                             // seen before the rebuild began
	results  map[model.QueryID][]model.Neighbor // fresh owned results
	err      error
}

// resync rebuilds every out-of-sync worker that can be rebuilt now, all at
// once and bounded by Options.OpTimeout like any fan-out. The mirror is
// exact between two operations, and the coordinator loop waits for the
// rebuild, so the rebuilt state is exact by construction. Two gates keep a
// bad link from stalling the operation: the worker's connection must be up
// now (a request on a dead link would wait out the client's ReconnectWait),
// and no abandoned call may hold its mutex. The mutex taken here is
// released by the rebuild's goroutine. A rebuild that misses the deadline
// fails, drains behind the mutex, and a later operation retries.
func (c *Coordinator) resync() {
	var targets []*worker
	for _, w := range c.workers {
		if !w.synced && w.cl.Connected() && w.mu.TryLock() {
			targets = append(targets, w)
		}
	}
	if len(targets) == 0 {
		return
	}
	// Every target gets its request: a rebuild goroutine that could still
	// be busy has released the mutex TryLock just took.
	start := time.Now()
	done := func(w *worker, r resyncResult) {
		c.opSpan.ChildAt(w.resyncSpan, start, time.Since(start))
		c.acceptResync(w, r)
	}
	for _, w := range gather(c.rebuilds, targets, c.opts.OpTimeout, c.snapshotFor(targets), done) {
		done(w, resyncResult{err: errOpTimeout})
	}
}

// rebuild is the rebuilds fan's call: it releases the worker mutex resync
// took for it.
func rebuild(w *worker, snaps []resyncSnap) resyncResult {
	defer w.mu.Unlock()
	return runResync(w, snaps[w.idx])
}

// snapshotFor copies what the rebuilds of targets read, indexed by worker:
// the object population once, shared by all of them, and each worker's
// owned definitions.
func (c *Coordinator) snapshotFor(targets []*worker) []resyncSnap {
	objs := maps.Clone(c.objs)
	snaps := make([]resyncSnap, len(c.workers))
	for _, w := range targets {
		snaps[w.idx].objs = objs
		for _, id := range c.ownedIDs(w.idx) {
			snaps[w.idx].defs = append(snaps[w.idx].defs, cloneDef(c.defs[id]))
		}
	}
	return snaps
}

// runResync rebuilds one worker from a mirror snapshot: Reset, Bootstrap
// of the whole object population, re-registration of every owned query.
// A worker's state is derived from exactly these, so the rebuild is exact
// whatever the worker missed or half-applied. It touches no coordinator
// state — only the snapshot and the worker's client — so it is safe off
// the coordinator loop. The rebuild is idempotent end to end, so a failed
// attempt retries from scratch safely.
func runResync(w *worker, snap resyncSnap) resyncResult {
	res := resyncResult{instance: w.seen.Load(), results: make(map[model.QueryID][]model.Neighbor, len(snap.defs))}
	if err := w.cl.Reset(); err != nil {
		res.err = err
		return res
	}
	if err := w.cl.Bootstrap(snap.objs); err != nil {
		res.err = err
		return res
	}
	for _, def := range snap.defs {
		diffs, err := w.cl.RegisterDefDiffs(def)
		if err != nil {
			res.err = err
			return res
		}
		for _, d := range diffs {
			if d.Query == def.ID && d.Kind != model.DiffRemove {
				res.results[d.Query] = d.Result
			}
		}
	}
	return res
}

// acceptResync folds a finished rebuild in. The whole rebuild must have
// landed on one server instance — a handshake updates seen before the
// first request on a new connection, so an unchanged seen proves it did;
// otherwise the worker stays out of sync and a later operation retries.
func (c *Coordinator) acceptResync(w *worker, r resyncResult) {
	if r.err == nil && r.instance != w.seen.Load() {
		r.err = errInstanceChanged
	}
	if r.err != nil {
		c.met.resyncFails.Inc()
		c.logf("cluster: re-sync of worker %d (%s) failed: %v", w.idx, w.addr, r.err)
		return
	}
	w.synced = true
	w.instance = r.instance
	w.cleanOps = 0
	c.setHealth(w, Degraded) // probation: healthyStreak clean ops promote
	c.met.resyncs.Inc()
	c.met.workersSynced.Set(int64(c.SyncedWorkers()))
	c.logf("cluster: worker %d (%s) re-synced (%d queries)", w.idx, w.addr, len(r.results))
	// Reconciliation: subscribers saw a gap while the worker was away;
	// one synthetic full-result diff per drifted query re-converges them
	// from the very next event.
	var recon []model.ResultDiff
	for _, id := range c.ownedIDs(w.idx) {
		fresh := r.results[id]
		if !neighborsEqual(c.results[id], fresh) {
			recon = append(recon, synthDiff(id, c.results[id], fresh))
			c.results[id] = append(c.results[id][:0], fresh...)
		}
	}
	c.publish(recon)
}

// synthDiff builds the DiffUpdate describing the transition old → new,
// with the delta fields a subscriber expects (entered/exited in order,
// re-ranked survivors with their new distances).
func synthDiff(id model.QueryID, old, new []model.Neighbor) model.ResultDiff {
	oldRank := make(map[model.ObjectID]int, len(old))
	for i, n := range old {
		oldRank[n.ID] = i
	}
	newSet := make(map[model.ObjectID]bool, len(new))
	d := model.ResultDiff{Query: id, Kind: model.DiffUpdate, Result: new}
	for i, n := range new {
		newSet[n.ID] = true
		if j, ok := oldRank[n.ID]; !ok {
			d.Entered = append(d.Entered, n)
		} else if j != i || old[j].Dist != n.Dist {
			d.Reranked = append(d.Reranked, n)
		}
	}
	for _, n := range old {
		if !newSet[n.ID] {
			d.Exited = append(d.Exited, n.ID)
		}
	}
	return d
}
