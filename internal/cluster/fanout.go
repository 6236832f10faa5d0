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
	"cpm/internal/wire"
)

// Health is the coordinator's per-worker health state: Healthy workers
// serve cleanly, Degraded ones are on probation (recent retries, or just
// re-synced — watch them), Desynced ones hold unknown state and receive
// no operations until a re-sync is accepted. Exposed per worker as the
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

	// mu serializes every wire call to this worker. An operation the
	// coordinator abandoned at the fan-out deadline may still be in
	// flight; a later re-sync must wait for it to drain, or the stale
	// request could land between the re-sync's Reset and Bootstrap and
	// corrupt the rebuilt state.
	mu sync.Mutex

	// seen is the server instance id from the latest handshake, written
	// by the client's OnConnect callback (dialing goroutine) and read by
	// the coordinator loop.
	seen atomic.Uint64
	// resyncing marks a background re-sync in flight (set by the loop,
	// cleared by the re-sync goroutine).
	resyncing atomic.Bool

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

	// Dirty tracking for incremental re-sync, maintained only while the
	// worker is out of sync (nil when synced): every object and owned
	// query the worker may have missed or half-applied since it left the
	// fleet. needFull forces the Reset+Bootstrap path (set when a
	// fleet-wide Bootstrap/Reset ran while away, or tracking is
	// otherwise insufficient).
	dirtyObjs    map[model.ObjectID]bool
	dirtyQueries map[model.QueryID]bool
	needFull     bool

	rtt        *metrics.Histogram
	reconnects *metrics.Counter
	healthG    *metrics.Gauge
}

var (
	errOpTimeout       = errors.New("cluster: operation timed out")
	errInstanceChanged = errors.New("server instance changed (worker restart)")
)

// synced returns the workers currently holding exact state.
func (c *Coordinator) synced() []*worker {
	out := make([]*worker, 0, len(c.workers))
	for _, w := range c.workers {
		if w.synced {
			out = append(out, w)
		}
	}
	return out
}

// beginOp is the prologue of every mutating operation: accept any
// background re-syncs that finished since the last operation (the mirror
// is unchanged in between, so their snapshots are still exact), demote
// workers whose server instance changed underneath a healthy connection,
// and stamp the operation.
func (c *Coordinator) beginOp() {
	for _, w := range c.workers {
		if w.synced && w.seen.Load() != w.instance {
			c.desync(w, errInstanceChanged)
		}
	}
drain:
	for {
		select {
		case r := <-c.resyncCh:
			c.acceptResync(r)
		default:
			break drain
		}
	}
	c.gen++
	c.opObjIDs, c.opQueryIDs, c.opFull = nil, nil, false
}

// chargeDesynced charges the current operation's footprint to every
// worker already out of sync (desync charges workers lost during this
// very operation) — they are missing this operation too.
func (c *Coordinator) chargeDesynced() {
	for _, w := range c.workers {
		if !w.synced {
			c.markDirty(w)
		}
	}
}

// fanOut runs f concurrently against the given workers, bounded by
// Options.OpTimeout, and returns the merged diffs in ascending query id
// order — the single-monitor stream order. A worker that fails with a
// transport error or misses the deadline is desynced (its abandoned call,
// if any, drains behind its per-worker mutex). An application error — the
// server processed the request and rejected it — leaves the worker synced
// and is returned; with desyncOnAppErr (fleet-wide operations, where a
// rejection means the worker's state is in question) it desyncs instead.
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
// full re-sync. Retries are counted (cpm_coord_op_retries_total) and
// demote the worker to Degraded; healthyStreak clean operations promote
// it back.
func (c *Coordinator) fanOut(targets []*worker, desyncOnAppErr bool, f func(*worker) ([]model.ResultDiff, error)) ([]model.ResultDiff, error) {
	if len(targets) == 0 {
		return nil, nil
	}
	start := time.Now()
	var until time.Time // zero: no deadline (OpTimeout disabled)
	if c.opts.OpTimeout > 0 {
		until = start.Add(c.opts.OpTimeout)
	}
	type fanResult struct {
		w       *worker
		diffs   []model.ResultDiff
		err     error
		at      time.Time // when the worker's call started (post worker mutex)
		rtt     time.Duration
		retries int
	}
	ch := make(chan fanResult, len(targets))
	for _, w := range targets {
		go func(w *worker) {
			w.mu.Lock()
			defer w.mu.Unlock()
			t0 := time.Now()
			var retries int
			diffs, err := f(w)
			for errors.Is(err, client.ErrUnsent) && retryWait(until, retries) {
				retries++
				diffs, err = f(w)
			}
			ch <- fanResult{w: w, diffs: diffs, err: err, at: t0, rtt: time.Since(t0), retries: retries}
		}(w)
	}
	var deadline <-chan time.Time
	if c.opts.OpTimeout > 0 {
		tm := time.NewTimer(c.opts.OpTimeout)
		defer tm.Stop()
		deadline = tm.C
	}
	answered := make(map[*worker]bool, len(targets))
	var merged []model.ResultDiff
	var appErr error
	for len(answered) < len(targets) {
		select {
		case r := <-ch:
			answered[r.w] = true
			r.w.rtt.Observe(r.rtt)
			// The collector runs on the coordinator loop, so reading
			// c.opSpan here is race-free; the span covers the whole
			// round trip (dial/send/wait/decode) behind the worker mutex.
			c.opSpan.ChildAt(fmt.Sprintf("worker%d", r.w.idx), r.at, r.rtt)
			if r.retries > 0 {
				c.met.opRetries.Add(int64(r.retries))
			}
			switch {
			case r.err == nil && r.w.seen.Load() != r.w.instance:
				// beginOp checked the instance before the send, but the
				// client may have reconnected to a restarted — empty —
				// server in between: the answer then describes state the
				// mirror never had, so it is dropped like a lost one.
				c.desync(r.w, errInstanceChanged)
			case r.err == nil:
				c.noteOutcome(r.w, r.retries)
				merged = append(merged, r.diffs...)
			case isTransportErr(r.err) || desyncOnAppErr:
				c.desync(r.w, r.err)
			default:
				appErr = r.err
			}
		case <-deadline:
			c.met.opTimeouts.Inc()
			for _, w := range targets {
				if !answered[w] {
					c.desync(w, errOpTimeout)
					c.opSpan.ChildAt(fmt.Sprintf("worker%d/timeout", w.idx), start, time.Since(start))
				}
			}
			c.observeFanout(start, merged)
			return merged, appErr
		}
	}
	c.observeFanout(start, merged)
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

func (c *Coordinator) observeFanout(start time.Time, merged []model.ResultDiff) {
	c.met.fanout.ObserveSince(start)
	sort.SliceStable(merged, func(i, j int) bool { return merged[i].Query < merged[j].Query })
}

// isTransportErr separates "the request may not have reached the worker,
// or its fate is unknown" from "the worker processed and rejected it".
func isTransportErr(err error) bool {
	return errors.Is(err, client.ErrDisconnected) || errors.Is(err, client.ErrClosed)
}

// desync marks a worker's state unknown: it stops receiving operations,
// its owned queries' subscribers get an explicit sequence gap, and the
// next operation boundary starts a background re-sync. Dirty tracking
// begins here, seeded with the in-flight operation's footprint — the
// worker may have half-applied it, so those ids must be replayed even if
// nothing else changes while it is away.
func (c *Coordinator) desync(w *worker, err error) {
	if !w.synced {
		return
	}
	w.synced = false
	w.cleanOps = 0
	c.setHealth(w, Desynced)
	w.dirtyObjs = make(map[model.ObjectID]bool)
	w.dirtyQueries = make(map[model.QueryID]bool)
	w.needFull = false
	c.markDirty(w)
	c.met.desyncs.Inc()
	c.met.workersSynced.Set(int64(c.SyncedWorkers()))
	c.logf("cluster: worker %d (%s) out of sync: %v", w.idx, w.addr, err)
	owned := c.ownedIDs(w.idx)
	if len(owned) > 0 {
		c.gapQueries(owned...)
	}
}

// markDirty charges the current operation's footprint (c.opObjIDs,
// c.opQueryIDs, c.opFull — stamped by each mutating operation before its
// fan-out) to one out-of-sync worker's dirty sets.
func (c *Coordinator) markDirty(w *worker) {
	if c.opFull || w.dirtyObjs == nil {
		w.needFull = true
		return
	}
	for _, id := range c.opObjIDs {
		w.dirtyObjs[id] = true
	}
	for _, id := range c.opQueryIDs {
		if c.owner(id) == w.idx {
			w.dirtyQueries[id] = true
		}
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

// ---- Background re-sync ---------------------------------------------------

// resyncSnap is everything a re-sync goroutine may touch: an immutable
// copy of the relevant mirror state, stamped with the operation
// generation it reflects. full selects Reset+Bootstrap; otherwise the
// snapshot carries only the delta the worker missed.
type resyncSnap struct {
	gen  uint64
	full bool

	// Full rebuild: the whole object mirror + every owned def.
	objs map[model.ObjectID]geom.Point
	defs []wire.Register // owned queries to (re-)register, ascending id

	// Incremental replay (full == false):
	expect  uint64      // the instance the worker's retained state lives on
	delta   model.Batch // delete/insert pairs correcting the dirty objects
	removed []model.QueryID
	frozen  map[model.QueryID][]model.Neighbor // mirror results of untouched owned queries
}

// resyncResult reports one finished re-sync back to the coordinator loop.
type resyncResult struct {
	idx      int
	gen      uint64
	full     bool
	instance uint64
	objsSent int                                // objects shipped (Bootstrap or delta)
	results  map[model.QueryID][]model.Neighbor // fresh owned results
	err      error
}

// spawnResyncs starts a background rebuild for every out-of-sync worker
// that does not have one in flight. It runs at the end of each mutating
// operation, so the snapshot reflects everything the worker missed.
//
// The rebuild is incremental — a delta replay of just the dirty objects
// and queries — whenever the worker's retained state is still usable:
// the same server instance holds it, no fleet-wide Bootstrap/Reset ran
// while it was away, and the dirty set is smaller than re-shipping the
// world. Otherwise the full Reset+Bootstrap path runs.
func (c *Coordinator) spawnResyncs() {
	for _, w := range c.workers {
		if w.synced || w.resyncing.Load() {
			continue
		}
		w.resyncing.Store(true)
		snap := c.snapshotFor(w)
		go func(w *worker) {
			r := runResync(w, snap)
			c.resyncCh <- r
			w.resyncing.Store(false)
		}(w)
	}
}

// snapshotFor builds the re-sync snapshot for one out-of-sync worker,
// choosing the incremental or full mode.
func (c *Coordinator) snapshotFor(w *worker) resyncSnap {
	full := w.needFull ||
		w.dirtyObjs == nil ||
		w.seen.Load() != w.instance ||
		2*len(w.dirtyObjs) > len(c.objs)
	snap := resyncSnap{gen: c.gen, full: full}
	if full {
		snap.objs = maps.Clone(c.objs)
		for _, id := range c.ownedIDs(w.idx) {
			snap.defs = append(snap.defs, cloneDef(c.defs[id]))
		}
		return snap
	}
	snap.expect = w.instance
	for _, id := range sortedObjIDs(w.dirtyObjs) {
		// Delete+Insert lands on the mirror position whether or not the
		// worker saw the original update; a bare Delete covers objects
		// that vanished while it was away.
		snap.delta.Objects = append(snap.delta.Objects, model.Update{ID: id, Kind: model.Delete})
		if p, ok := c.objs[id]; ok {
			snap.delta.Objects = append(snap.delta.Objects, model.Update{ID: id, Kind: model.Insert, New: p})
		}
	}
	dirtyQ := make([]model.QueryID, 0, len(w.dirtyQueries))
	for id := range w.dirtyQueries {
		dirtyQ = append(dirtyQ, id)
	}
	sort.Slice(dirtyQ, func(i, j int) bool { return dirtyQ[i] < dirtyQ[j] })
	for _, id := range dirtyQ {
		if def, ok := c.defs[id]; ok {
			snap.defs = append(snap.defs, cloneDef(def))
		} else {
			snap.removed = append(snap.removed, id)
		}
	}
	// Untouched owned queries keep the results they froze at — seed them
	// so acceptance can tell "unchanged" from "unknown".
	snap.frozen = make(map[model.QueryID][]model.Neighbor)
	for _, id := range c.ownedIDs(w.idx) {
		if !w.dirtyQueries[id] {
			snap.frozen[id] = c.results[id]
		}
	}
	return snap
}

// sortedObjIDs returns the keys of set in ascending order.
func sortedObjIDs(set map[model.ObjectID]bool) []model.ObjectID {
	ids := make([]model.ObjectID, 0, len(set))
	for id := range set {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return ids
}

// runResync rebuilds one worker from a mirror snapshot. It touches no
// coordinator state — only the snapshot and the worker's client — so it
// is safe off the single-threaded loop. The per-worker mutex makes it
// wait for any abandoned in-flight call first. Both modes are idempotent
// end to end, so a failed attempt retries from scratch safely.
func runResync(w *worker, snap resyncSnap) resyncResult {
	w.mu.Lock()
	defer w.mu.Unlock()
	if snap.full {
		return runResyncFull(w, snap)
	}
	return runResyncIncremental(w, snap)
}

// runResyncFull is the Reset+Bootstrap path: wipe the worker, ship the
// whole object mirror, re-register every owned query.
func runResyncFull(w *worker, snap resyncSnap) resyncResult {
	res := resyncResult{idx: w.idx, gen: snap.gen, full: true, results: make(map[model.QueryID][]model.Neighbor, len(snap.defs))}
	res.instance = w.cl.InstanceID()
	if err := w.cl.Reset(); err != nil {
		res.err = err
		return res
	}
	if err := w.cl.Bootstrap(snap.objs); err != nil {
		res.err = err
		return res
	}
	res.objsSent = len(snap.objs)
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
	// The whole rebuild must have landed on one server instance: a
	// restart mid-way would leave later registrations on a worker that
	// never saw the Bootstrap.
	if got := w.cl.InstanceID(); got != res.instance {
		res.err = errors.New("cluster: worker restarted during re-sync")
		return res
	}
	return res
}

// runResyncIncremental replays just the delta the worker missed: one tick
// of delete/insert pairs correcting the dirty objects (the worker's own
// engine then refreshes every affected query), removal of queries that
// died while it was away, and remove+re-register of dirty queries. Valid
// only while the worker's retained state survives — the instance id is
// checked on both ends, and any restart aborts to the full path.
func runResyncIncremental(w *worker, snap resyncSnap) resyncResult {
	res := resyncResult{idx: w.idx, gen: snap.gen, results: make(map[model.QueryID][]model.Neighbor, len(snap.frozen)+len(snap.defs))}
	res.instance = w.cl.InstanceID()
	if res.instance != snap.expect {
		res.err = errors.New("cluster: worker restarted; incremental re-sync impossible")
		return res
	}
	maps.Copy(res.results, snap.frozen)
	fold := func(diffs []model.ResultDiff) {
		for _, d := range diffs {
			if d.Kind == model.DiffRemove {
				delete(res.results, d.Query)
			} else {
				res.results[d.Query] = d.Result
			}
		}
	}
	if len(snap.delta.Objects) > 0 {
		diffs, err := w.cl.TickDiffs(snap.delta)
		if err != nil {
			res.err = err
			return res
		}
		for _, u := range snap.delta.Objects {
			if u.Kind == model.Insert {
				res.objsSent++
			}
		}
		fold(diffs)
	}
	for _, id := range snap.removed {
		if _, err := w.cl.RemoveQueryDiffs(id); err != nil {
			res.err = err
			return res
		}
	}
	for _, def := range snap.defs {
		// Remove-then-register covers moved and newly-registered queries
		// alike (removing an uninstalled query is a no-op).
		if _, err := w.cl.RemoveQueryDiffs(def.ID); err != nil {
			res.err = err
			return res
		}
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
	if got := w.cl.InstanceID(); got != res.instance {
		res.err = errors.New("cluster: worker restarted during re-sync")
		return res
	}
	return res
}

// acceptResync folds a finished re-sync back in. It is only valid if no
// operation ran since its snapshot (the worker would have missed it) and
// the worker's instance still matches; otherwise the worker stays out of
// sync and the next operation boundary retries with a fresh snapshot.
func (c *Coordinator) acceptResync(r resyncResult) {
	w := c.workers[r.idx]
	if r.err != nil {
		c.met.resyncFails.Inc()
		c.logf("cluster: re-sync of worker %d (%s) failed: %v", w.idx, w.addr, r.err)
		return
	}
	if !c.skipGenCheck && r.gen != c.gen {
		return // stale snapshot — the worker missed operations: retry
	}
	if r.instance != w.seen.Load() {
		return // the worker moved again mid-rebuild: retry
	}
	w.synced = true
	w.instance = r.instance
	w.dirtyObjs, w.dirtyQueries = nil, nil
	w.needFull = false
	w.cleanOps = 0
	c.setHealth(w, Degraded) // probation: healthyStreak clean ops promote
	c.met.resyncs.Inc()
	if r.full {
		c.met.resyncFull.Inc()
	} else {
		c.met.resyncIncr.Inc()
	}
	c.met.resyncObjects.Add(int64(r.objsSent))
	c.met.workersSynced.Set(int64(c.SyncedWorkers()))
	mode := "incremental"
	if r.full {
		mode = "full"
	}
	c.logf("cluster: worker %d (%s) re-synced (%s, %d objects, %d queries)", w.idx, w.addr, mode, r.objsSent, len(r.results))
	// Reconciliation: subscribers saw a gap while the worker was away;
	// one synthetic full-result diff per drifted query re-converges them
	// from the very next event.
	var recon []model.ResultDiff
	for _, id := range c.ownedIDs(w.idx) {
		fresh := r.results[id]
		if !neighborsEqual(c.results[id], fresh) {
			recon = append(recon, synthDiff(id, c.results[id], fresh))
			c.results[id] = fresh
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
