// Package cluster distributes a CPM monitor across a fleet of worker
// servers: the Coordinator implements internal/server.Backend, so the
// ordinary serving layer (and therefore the unmodified client package,
// cpmload, cpmsim -connect) fronts a whole cluster exactly as it fronts a
// single in-process monitor.
//
// # Topology and routing
//
// The coordinator speaks internal/wire on both sides. Downstream it holds
// one sync-diffs client connection (wire.HelloSyncDiffs) per worker — an
// ordinary cpmserver process — and partitions the continuous queries
// across them by the same multiplicative hash internal/shard uses for its
// in-process shards: owner(q) = (uint32(q) · 0x9E3779B1) mod N. Every
// query lives on exactly one worker; every worker holds a full replica of
// the object population (object positions must be exact everywhere —
// unlike in-process shards, which share one grid, workers are separate
// processes and each must own its own).
//
// Each mutating operation fans out concurrently: a Tick sends the full
// object-update set to every worker and routes each query update to its
// owner, registrations/moves/removals go to the owning worker only, and
// Bootstrap/Reset go everywhere. Because the worker connections run in
// sync-diffs mode, every successful operation comes back with exactly the
// result diffs it produced on that worker; the coordinator merges the
// per-worker answers by ascending query id — the same order the
// single-engine monitor and internal/shard emit — so the merged stream is
// byte-for-byte the stream one big monitor would have produced.
//
// # State mirror
//
// The coordinator keeps an authoritative mirror of the cluster's logical
// state: every object position (applying the engine's own
// invalid-update rules), every query definition, and every query's
// current result (maintained from the merged diffs). The mirror serves
// reads locally — Result, Snapshot, subscription re-sync snapshots —
// without a network round trip, and is the source from which a lost
// worker is rebuilt.
//
// # Failure, gaps and re-sync
//
// A worker that misses an operation — transport error, or no answer
// within Options.OpTimeout — is marked out of sync: the coordinator stops
// sending it operations, advances its subscribers' sequence numbers past
// the lost diffs via the notify hub's Gap (so downstream consumers see an
// explicit Gap frame, never a silent hole), and starts a background
// re-sync. The re-sync rebuilds the worker from the mirror — Reset,
// Bootstrap of the full object population, re-registration of its owned
// queries — and is accepted only if no further operation ran meanwhile
// and the worker's server instance (from the Welcome frame) did not
// change mid-rebuild; otherwise it retries with a fresh snapshot. On
// acceptance the coordinator publishes one synthetic DiffUpdate, carrying
// the full current result, for each owned query whose result drifted
// while the worker was away, so subscribers re-converge from the very
// next event after the gap.
//
// Restarts are detected, not assumed: every worker connection records the
// server instance id of its latest handshake, and a synced worker whose
// instance changed is re-synced even if no request happened to fail — the
// id is compared before every operation and again on every answer, so an
// answer from a server that restarted in between is never merged.
//
// All wire traffic to one worker is serialized behind a per-worker mutex:
// an abandoned (timed-out) request can never land between a later
// re-sync's Reset and Bootstrap.
//
// Like the monitor it stands in for, the Coordinator is single-threaded
// by contract — internal/server serializes every call behind its monitor
// mutex. The exceptions are subscriptions (consume their channels from
// anywhere) and the metrics registry (atomic instruments).
package cluster

import (
	"errors"
	"fmt"
	"maps"
	"math"
	"sort"
	"sync"
	"time"

	"cpm"
	"cpm/client"
	"cpm/internal/geom"
	"cpm/internal/metrics"
	"cpm/internal/model"
	"cpm/internal/notify"
	"cpm/internal/tracing"
	"cpm/internal/wire"
)

// Options configure a Coordinator.
type Options struct {
	// Workers are the addresses of the worker servers, one cpmserver per
	// entry. The worker count is fixed for the coordinator's lifetime:
	// query ownership is a pure function of (id, len(Workers)).
	Workers []string
	// OpTimeout bounds how long a fanned-out operation waits for each
	// worker's answer (default 5s). A worker that misses the deadline is
	// marked out of sync and re-synced in the background; the operation
	// itself completes without it. Negative disables the bound — every
	// operation then blocks until all workers answer, so a single stuck
	// worker stalls the cluster (the failure mode the timeout exists to
	// prevent; see the robustness tests).
	OpTimeout time.Duration
	// Client is the base configuration for the per-worker connections.
	// SyncDiffs is forced on and OnConnect is used internally; an unset
	// ReconnectWait defaults to 3s (not the client package's 30s) so a
	// dead worker fails operations quickly instead of holding the
	// fan-out at the timeout bound for every tick.
	Client client.Options
	// Logf, when set, receives worker lifecycle diagnostics (desync,
	// re-sync, reconnect). The coordinator is silent without it.
	Logf func(format string, args ...any)
}

func (o *Options) defaults() {
	if o.OpTimeout == 0 {
		o.OpTimeout = 5 * time.Second
	}
	if o.Client.ReconnectWait <= 0 {
		o.Client.ReconnectWait = 3 * time.Second
	}
}

// Coordinator shards continuous queries across worker servers and merges
// their diff streams back into one. It implements server.Backend; create
// one with New and host it with internal/server.
type Coordinator struct {
	opts    Options
	workers []*worker
	met     *coordMetrics

	// resyncCh carries finished background re-syncs back to the
	// single-threaded coordinator loop, which drains it at the start of
	// every mutating operation.
	resyncCh chan resyncResult

	// gen counts mutating operations. A re-sync snapshot stamped with an
	// older gen is stale — the worker it rebuilt missed operations — and
	// is discarded.
	gen uint64

	// skipGenCheck disables the staleness check above. It exists only as
	// the chaos suite's negative control — a seeded bug proving the
	// harness detects the divergence the check prevents. Never set in
	// production paths.
	skipGenCheck bool

	// The current operation's footprint, stamped by each mutating
	// operation before its fan-out: the object and query ids it touches
	// (opFull for Bootstrap/Reset, which touch everything). desync
	// charges it to a worker's dirty sets so an incremental re-sync can
	// replay exactly what was missed or half-applied.
	opObjIDs   []model.ObjectID
	opQueryIDs []model.QueryID
	opFull     bool

	// The state mirror.
	objs    map[model.ObjectID]geom.Point
	defs    map[model.QueryID]wire.Register
	results map[model.QueryID][]model.Neighbor
	changed []model.QueryID
	invalid int64

	// Streaming plumbing, mirroring cpm.Monitor's.
	hub     *notify.Hub
	keep    bool
	pending []model.ResultDiff
	closed  bool

	// Cycle accounting (Tick fan-out wall time).
	cycles      int64
	lastCycleNs int64
	// lastPhases is the fleet's critical-path phase breakdown from the
	// last Tick (per-field max over the workers' reported phases).
	lastPhases model.PhaseNanos

	// opSpan is the hosting server's span for the operation in flight
	// (SetOpSpan; nil when the op is untraced). Written only by the
	// single-threaded coordinator loop; fan-out goroutines receive it by
	// value through their closures.
	opSpan *tracing.Span

	// Cached fleet-stats aggregation (stats.go). Guarded by its own
	// mutex: reads arrive on the hosting server's scrape path, which the
	// coordinator contract does not otherwise serialize against.
	statsMu    sync.Mutex
	statsAt    time.Time
	statsCache fleetStats
}

// New dials every worker, wipes any state it may hold (Reset) and returns
// a coordinator ready to serve. It fails if any worker is unreachable:
// a cluster must start whole, even though it degrades gracefully later.
func New(opts Options) (*Coordinator, error) {
	if len(opts.Workers) == 0 {
		return nil, errors.New("cluster: no workers")
	}
	opts.defaults()
	c := &Coordinator{
		opts:     opts,
		met:      newCoordMetrics(len(opts.Workers)),
		resyncCh: make(chan resyncResult, 8*len(opts.Workers)),
		objs:     make(map[model.ObjectID]geom.Point),
		defs:     make(map[model.QueryID]wire.Register),
		results:  make(map[model.QueryID][]model.Neighbor),
	}
	for i, addr := range opts.Workers {
		w := &worker{
			idx:        i,
			addr:       addr,
			rtt:        c.met.reg.Histogram(fmt.Sprintf("cpm_coord_worker%d_rtt_ns", i)),
			reconnects: c.met.reg.Counter(fmt.Sprintf("cpm_coord_worker%d_reconnects_total", i)),
			healthG:    c.met.reg.Gauge(fmt.Sprintf("cpm_coord_worker%d_health", i)),
		}
		copts := opts.Client
		copts.SyncDiffs = true
		// Ask for the trace extension: trace context flows downstream and
		// tick-phase breakdowns flow back. Degrades silently against
		// workers running a pre-extension build.
		copts.Trace = true
		// Coordinator↔worker links cross real networks; CRC trailers turn
		// silent in-flight corruption into loud request failures the
		// desync/re-sync machinery already knows how to absorb.
		copts.Checksum = true
		copts.OnConnect = func(instance uint64) {
			if w.seen.Swap(instance) != 0 {
				w.reconnects.Inc()
			}
		}
		cl, err := client.Dial(addr, copts)
		if err != nil {
			for _, prev := range c.workers {
				prev.cl.Close()
			}
			return nil, fmt.Errorf("cluster: worker %d (%s): %w", i, addr, err)
		}
		w.cl = cl
		c.workers = append(c.workers, w)
	}
	// Start from a known-clean fleet: a worker recycled from an earlier
	// run must not leak queries into the merged stream.
	for _, w := range c.workers {
		if err := w.cl.Reset(); err != nil {
			c.Close()
			return nil, fmt.Errorf("cluster: reset worker %d (%s): %w", w.idx, w.addr, err)
		}
		w.instance = w.seen.Load()
		w.synced = true
	}
	c.met.workers.Set(int64(len(c.workers)))
	c.met.workersSynced.Set(int64(len(c.workers)))
	return c, nil
}

// owner returns the index of the worker a query lives on — the same
// multiplicative hash internal/shard partitions with, so a workload's
// balance characteristics carry over between in-process shards and
// cluster workers.
func (c *Coordinator) owner(id model.QueryID) int {
	return int((uint32(id) * 0x9E3779B1) % uint32(len(c.workers)))
}

// WorkerCount returns the (fixed) number of workers.
func (c *Coordinator) WorkerCount() int { return len(c.workers) }

// SyncedWorkers returns how many workers currently hold exact state. A
// value below WorkerCount means some partition's diffs are gapping and
// its results are served from the (possibly stale) mirror.
func (c *Coordinator) SyncedWorkers() int {
	n := 0
	for _, w := range c.workers {
		if w.synced {
			n++
		}
	}
	return n
}

// Metrics returns the coordinator's own registry (cpm_coord_* names; see
// docs/CLUSTER.md). The upstream server's registry is separate.
func (c *Coordinator) Metrics() *metrics.Registry { return c.met.reg }

// Close shuts streaming down and closes every worker connection. Worker
// state is left in place (the processes are owned by the operator).
func (c *Coordinator) Close() {
	c.closed = true
	if c.hub != nil {
		c.hub.Close()
		c.hub = nil
	}
	for _, w := range c.workers {
		if w.cl != nil {
			w.cl.Close()
		}
	}
}

func (c *Coordinator) logf(format string, args ...any) {
	if c.opts.Logf != nil {
		c.opts.Logf(format, args...)
	}
}

// ---- Backend: mutating operations ----------------------------------------

// Bootstrap loads the initial object population into the mirror and every
// worker. Call once, before registering queries, like cpm.Monitor's.
func (c *Coordinator) Bootstrap(objs map[model.ObjectID]geom.Point) {
	c.beginOp()
	c.opFull = true
	c.chargeDesynced()
	c.objs = maps.Clone(objs)
	if c.objs == nil {
		c.objs = make(map[model.ObjectID]geom.Point)
	}
	ctx := c.opSpan.Context()
	c.fanOut(c.synced(), true, func(w *worker) ([]model.ResultDiff, error) {
		stampTrace(ctx, w)
		return nil, w.cl.Bootstrap(objs)
	})
	c.finishOp(nil)
}

// Tick runs one processing cycle: the object updates fan out to every
// worker, each query update is routed to its owner, and the per-worker
// diffs merge back in ascending query id order.
func (c *Coordinator) Tick(b model.Batch) {
	start := time.Now()
	c.beginOp()
	c.stampBatch(b)
	c.chargeDesynced()
	c.applyBatchToMirror(b)
	per := c.partition(b)
	sp := c.opSpan
	ctx := sp.Context()
	// Per-worker phase reports land here from the fan-out goroutines; the
	// mutex (not plain indexed writes) keeps the read below safe against a
	// timed-out straggler still finishing its call. The spans themselves
	// are laid after the fan-out, on this thread, while sp is still live —
	// a straggler completing after sp.Finish would otherwise touch a
	// recycled span.
	var phMu sync.Mutex
	phases := make([]model.PhaseNanos, len(c.workers))
	starts := make([]time.Time, len(c.workers))
	diffs, _ := c.fanOut(c.synced(), true, func(w *worker) ([]model.ResultDiff, error) {
		stampTrace(ctx, w)
		t0 := time.Now()
		d, ph, err := w.cl.TickDiffsPhases(per[w.idx])
		if err == nil {
			phMu.Lock()
			phases[w.idx] = ph
			starts[w.idx] = t0
			phMu.Unlock()
		}
		return d, err
	})
	var agg model.PhaseNanos
	phMu.Lock()
	for i, ph := range phases {
		agg.MaxOf(ph)
		if !starts[i].IsZero() {
			workerPhaseSpans(sp, i, starts[i], ph)
		}
	}
	phMu.Unlock()
	c.lastPhases = agg
	msp := sp.Child("merge")
	c.finishOp(diffs)
	msp.Finish()
	c.cycles++
	c.lastCycleNs = time.Since(start).Nanoseconds()
}

// RegisterQuery installs a conventional k-NN query on its owner worker.
func (c *Coordinator) RegisterQuery(id model.QueryID, q geom.Point, k int) error {
	return c.registerDef(wire.Register{ID: id, Kind: wire.KindPoint, K: k, Points: []geom.Point{q}})
}

// RegisterAggQuery installs an aggregate k-NN query on its owner worker.
func (c *Coordinator) RegisterAggQuery(id model.QueryID, pts []geom.Point, k int, agg geom.Agg) error {
	return c.registerDef(wire.Register{ID: id, Kind: wire.KindAgg, K: k, Agg: agg, Points: pts})
}

// RegisterConstrainedQuery installs a constrained k-NN query on its owner
// worker.
func (c *Coordinator) RegisterConstrainedQuery(id model.QueryID, q geom.Point, k int, region geom.Rect) error {
	return c.registerDef(wire.Register{ID: id, Kind: wire.KindConstrained, K: k, Points: []geom.Point{q}, Region: region})
}

// RegisterRangeQuery installs a continuous range query on its owner
// worker.
func (c *Coordinator) RegisterRangeQuery(id model.QueryID, center geom.Point, radius float64) error {
	return c.registerDef(wire.Register{ID: id, Kind: wire.KindRange, Points: []geom.Point{center}, Radius: radius})
}

// registerDef is the shared registration path. While the owner is out of
// sync the registration is absorbed into the mirror (and installed on the
// worker by the next accepted re-sync); subscribers see a gap for the
// query instead of a DiffInstall, and re-converge from the re-sync's
// synthetic full-result diff.
func (c *Coordinator) registerDef(def wire.Register) error {
	c.beginOp()
	defer c.spawnResyncs()
	if _, ok := c.defs[def.ID]; ok {
		return fmt.Errorf("cluster: query %d already registered", def.ID)
	}
	c.opQueryIDs = []model.QueryID{def.ID}
	w := c.workers[c.owner(def.ID)]
	ctx := c.opSpan.Context()
	var diffs []model.ResultDiff
	if w.synced {
		var appErr error
		diffs, appErr = c.fanOut([]*worker{w}, false, func(w *worker) ([]model.ResultDiff, error) {
			stampTrace(ctx, w)
			return w.cl.RegisterDefDiffs(def)
		})
		if appErr != nil {
			return appErr
		}
	} else {
		c.markDirty(w)
		c.gapQueries(def.ID)
	}
	c.defs[def.ID] = cloneDef(def)
	c.finishDiffs(diffs)
	return nil
}

// MoveQuery relocates an installed query on its owner worker.
func (c *Coordinator) MoveQuery(id model.QueryID, to ...geom.Point) error {
	c.beginOp()
	defer c.spawnResyncs()
	def, ok := c.defs[id]
	if !ok {
		return fmt.Errorf("cluster: move of unknown query %d", id)
	}
	if len(to) != len(def.Points) {
		return fmt.Errorf("cluster: query %d moves with %d points, got %d", id, len(def.Points), len(to))
	}
	c.opQueryIDs = []model.QueryID{id}
	w := c.workers[c.owner(id)]
	ctx := c.opSpan.Context()
	var diffs []model.ResultDiff
	if w.synced {
		var appErr error
		diffs, appErr = c.fanOut([]*worker{w}, false, func(w *worker) ([]model.ResultDiff, error) {
			stampTrace(ctx, w)
			return w.cl.MoveQueryDiffs(id, to...)
		})
		if appErr != nil {
			return appErr
		}
	} else {
		c.markDirty(w)
		c.gapQueries(id)
	}
	def.Points = append([]geom.Point(nil), to...)
	c.defs[id] = def
	c.finishDiffs(diffs)
	return nil
}

// RemoveQuery uninstalls a query. Unknown ids are a no-op, like the
// monitor's. While the owner is out of sync the removal is absorbed into
// the mirror and a synthetic DiffRemove keeps subscribers exact.
func (c *Coordinator) RemoveQuery(id model.QueryID) {
	c.beginOp()
	defer c.spawnResyncs()
	if _, ok := c.defs[id]; !ok {
		return
	}
	c.opQueryIDs = []model.QueryID{id}
	w := c.workers[c.owner(id)]
	ctx := c.opSpan.Context()
	var diffs []model.ResultDiff
	if w.synced {
		diffs, _ = c.fanOut([]*worker{w}, false, func(w *worker) ([]model.ResultDiff, error) {
			stampTrace(ctx, w)
			return w.cl.RemoveQueryDiffs(id)
		})
	} else {
		c.markDirty(w)
	}
	if len(diffs) == 0 {
		diffs = []model.ResultDiff{{Query: id, Kind: model.DiffRemove, Exited: resultIDs(c.results[id])}}
	}
	delete(c.defs, id)
	c.finishDiffs(diffs)
}

// Reset wipes the whole cluster back to empty: every worker is reset,
// the mirror cleared, and subscribers receive the terminal DiffRemove of
// every installed query, matching cpm.Monitor.Reset.
func (c *Coordinator) Reset() {
	c.beginOp()
	c.opFull = true
	c.chargeDesynced()
	ctx := c.opSpan.Context()
	c.fanOut(c.synced(), true, func(w *worker) ([]model.ResultDiff, error) {
		stampTrace(ctx, w)
		return nil, w.cl.Reset()
	})
	removes := make([]model.ResultDiff, 0, len(c.defs))
	for _, id := range sortedIDs(c.defs) {
		removes = append(removes, model.ResultDiff{Query: id, Kind: model.DiffRemove, Exited: resultIDs(c.results[id])})
	}
	c.objs = make(map[model.ObjectID]geom.Point)
	c.defs = make(map[model.QueryID]wire.Register)
	c.results = make(map[model.QueryID][]model.Neighbor)
	c.finishOp(removes)
}

// ---- Backend: reads, served from the mirror ------------------------------

// Result returns a query's current result from the mirror — no network
// round trip. While the owner worker is out of sync this is the last
// exact value (the staleness window the Gap events delimit).
func (c *Coordinator) Result(id model.QueryID) []model.Neighbor {
	r, ok := c.results[id]
	if !ok {
		return nil
	}
	return append([]model.Neighbor(nil), r...)
}

// Snapshot captures the mirror's full results, matching
// cpm.Monitor.Snapshot's contract (no ids = every installed query, in
// ascending id order; unknown ids come back Live false).
func (c *Coordinator) Snapshot(ids ...model.QueryID) []cpm.QuerySnapshot {
	if len(ids) == 0 {
		ids = sortedIDs(c.defs)
	}
	out := make([]cpm.QuerySnapshot, len(ids))
	for i, id := range ids {
		_, live := c.defs[id]
		out[i] = cpm.QuerySnapshot{Query: id, Live: live, Result: c.Result(id)}
	}
	return out
}

// ObjectPosition returns an object's position from the mirror (the raw
// reported position; workers clamp onto their workspace at storage time).
func (c *Coordinator) ObjectPosition(id model.ObjectID) (geom.Point, bool) {
	p, ok := c.objs[id]
	return p, ok
}

// ObjectCount returns the mirrored object population size.
func (c *Coordinator) ObjectCount() int { return len(c.objs) }

// QueryCount returns the number of installed queries.
func (c *Coordinator) QueryCount() int { return len(c.defs) }

// ChangedQueries returns the ids whose results the last operation
// changed, in ascending order (the merged diff set; queries owned by an
// out-of-sync worker are covered by Gap events instead).
func (c *Coordinator) ChangedQueries() []model.QueryID {
	return append([]model.QueryID(nil), c.changed...)
}

// Cycles returns how many Tick fan-outs the coordinator has run.
func (c *Coordinator) Cycles() int64 { return c.cycles }

// LastCycleNanos returns the wall time of the most recent Tick fan-out.
func (c *Coordinator) LastCycleNanos() int64 { return c.lastCycleNs }

// GridSize reports the largest grid any worker currently runs (each
// worker sizes its own grid; the maximum is the honest single number),
// aggregated over the wire Stats frames with a short cache — see
// fleetStats in stats.go.
func (c *Coordinator) GridSize() int { return c.fleetStats().grid }

// Rebalances reports the fleet-wide total of online grid rebalances,
// summed across workers.
func (c *Coordinator) Rebalances() int64 { return c.fleetStats().rebalances }

// Stats reports the fleet-wide engine work counters — cell accesses,
// objects scanned, heap operations and friends, summed across workers.
// The paper's work metrics therefore stay observable on a coordinator's
// metrics page, not just per worker.
func (c *Coordinator) Stats() model.Stats { return c.fleetStats().stats }

// WorkerHealth returns worker i's health state (see Health).
func (c *Coordinator) WorkerHealth(i int) Health { return c.workers[i].health }

// WorkerSynced reports whether worker i currently holds exact state.
func (c *Coordinator) WorkerSynced(i int) bool { return c.workers[i].synced }

// InvalidUpdates counts stream elements the mirror rejected under the
// engine's own rules (unknown ids, duplicate inserts, non-finite
// positions) — each worker additionally counts its own.
func (c *Coordinator) InvalidUpdates() int64 { return c.invalid }

// ---- Backend: streaming ---------------------------------------------------

// SubscribeWith subscribes to the merged diff stream, exactly like
// cpm.Monitor.SubscribeWith.
func (c *Coordinator) SubscribeWith(opts cpm.SubscribeOptions, ids ...model.QueryID) *cpm.Subscription {
	if c.closed {
		return notify.Closed()
	}
	if c.hub == nil {
		c.hub = notify.NewHub()
	}
	return c.hub.Subscribe(opts, ids...)
}

// KeepDiffs toggles pull-based collection of the merged stream for
// TakeDiffs, mirroring cpm.Monitor.KeepDiffs — so a coordinator can
// itself be served in sync-diffs mode.
func (c *Coordinator) KeepDiffs(on bool) {
	c.keep = on
	if !on {
		c.pending = nil
	}
}

// TakeDiffs returns the merged diffs collected since the last TakeDiffs
// and clears the buffer. Nil unless KeepDiffs is on.
func (c *Coordinator) TakeDiffs() []model.ResultDiff {
	out := c.pending
	c.pending = nil
	return out
}

// publish hands one operation's merged diffs to the hub and, with
// KeepDiffs on, the pull buffer.
func (c *Coordinator) publish(diffs []model.ResultDiff) {
	if len(diffs) == 0 {
		return
	}
	if c.keep {
		c.pending = append(c.pending, diffs...)
	}
	if c.hub != nil {
		c.hub.Publish(diffs)
	}
}

// ---- Mirror maintenance ---------------------------------------------------

// stampBatch records one tick's footprint — every object and query id it
// touches — for dirty tracking (see markDirty).
func (c *Coordinator) stampBatch(b model.Batch) {
	for _, u := range b.Objects {
		c.opObjIDs = append(c.opObjIDs, u.ID)
	}
	for _, qu := range b.Queries {
		c.opQueryIDs = append(c.opQueryIDs, qu.ID)
	}
}

// applyBatchToMirror applies one tick's updates to the object mirror and
// the definition mirror, with the engine's invalid-update semantics
// (internal/core/update.go): a re-sync later rebuilds a worker from this
// state, so it must track what the workers actually stored.
func (c *Coordinator) applyBatchToMirror(b model.Batch) {
	for _, u := range b.Objects {
		switch u.Kind {
		case model.Move:
			if !finitePoint(u.New) {
				c.invalid++
				continue
			}
			if _, ok := c.objs[u.ID]; !ok {
				c.invalid++
				continue
			}
			c.objs[u.ID] = u.New
		case model.Insert:
			if !finitePoint(u.New) {
				c.invalid++
				continue
			}
			if _, ok := c.objs[u.ID]; ok {
				c.invalid++
				continue
			}
			c.objs[u.ID] = u.New
		case model.Delete:
			if _, ok := c.objs[u.ID]; !ok {
				c.invalid++
				continue
			}
			delete(c.objs, u.ID)
		default:
			c.invalid++
		}
	}
	for _, qu := range b.Queries {
		switch qu.Kind {
		case model.QueryMove:
			if def, ok := c.defs[qu.ID]; ok && len(qu.NewPoints) == len(def.Points) {
				def.Points = append([]geom.Point(nil), qu.NewPoints...)
				c.defs[qu.ID] = def
			}
		case model.QueryTerminate:
			delete(c.defs, qu.ID)
		}
	}
}

// partition splits a tick batch into per-worker batches: all object
// updates to everyone, each query update to its owner — internal/shard's
// routing, over the wire.
func (c *Coordinator) partition(b model.Batch) []model.Batch {
	per := make([]model.Batch, len(c.workers))
	for i := range per {
		per[i].Objects = b.Objects
	}
	for _, qu := range b.Queries {
		o := c.owner(qu.ID)
		per[o].Queries = append(per[o].Queries, qu)
	}
	return per
}

// finishOp folds one operation's merged diffs into the results mirror,
// records the changed set and publishes — then starts re-syncs for any
// worker the operation lost.
func (c *Coordinator) finishOp(diffs []model.ResultDiff) {
	c.finishDiffs(diffs)
	c.spawnResyncs()
}

// finishDiffs is finishOp without the re-sync spawn (for call sites that
// defer it).
func (c *Coordinator) finishDiffs(diffs []model.ResultDiff) {
	for _, d := range diffs {
		if d.Kind == model.DiffRemove {
			delete(c.results, d.Query)
		} else {
			c.results[d.Query] = d.Result
		}
	}
	c.changed = c.changed[:0]
	for _, d := range diffs {
		c.changed = append(c.changed, d.Query)
	}
	c.publish(diffs)
}

// ---- Helpers --------------------------------------------------------------

func finitePoint(p geom.Point) bool {
	return !math.IsNaN(p.X) && !math.IsInf(p.X, 0) && !math.IsNaN(p.Y) && !math.IsInf(p.Y, 0)
}

func cloneDef(def wire.Register) wire.Register {
	def.Points = append([]geom.Point(nil), def.Points...)
	return def
}

func sortedIDs(defs map[model.QueryID]wire.Register) []model.QueryID {
	ids := make([]model.QueryID, 0, len(defs))
	for id := range defs {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return ids
}

func resultIDs(r []model.Neighbor) []model.ObjectID {
	if len(r) == 0 {
		return nil
	}
	ids := make([]model.ObjectID, len(r))
	for i, n := range r {
		ids[i] = n.ID
	}
	return ids
}

func neighborsEqual(a, b []model.Neighbor) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
