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
// across them by the hash internal/shard uses for its in-process shards,
// model.Owner: owner(q) = (uint32(q) · 0x9E3779B1) mod N. Every
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
// per-worker answers by ascending query id (model.SortByQuery, the merge
// internal/shard runs over its shards) — so the merged stream is
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
// sending it operations and advances its subscribers' sequence numbers
// past the lost diffs via the notify hub's Gap (so downstream consumers
// see an explicit Gap frame, never a silent hole). The next mutating
// operation that finds the worker's link up and free re-syncs it before
// it runs, waiting for the rebuild: Reset, Bootstrap of the full object
// population, re-registration of its owned queries, all from the mirror,
// which is exact between two operations. The rebuild counts only if the
// worker's server instance (from the Welcome frame) did not change
// mid-rebuild; otherwise a later operation retries. The rebuilt worker
// takes part in the operation that rebuilt it, and the coordinator
// publishes one synthetic DiffUpdate, carrying the full current result,
// for each owned query whose result drifted while the worker was away,
// so subscribers re-converge from the very next event after the gap. The
// operation that carries a rejoin pays for the rebuild (about 28 ms at
// 10 000 objects and 500 queries over two workers).
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
	"sort"
	"sync"
	"time"

	"cpm"
	"cpm/client"
	"cpm/internal/core"
	"cpm/internal/geom"
	"cpm/internal/grid"
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
	// marked out of sync and re-synced at the start of a later operation;
	// the operation itself completes without it. The re-syncs an operation
	// starts with are bounded by the same deadline, so one operation waits
	// at most twice OpTimeout. Negative disables the bound — every
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
	// single-threaded coordinator loop; fan-out goroutines receive its
	// context by value with their requests.
	opSpan *tracing.Span

	// Fan-out state the coordinator loop reuses from one operation to the
	// next: the operations' and rebuilds' fans, the synced-worker list
	// and the merged diffs. Nothing here is read by a worker's goroutine
	// except what a request carries.
	ops      *fan[opArgs, fanResult]
	rebuilds *fan[[]resyncSnap, resyncResult]
	targets  []*worker
	merged   []model.ResultDiff

	// Cached fleet-stats aggregation (stats.go). Guarded by its own
	// mutex: reads arrive on the hosting server's scrape path, which the
	// coordinator contract does not otherwise serialize against.
	statsMu    sync.Mutex
	statsAt    time.Time
	statsCache fleetStats
	polls      *fan[struct{}, []wire.Stat]
}

// New dials every worker, wipes any state it may hold (Reset) and returns
// a coordinator ready to serve. It fails if any worker is unreachable:
// a cluster must start whole, even though it degrades gracefully later.
func New(opts Options) (*Coordinator, error) {
	if len(opts.Workers) == 0 {
		return nil, errors.New("cluster: no workers")
	}
	opts.defaults()
	c := newCoordinator(opts, len(opts.Workers))
	for i, addr := range opts.Workers {
		w := &worker{
			idx:         i,
			addr:        addr,
			span:        fmt.Sprintf("worker%d", i),
			timeoutSpan: fmt.Sprintf("worker%d/timeout", i),
			resyncSpan:  fmt.Sprintf("worker%d/resync", i),
			rtt:         c.met.reg.Histogram(fmt.Sprintf("cpm_coord_worker%d_rtt_ns", i)),
			reconnects:  c.met.reg.Counter(fmt.Sprintf("cpm_coord_worker%d_reconnects_total", i)),
			healthG:     c.met.reg.Gauge(fmt.Sprintf("cpm_coord_worker%d_health", i)),
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

// newCoordinator returns a coordinator for n workers with an empty mirror
// and no worker connections yet.
func newCoordinator(opts Options, n int) *Coordinator {
	return &Coordinator{
		opts:     opts,
		met:      newCoordMetrics(n),
		objs:     make(map[model.ObjectID]geom.Point),
		defs:     make(map[model.QueryID]wire.Register),
		results:  make(map[model.QueryID][]model.Neighbor),
		ops:      newFan(n, runOp),
		rebuilds: newFan(n, rebuild),
		polls:    newFan(n, pollStats),
	}
}

// owner returns the index of the worker a query lives on — the same
// multiplicative hash internal/shard partitions with, so a workload's
// balance characteristics carry over between in-process shards and
// cluster workers.
func (c *Coordinator) owner(id model.QueryID) int { return model.Owner(id, len(c.workers)) }

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

// Close shuts streaming down, closes every worker connection and waits
// for the fan-out goroutines, whose calls fail once their connections
// close. Worker state is left in place (the processes are owned by the
// operator).
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
	c.ops.close()
	c.rebuilds.close()
	c.statsMu.Lock()
	c.polls.close()
	c.statsMu.Unlock()
}

func (c *Coordinator) logf(format string, args ...any) {
	if c.opts.Logf != nil {
		c.opts.Logf(format, args...)
	}
}

// ---- Backend: mutating operations ----------------------------------------

// Bootstrap loads the initial object population into the mirror and every
// worker. Call once, before registering queries, like cpm.Monitor's: a
// non-finite position is dropped from the mirror and counted in
// InvalidUpdates, as each worker drops it. On a coordinator that holds
// objects it panics as a monitor does, before it touches the mirror or any
// worker: every worker would refuse the call and fall out of sync.
func (c *Coordinator) Bootstrap(objs map[model.ObjectID]geom.Point) {
	if len(c.objs) > 0 {
		panic("cluster: Bootstrap on a non-empty coordinator")
	}
	c.beginOp()
	c.objs = maps.Clone(objs)
	if c.objs == nil {
		c.objs = make(map[model.ObjectID]geom.Point)
	}
	for id, p := range c.objs {
		if !grid.Admits(model.InsertUpdate(id, p), false) {
			delete(c.objs, id)
			c.invalid++
		}
	}
	c.fanOut(c.synced(), true, opArgs{f: bootstrapWorker, objs: objs})
	c.finishDiffs(nil)
}

// bootstrapWorker is a Bootstrap's call on one worker.
func bootstrapWorker(w *worker, a opArgs) ([]model.ResultDiff, model.PhaseNanos, error) {
	return noPhases(nil, w.cl.Bootstrap(a.objs))
}

// Tick runs one processing cycle: the object updates fan out to every
// worker, each query update is routed to its owner, and the per-worker
// diffs merge back in ascending query id order.
func (c *Coordinator) Tick(b model.Batch) {
	start := time.Now()
	c.beginOp()
	c.applyBatchToMirror(b)
	targets := c.synced()
	c.partition(b, targets)
	diffs, _ := c.fanOut(targets, true, opArgs{f: tickWorker})
	// The phase spans are laid here, on the loop, while sp is still live:
	// a straggler completing after sp.Finish would otherwise touch a
	// recycled span.
	sp := c.opSpan
	var agg model.PhaseNanos
	for _, w := range targets {
		agg.MaxOf(w.phases)
		if !w.phasesAt.IsZero() {
			workerPhaseSpans(sp, w.idx, w.phasesAt, w.phases)
		}
	}
	c.lastPhases = agg
	msp := sp.Child("merge")
	c.finishDiffs(diffs)
	msp.Finish()
	c.cycles++
	c.lastCycleNs = time.Since(start).Nanoseconds()
}

// tickWorker is a Tick's call on one worker: its share of the batch.
func tickWorker(w *worker, _ opArgs) ([]model.ResultDiff, model.PhaseNanos, error) {
	return w.cl.TickDiffsPhases(w.batch)
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
// worker by the re-sync of a later operation); subscribers see a gap for
// the query instead of a DiffInstall, and re-converge from the re-sync's
// synthetic full-result diff. Either way the definition is first held to
// the worker's register-time rule, so the mirror never stores one that a
// re-sync could not install.
func (c *Coordinator) registerDef(def wire.Register) error {
	c.beginOp()
	if _, ok := c.defs[def.ID]; ok {
		return fmt.Errorf("cluster: query %d already registered", def.ID)
	}
	if err := validateDef(def); err != nil {
		return fmt.Errorf("cluster: query %d: %w", def.ID, err)
	}
	w := c.workers[c.owner(def.ID)]
	var diffs []model.ResultDiff
	if w.synced {
		var appErr error
		diffs, appErr = c.fanOut([]*worker{w}, false, opArgs{f: registerWorker, def: def})
		if appErr != nil {
			return appErr
		}
	} else {
		c.gapQueries(def.ID)
	}
	c.defs[def.ID] = cloneDef(def)
	c.finishDiffs(diffs)
	return nil
}

// registerWorker is a registration's call on its owner worker.
func registerWorker(w *worker, a opArgs) ([]model.ResultDiff, model.PhaseNanos, error) {
	return noPhases(w.cl.RegisterDefDiffs(a.def))
}

// validateDef applies the rule a worker applies to a registration: the
// server's point count per kind, then core's register-time checks.
func validateDef(def wire.Register) error {
	switch def.Kind {
	case wire.KindAgg:
		return core.AggQuery(def.Points, def.K, def.Agg).Validate()
	case wire.KindPoint, wire.KindConstrained, wire.KindRange:
		if len(def.Points) != 1 {
			return fmt.Errorf("query of kind %d has %d points", def.Kind, len(def.Points))
		}
	default:
		return fmt.Errorf("unknown query kind %d", def.Kind)
	}
	if def.Kind == wire.KindRange {
		return core.ValidateRange(def.Points[0], def.Radius)
	}
	d := core.PointQuery(def.Points[0], def.K)
	if def.Kind == wire.KindConstrained {
		d.Constraint = &def.Region
	}
	return d.Validate()
}

// MoveQuery relocates an installed query on its owner worker.
func (c *Coordinator) MoveQuery(id model.QueryID, to ...geom.Point) error {
	c.beginOp()
	def, ok := c.defs[id]
	if !ok {
		return fmt.Errorf("cluster: move of unknown query %d", id)
	}
	if !core.ValidMove(def.Points, to) {
		return fmt.Errorf("cluster: invalid move of query %d (%d points) to %v", id, len(def.Points), to)
	}
	w := c.workers[c.owner(id)]
	var diffs []model.ResultDiff
	if w.synced {
		var appErr error
		diffs, appErr = c.fanOut([]*worker{w}, false, opArgs{f: moveWorker, id: id, to: to})
		if appErr != nil {
			return appErr
		}
	} else {
		c.gapQueries(id)
	}
	copy(def.Points, to) // in place: the mirror owns its buffers
	c.finishDiffs(diffs)
	return nil
}

// moveWorker is a query move's call on its owner worker.
func moveWorker(w *worker, a opArgs) ([]model.ResultDiff, model.PhaseNanos, error) {
	return noPhases(w.cl.MoveQueryDiffs(a.id, a.to...))
}

// RemoveQuery uninstalls a query. Unknown ids are a no-op, like the
// monitor's. While the owner is out of sync the removal is absorbed into
// the mirror and a synthetic DiffRemove keeps subscribers exact.
func (c *Coordinator) RemoveQuery(id model.QueryID) {
	c.beginOp()
	if _, ok := c.defs[id]; !ok {
		return
	}
	w := c.workers[c.owner(id)]
	var diffs []model.ResultDiff
	if w.synced {
		diffs, _ = c.fanOut([]*worker{w}, false, opArgs{f: removeWorker, id: id})
	}
	if len(diffs) == 0 {
		diffs = []model.ResultDiff{{Query: id, Kind: model.DiffRemove, Exited: resultIDs(c.results[id])}}
	}
	delete(c.defs, id)
	c.finishDiffs(diffs)
}

// removeWorker is a removal's call on its owner worker.
func removeWorker(w *worker, a opArgs) ([]model.ResultDiff, model.PhaseNanos, error) {
	return noPhases(w.cl.RemoveQueryDiffs(a.id))
}

// Reset wipes the whole cluster back to empty: every worker is reset,
// the mirror cleared, and subscribers receive the terminal DiffRemove of
// every installed query, matching cpm.Monitor.Reset.
func (c *Coordinator) Reset() {
	c.beginOp()
	c.fanOut(c.synced(), true, opArgs{f: resetWorker})
	removes := make([]model.ResultDiff, 0, len(c.defs))
	for _, id := range sortedIDs(c.defs) {
		removes = append(removes, model.ResultDiff{Query: id, Kind: model.DiffRemove, Exited: resultIDs(c.results[id])})
	}
	c.objs = make(map[model.ObjectID]geom.Point)
	c.defs = make(map[model.QueryID]wire.Register)
	c.results = make(map[model.QueryID][]model.Neighbor)
	c.finishDiffs(removes)
}

// resetWorker is a Reset's call on one worker.
func resetWorker(w *worker, _ opArgs) ([]model.ResultDiff, model.PhaseNanos, error) {
	return noPhases(nil, w.cl.Reset())
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
// engine's own rules — object updates with unknown ids, duplicate inserts
// or non-finite positions, query moves and terminations of unknown
// queries, moves that core.ValidMove refuses, unknown kinds — the same
// elements cpm.Monitor.InvalidUpdates counts. Each worker additionally
// counts its own.
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

// applyBatchToMirror applies one tick's updates to the object mirror and
// the definition mirror, with the workers' invalid-update rules
// (grid.Admits, core.ValidMove): a re-sync later rebuilds a worker from
// this state, so it must track what the workers actually stored.
func (c *Coordinator) applyBatchToMirror(b model.Batch) {
	for _, u := range b.Objects {
		_, live := c.objs[u.ID]
		switch {
		case !grid.Admits(u, live):
			c.invalid++
		case u.Kind == model.Delete:
			delete(c.objs, u.ID)
		default:
			c.objs[u.ID] = u.New
		}
	}
	for _, qu := range b.Queries {
		switch qu.Kind {
		case model.QueryMove:
			def, ok := c.defs[qu.ID]
			if !ok || !core.ValidMove(def.Points, qu.NewPoints) {
				c.invalid++
				continue
			}
			copy(def.Points, qu.NewPoints) // the mirror owns its buffers
		case model.QueryTerminate:
			if _, ok := c.defs[qu.ID]; !ok {
				c.invalid++
				continue
			}
			delete(c.defs, qu.ID)
		case model.QueryInstall:
			// A no-op in the engine too: installation goes through Register.
		default:
			c.invalid++
		}
	}
}

// partition splits a tick batch into the batches of the synced targets:
// all object updates to each, each query update to its owner —
// internal/shard's routing, over the wire. An out-of-sync worker's batch
// is left alone: a call abandoned at the deadline may still read it.
func (c *Coordinator) partition(b model.Batch, targets []*worker) {
	for _, w := range targets {
		w.batch.Objects = b.Objects
		w.batch.Queries = w.batch.Queries[:0]
	}
	for _, qu := range b.Queries {
		if w := c.workers[c.owner(qu.ID)]; w.synced {
			w.batch.Queries = append(w.batch.Queries, qu)
		}
	}
}

// finishDiffs folds one operation's merged diffs into the results mirror,
// records the changed set and publishes them.
func (c *Coordinator) finishDiffs(diffs []model.ResultDiff) {
	for _, d := range diffs {
		if d.Kind == model.DiffRemove {
			delete(c.results, d.Query)
		} else {
			c.results[d.Query] = append(c.results[d.Query][:0], d.Result...)
		}
	}
	c.changed = c.changed[:0]
	for _, d := range diffs {
		c.changed = append(c.changed, d.Query)
	}
	c.publish(diffs)
}

// ---- Helpers --------------------------------------------------------------

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
