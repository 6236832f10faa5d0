// Package cpm is a from-scratch Go implementation of Conceptual
// Partitioning Monitoring (CPM) — the continuous k nearest neighbor
// monitoring method of Mouratidis, Hadjieleftheriou and Papadias, SIGMOD
// 2005 — together with the grid substrate, the YPK-CNN and SEA-CNN
// baselines it was evaluated against, an aggregate/constrained NN
// extension, and a Brinkhoff-style network workload generator.
//
// The central type is Monitor: it owns an in-memory grid index over moving
// objects and keeps the results of any number of continuous queries exact
// while object and query location updates stream in.
//
//	m := cpm.NewMonitor(cpm.Options{GridSize: 128})
//	m.Bootstrap(initialPositions)                  // load the object population
//	m.RegisterQuery(1, cpm.Point{X: .2, Y: .7}, 8) // monitor the 8 NNs of a point
//	for batch := range updateStream {
//		m.Tick(batch)                  // one processing cycle
//		_ = m.Result(1)                // always current
//	}
//
// Results can also be pushed instead of polled: Subscribe returns a typed
// stream of per-query result diffs (entered/exited/re-ranked neighbors
// plus the full new result) delivered over a channel, with per-subscriber
// buffering and slow-consumer policies. See Subscribe and the README's
// "Streaming results" section.
//
// Aggregate queries (sum/min/max over several query points, Section 5 of
// the paper) and constrained queries (results restricted to a region) are
// registered with RegisterAggQuery and RegisterConstrainedQuery; everything
// else works identically.
//
// CPM's efficiency comes from processing only the updates that fall inside
// some query's influence region and from visiting, on any search, the
// provably minimal set of grid cells, ordered by a conceptual partitioning
// of the space around the query. See docs/ARCHITECTURE.md for the
// architecture and the README's "Reproducing the paper" section for the
// evaluation.
package cpm

import (
	"errors"
	"time"

	"cpm/internal/baseline"
	"cpm/internal/core"
	"cpm/internal/geom"
	"cpm/internal/model"
	"cpm/internal/notify"
	"cpm/internal/shard"
)

var (
	errRangeMove = errors.New("cpm: a range query moves with exactly one point")
	errGridSize  = errors.New("cpm: rebalance needs a positive grid size")
)

// Point is a location in the two-dimensional workspace.
type Point = geom.Point

// Rect is an axis-aligned rectangle, used for workspaces and constraint
// regions.
type Rect = geom.Rect

// ObjectID identifies a moving data object. Use dense small non-negative
// integers: object state is stored in arrays indexed by id.
type ObjectID = model.ObjectID

// QueryID identifies an installed continuous query.
type QueryID = model.QueryID

// Neighbor is one result entry: an object and its (aggregate) distance.
type Neighbor = model.Neighbor

// Update is one element of the object location stream.
type Update = model.Update

// QueryUpdate is one element of the query stream (moves and terminations).
type QueryUpdate = model.QueryUpdate

// Batch carries the updates of one processing cycle.
type Batch = model.Batch

// Stats holds cumulative work counters (cell accesses, heap operations,
// re-computations, …).
type Stats = model.Stats

// Agg selects the aggregate function of an aggregate NN query.
type Agg = geom.Agg

// Aggregate functions for RegisterAggQuery.
const (
	AggSum = geom.AggSum // minimize the total travel distance
	AggMin = geom.AggMin // closest object to any query point
	AggMax = geom.AggMax // minimize the farthest user's distance
)

// Stream constructors, re-exported for building Batch values.
var (
	// MoveUpdate builds the canonical update tuple <id, old, new>.
	MoveUpdate = model.MoveUpdate
	// InsertUpdate builds an object-appearance update.
	InsertUpdate = model.InsertUpdate
	// DeleteUpdate builds an object-disappearance update.
	DeleteUpdate = model.DeleteUpdate
)

// Query update kinds.
const (
	QueryMove      = model.QueryMove
	QueryInstall   = model.QueryInstall
	QueryTerminate = model.QueryTerminate
)

// Update kinds.
const (
	Move   = model.Move
	Insert = model.Insert
	Delete = model.Delete
)

// ResultDiff describes how one query's result changed: entered, exited and
// re-ranked neighbors plus the full new result set. Its slices are
// read-only and share backing arrays with other events (see Subscribe).
type ResultDiff = model.ResultDiff

// DiffKind classifies a result-diff event.
type DiffKind = model.DiffKind

// Result-diff kinds.
const (
	DiffUpdate  = model.DiffUpdate  // an installed query's result changed
	DiffInstall = model.DiffInstall // a query was installed; Entered is the initial result
	DiffRemove  = model.DiffRemove  // a query was terminated; Result is nil
)

// ResultEvent is one delivered result diff with its hub sequence number.
type ResultEvent = notify.Event

// Subscription is a handle on a stream of ResultEvents; consume Events()
// from any goroutine and Close() to unsubscribe.
type Subscription = notify.Subscription

// SubscribeOptions configure a subscription's buffering and slow-consumer
// policy.
type SubscribeOptions = notify.Options

// SlowConsumerPolicy selects what happens when a subscriber's buffer fills.
type SlowConsumerPolicy = notify.Policy

// DefaultBuffer is the per-subscriber buffer capacity when
// SubscribeOptions.Buffer is unset.
const DefaultBuffer = notify.DefaultBuffer

// Slow-consumer policies for SubscribeOptions.
const (
	// DropOldest discards the oldest buffered event (detectable via
	// Event.Seq gaps and Subscription.Dropped).
	DropOldest = notify.DropOldest
	// CoalesceLatest keeps only the newest pending event per query.
	CoalesceLatest = notify.CoalesceLatest
)

// UnitSquare is the canonical workspace.
var UnitSquare = Rect{Lo: Point{X: 0, Y: 0}, Hi: Point{X: 1, Y: 1}}

// Options configure a Monitor. The zero value gets a 128×128 grid (the
// sweet spot of the paper's Figure 6.1) over the unit square.
type Options struct {
	// GridSize is the number of cells per dimension (cell side δ =
	// workspace extent / GridSize). Default 128.
	GridSize int
	// Workspace is the indexed square area. Default the unit square.
	// Object positions outside it are clamped onto its border before
	// storage (so every stored position lies inside its grid cell — the
	// invariant mindist-based search pruning needs); distances are
	// computed from the clamped position. Query points are never clamped.
	Workspace Rect
	// DropBookkeeping trades update-handling speed for memory: no
	// per-query search heap is kept and no visit list beyond the influence
	// region, and affected queries recompute from scratch (the paper's
	// memory-pressure fallback). On the paper's default workload it saves
	// 37 % of the monitor's memory units at 10K objects and 15 % at 100K
	// (36 % and 14 % at k=256), for up to 19 % more CPU time.
	DropBookkeeping bool
	// Shards partitions the queries into N hash-partitioned worker
	// shards. Every Tick applies the object stream once to one shared
	// epoch-guarded grid and then runs each shard's monitoring over the
	// resulting write log; with N > 1 the shards run on one goroutine each
	// and their results are merged, parallelizing the per-query work across
	// cores. Results, change notifications and work counters are exactly
	// those of one shard. The grid and its objects are shared, not
	// replicated; what each shard adds is its queries' book-keeping and its
	// influence index, whose directory holds a slice header per grid cell
	// (about 24 MiB per shard at GridSize 1024). 0 and 1 both mean one
	// shard, which runs on the calling goroutine. More shards pay from a
	// few hundred queries up on a multi-core machine; see internal/shard's
	// BenchmarkTick.
	Shards int

	// AutoRebalance resizes the grid online as the object density drifts,
	// instead of freezing the cell side δ at construction: at every 16th
	// Tick the monitor reads the mean occupancy of non-empty cells and,
	// when it has left the band [4, 16] around a target of 8 objects per
	// cell, rebuilds the grid at the size that restores the target —
	// reinstalling all query book-keeping without recomputing a single
	// result (results are δ-independent). The shared grid is rebuilt once
	// between ticks and every shard reindexes its own queries (in parallel
	// with Shards > 1), so the merged streams stay exact. See the README's
	// "Online grid rebalancing" design note.
	AutoRebalance bool
}

func (o *Options) defaults() {
	if o.GridSize == 0 {
		o.GridSize = 128
	}
	if o.Workspace == (Rect{}) {
		o.Workspace = UnitSquare
	}
}

// Monitor continuously maintains the results of registered queries over a
// stream of object location updates, using the CPM algorithm.
//
// Monitor is not safe for concurrent use: the paper's setting is a single
// processing loop consuming a stream, and that is the supported model.
// Wrap it in a mutex if updates and reads come from different goroutines.
// (With Options.Shards > 1 each Tick parallelizes internally, but the
// external contract is unchanged: one caller at a time.) The exception is
// the event streams returned by Subscribe: their channels may be consumed
// from any number of goroutines while the processing loop runs.
type Monitor struct {
	e *shard.Monitor
	// opts are the construction options, kept so Reset can rebuild the
	// shard monitor from scratch.
	opts Options
	// hub delivers result diffs to subscribers; nil until the first
	// Subscribe call, so unsubscribed monitors pay nothing for streaming.
	hub *notify.Hub
	// keep makes publish() additionally buffer every diff for TakeDiffs —
	// the pull-based collection path of the cluster serving layer.
	keep bool
	// pending holds the diffs collected since the last TakeDiffs while
	// keep is on.
	pending []ResultDiff
	// closed is set by Close: later Subscribe calls get an already-closed
	// subscription instead of racing the draining hub.
	closed bool
	// Cycle accounting, maintained by Tick for observability consumers
	// (same single-caller contract as everything else on the monitor).
	cycles      int64
	cycleNs     int64
	lastCycleNs int64
}

// newShards builds the shard monitor Options describe: max(1, Shards)
// shards over one shared grid and its auto-rebalancing policy. opts must
// already have defaults applied.
func newShards(opts Options) *shard.Monitor {
	s := shard.New(opts.Shards, opts.GridSize, opts.Workspace, core.Options{DropBookkeeping: opts.DropBookkeeping})
	s.SetAutoRebalance(shard.AutoRebalance{Enabled: opts.AutoRebalance})
	return s
}

// NewMonitor creates a CPM monitor: max(1, Options.Shards) worker shards
// that partition the queries over one shared grid, with results identical
// at every shard count.
func NewMonitor(opts Options) *Monitor {
	opts.defaults()
	return &Monitor{e: newShards(opts), opts: opts}
}

// Bootstrap loads the initial object population. Call once, before
// registering queries or processing updates. An object at a non-finite
// position is dropped and counted in InvalidUpdates.
func (m *Monitor) Bootstrap(objs map[ObjectID]Point) { m.e.Bootstrap(objs) }

// RegisterQuery installs a conventional k-NN query at q and computes its
// initial result.
func (m *Monitor) RegisterQuery(id QueryID, q Point, k int) error {
	err := m.e.RegisterQuery(id, q, k)
	m.publish()
	return err
}

// RegisterAggQuery installs an aggregate k-NN query: it monitors the k
// objects minimizing agg over the distances to every point in pts.
func (m *Monitor) RegisterAggQuery(id QueryID, pts []Point, k int, agg Agg) error {
	err := m.e.Register(id, core.AggQuery(pts, k, agg))
	m.publish()
	return err
}

// RegisterConstrainedQuery installs a k-NN query whose results are
// restricted to objects inside region (paper Figure 5.3).
func (m *Monitor) RegisterConstrainedQuery(id QueryID, q Point, k int, region Rect) error {
	def := core.PointQuery(q, k)
	def.Constraint = &region
	err := m.e.Register(id, def)
	m.publish()
	return err
}

// RegisterRangeQuery installs a continuous range query: it continuously
// reports every object within radius of center. Range monitoring shares
// the grid and influence-list machinery with k-NN monitoring but needs no
// search state at all (see internal/core's range module).
func (m *Monitor) RegisterRangeQuery(id QueryID, center Point, radius float64) error {
	err := m.e.RegisterRange(id, center, radius)
	m.publish()
	return err
}

// MoveQuery relocates an installed query; pass one point per original
// query point (exactly one for conventional, constrained and range
// queries).
func (m *Monitor) MoveQuery(id QueryID, to ...Point) error {
	var err error
	if m.e.IsRange(id) {
		if len(to) != 1 {
			return errRangeMove
		}
		err = m.e.MoveRange(id, to[0])
	} else {
		err = m.e.MoveQuery(id, to)
	}
	m.publish()
	return err
}

// RemoveQuery uninstalls a query. Unknown ids are a no-op.
func (m *Monitor) RemoveQuery(id QueryID) {
	m.e.RemoveQuery(id)
	m.publish()
}

// Tick runs one processing cycle over a batch of object and query updates.
// Feed at most one update per object per batch (the stream model of the
// paper); the engine tolerates more but may fall back to re-computation.
func (m *Monitor) Tick(b Batch) {
	start := time.Now()
	m.e.ProcessBatch(b)
	m.publish()
	ns := time.Since(start).Nanoseconds()
	m.cycles++
	m.cycleNs += ns
	m.lastCycleNs = ns
}

// Cycles returns how many Tick cycles the monitor has processed.
func (m *Monitor) Cycles() int64 { return m.cycles }

// CycleNanos returns the total wall time spent inside Tick, in
// nanoseconds.
func (m *Monitor) CycleNanos() int64 { return m.cycleNs }

// LastCycleNanos returns the wall time of the most recent Tick, in
// nanoseconds (0 before the first).
func (m *Monitor) LastCycleNanos() int64 { return m.lastCycleNs }

// PhaseNanos is the cost-model phase decomposition of one cycle; see
// model.PhaseNanos.
type PhaseNanos = model.PhaseNanos

// LastPhases returns the wall-clock decomposition of the most recent Tick
// into the paper's Section 4 cost-model phases: index maintenance
// (relocation), influence scan / query re-evaluation, query-update
// application, and diff derivation. With Shards > 1 each phase reports
// the slowest shard (critical path). Zero before the first cycle.
func (m *Monitor) LastPhases() PhaseNanos { return m.e.LastPhases() }

// QueryCount returns the number of currently installed queries.
func (m *Monitor) QueryCount() int { return len(m.e.QueryIDs()) }

// InsertObject adds a single new object immediately (a one-update cycle).
func (m *Monitor) InsertObject(id ObjectID, p Point) {
	m.e.ProcessBatch(Batch{Objects: []Update{InsertUpdate(id, p)}})
	m.publish()
}

// MoveObject relocates a single object immediately (a one-update cycle).
func (m *Monitor) MoveObject(id ObjectID, to Point) {
	old, _ := m.e.ObjectPosition(id)
	m.e.ProcessBatch(Batch{Objects: []Update{MoveUpdate(id, old, to)}})
	m.publish()
}

// DeleteObject removes a single object immediately (a one-update cycle).
func (m *Monitor) DeleteObject(id ObjectID) {
	old, _ := m.e.ObjectPosition(id)
	m.e.ProcessBatch(Batch{Objects: []Update{DeleteUpdate(id, old)}})
	m.publish()
}

// Result returns the current result of a query of either kind — the k
// best neighbors of a k-NN query, or all members of a range query —
// ordered by (distance, id). The caller owns the slice. Unknown ids yield
// nil.
func (m *Monitor) Result(id QueryID) []Neighbor {
	if m.e.IsRange(id) {
		return m.e.RangeResult(id)
	}
	return m.e.Result(id)
}

// BestDist returns the query's current best_dist: the distance of its kth
// neighbor, +Inf while fewer than k objects match.
func (m *Monitor) BestDist(id QueryID) float64 { return m.e.BestDist(id) }

// QuerySnapshot pairs a query id with its full current result, as captured
// by Monitor.Snapshot.
type QuerySnapshot struct {
	// Query is the snapshotted query.
	Query QueryID
	// Live reports whether the query is currently installed. Snapshotting
	// an unknown (for example, meanwhile-terminated) id yields Live false
	// and a nil Result, so re-syncing consumers learn about terminations
	// they missed.
	Live bool
	// Result is the query's full current result, ordered by (distance,
	// id). The caller owns the slice.
	Result []Neighbor
}

// Snapshot captures the current full result of each given query — of every
// installed query, in ascending id order, when called with no ids — as one
// consistent set: no processing cycle runs between the individual reads.
// It is the re-sync primitive of the network serving layer: a reconnecting
// subscriber receives a Snapshot of its queries and resumes the live diff
// stream from there (see the client package), but it is equally useful for
// any consumer that needs a multi-query view at one logical instant.
func (m *Monitor) Snapshot(ids ...QueryID) []QuerySnapshot {
	if len(ids) == 0 {
		ids = m.e.QueryIDs()
	}
	out := make([]QuerySnapshot, len(ids))
	for i, id := range ids {
		out[i] = QuerySnapshot{Query: id, Live: m.e.HasQuery(id), Result: m.Result(id)}
	}
	return out
}

// Rebalance re-partitions the grid into gridSize×gridSize cells online,
// migrating the object store and reinstalling every installed query's
// index book-keeping without recomputing any result: answers are
// δ-independent, only the index is not, so results, reported snapshots and
// the diff stream are untouched. The shared grid is rebuilt once and every
// shard reindexes its own queries (in parallel with Shards > 1).
// Like every other method it must be called from the processing
// loop, between Ticks. Most callers want Options.AutoRebalance instead.
func (m *Monitor) Rebalance(gridSize int) error {
	if gridSize <= 0 {
		return errGridSize
	}
	m.e.Rebalance(gridSize)
	return nil
}

// GridSize returns the current number of grid cells per dimension — a
// runtime property once rebalancing is on.
func (m *Monitor) GridSize() int { return m.e.GridSize() }

// Rebalances returns how many online grid resizes the monitor has
// performed (manual and automatic).
func (m *Monitor) Rebalances() int64 { return m.e.Rebalances() }

// ObjectPosition returns the current position of a live object.
func (m *Monitor) ObjectPosition(id ObjectID) (Point, bool) {
	return m.e.ObjectPosition(id)
}

// ObjectCount returns the number of live objects.
func (m *Monitor) ObjectCount() int { return m.e.ObjectCount() }

// ChangedQueries returns the ids of queries whose results changed since
// the last Tick began — the per-cycle client notification set of the
// paper's monitoring loop (Figure 3.9). Installations, moves and
// terminations count as changes. The ids are in ascending order at every
// shard count, so downstream consumers never depend on shard interleaving.
func (m *Monitor) ChangedQueries() []QueryID { return m.e.ChangedQueries() }

// Subscribe returns a push-based stream of result-diff events for the
// given queries (none subscribes to every query, like SubscribeAll) with
// default options: a DefaultBuffer-event buffer and the DropOldest
// slow-consumer policy.
//
// Events describe every change from the moment of subscription on —
// installations, per-cycle result changes (entered / exited / re-ranked
// neighbors plus the full new result), query moves and terminations — in
// the order they were reported; for the current state of queries installed
// before subscribing, poll Result once after subscribing. Like every other
// Monitor method, Subscribe must be called from the processing-loop
// goroutine; the returned subscription's channel may be consumed from any
// goroutine. Delivery never blocks the processing loop: slow consumers
// lose events according to their policy instead.
//
// Ownership: an event's slices are read-only (events are shared between
// subscribers) and carved, cap == len, from chunks the events of one Tick
// and its neighbours share — an append reallocates, it never writes into
// another event. Events stay valid for as long as they are held, but a
// held event pins its whole chunk (64 KB): a consumer that keeps results
// around for long copies what it keeps.
func (m *Monitor) Subscribe(ids ...QueryID) *Subscription {
	return m.SubscribeWith(SubscribeOptions{}, ids...)
}

// SubscribeAll subscribes to every query with default options.
func (m *Monitor) SubscribeAll() *Subscription { return m.SubscribeWith(SubscribeOptions{}) }

// SubscribeWith is Subscribe with explicit buffering and slow-consumer
// policy.
func (m *Monitor) SubscribeWith(opts SubscribeOptions, ids ...QueryID) *Subscription {
	if m.closed {
		// After Close the hub is draining (or gone): hand out an already-
		// closed subscription instead of racing it with a fresh hub.
		return notify.Closed()
	}
	if m.hub == nil {
		m.hub = notify.NewHub()
		m.e.EnableDiffs(true)
	}
	return m.hub.Subscribe(opts, ids...)
}

// Close releases the monitor's background resources: streaming delivery
// shuts down (every subscription's buffered events drain and its Events
// channel closes, and diff collection stops), and the persistent shard
// worker goroutines stop. The monitor itself stays usable for
// polling — Result and ChangedQueries continue to work, and a later Tick
// restarts the shard workers — but streaming is over for good: a Subscribe
// after Close returns an already-closed subscription (its Events channel
// is closed) rather than racing the draining hub.
func (m *Monitor) Close() {
	m.closed = true
	m.e.Close()
	if m.hub == nil {
		return
	}
	m.hub.Close()
	m.hub = nil
	m.e.EnableDiffs(false)
}

// KeepDiffs toggles pull-based diff collection: while on, every mutating
// operation's result diffs are additionally buffered for TakeDiffs — with
// or without subscribers. The network serving layer uses this to answer
// sync-diffs requests (each operation's diffs returned to the requester)
// deterministically, independent of the push path's goroutines. Turning it
// off discards anything pending.
func (m *Monitor) KeepDiffs(on bool) {
	m.keep = on
	if on {
		m.e.EnableDiffs(true)
		return
	}
	m.pending = nil
	if m.hub == nil {
		m.e.EnableDiffs(false)
	}
}

// TakeDiffs returns the diffs collected since the last TakeDiffs call and
// clears the buffer. Nil unless KeepDiffs is on. The caller owns the
// returned slice; the events in it follow Subscribe's ownership rule.
func (m *Monitor) TakeDiffs() []ResultDiff {
	out := m.pending
	m.pending = nil
	return out
}

// Reset wipes the monitor back to its just-constructed state: every query
// is removed (publishing the terminal DiffRemove events to collectors and
// subscribers), the object population is discarded, and Bootstrap may be
// called again. Cycle counters are cumulative observability data and are
// not reset. The cluster coordinator uses this to re-sync a worker whose
// state is unknown (restarted, or missed batches beyond the replay
// window) before re-bootstrapping it.
func (m *Monitor) Reset() {
	for _, id := range m.e.QueryIDs() {
		m.e.RemoveQuery(id)
	}
	m.publish()
	m.e.Close() // stop the worker goroutines
	m.e = newShards(m.opts)
	if m.hub != nil || m.keep {
		m.e.EnableDiffs(true)
	}
}

// publish flushes the diffs of the last mutating operation to the
// subscribers and, with KeepDiffs on, the pull buffer. No-op (and no diff
// is ever collected) while neither is active. The shard monitor's TakeDiffs
// lends its buffer only until the next take, so both consumers copy the
// events out of it before publish returns: the pull buffer by append, the
// hub into its subscribers' rings.
func (m *Monitor) publish() {
	if m.hub == nil && !m.keep {
		return
	}
	diffs := m.e.TakeDiffs()
	if m.keep {
		m.pending = append(m.pending, diffs...)
	}
	if m.hub != nil {
		m.hub.Publish(diffs)
	}
}

// Stats returns cumulative work counters.
func (m *Monitor) Stats() Stats { return m.e.Stats() }

// InvalidUpdates reports how many stream elements were dropped as
// inconsistent (unknown ids, duplicate inserts, …).
func (m *Monitor) InvalidUpdates() int64 { return m.e.InvalidUpdates() }

// MemoryFootprint estimates the monitor's size in the abstract memory
// units of the paper's Section 4.1 (one unit per stored number). The grid
// term is counted once — the grid is shared — so the footprint is the same
// at every shard count for the same workload.
func (m *Monitor) MemoryFootprint() int64 { return m.e.MemoryFootprint() }

// GridEpoch returns the grid's write epoch: the number of write batches
// (bootstraps, per-Tick object-stream applications, rebuilds) applied to
// the index so far. With Shards > 1 all shards read the one shared grid at
// a stable epoch during each Tick's fan-out; the counter is exposed for
// observability (the cpm_grid_epoch gauge).
func (m *Monitor) GridEpoch() int64 { return m.e.GridEpoch() }

// Method is the interface shared by CPM and the baseline monitors, for
// side-by-side comparison. All implementations produce identical results
// on identical streams; they differ in cost.
type Method = model.Monitor

// NewYPKMonitor creates a YPK-CNN baseline monitor (single-point k-NN
// queries only), for comparative benchmarking.
func NewYPKMonitor(opts Options) Method {
	opts.defaults()
	return baseline.NewYPK(opts.GridSize, opts.Workspace)
}

// NewSEAMonitor creates a SEA-CNN baseline monitor (single-point k-NN
// queries only), for comparative benchmarking.
func NewSEAMonitor(opts Options) Method {
	opts.defaults()
	return baseline.NewSEA(opts.GridSize, opts.Workspace)
}
