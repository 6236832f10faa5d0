// Package shard implements the CPM monitor: continuous queries are
// hash-partitioned across N worker shards, each owning a private
// core.Engine, and every processing cycle applies the object stream once to
// one shared grid, fans the resulting write log out to one goroutine per
// shard and merges the results. It is the only code that applies the object
// stream: every cpm.Monitor runs on it, and the plain single-engine monitor
// is the one-shard case, which runs the same staged cycle on the calling
// goroutine.
//
// CPM's per-query state — best_NN, visit list, leftover heap (paper
// Figures 3.3a/3.8/3.9) — is independent across queries, so the per-cycle
// monitoring loop is embarrassingly parallel in the query dimension. The
// grid, by contrast, is a pure shared index: it carries no per-query state
// (influence lists live in per-engine grid.Influence indexes), so all
// shards read ONE grid and the objects are stored once, not once per shard.
// What grows with the shard count is each engine's influence index: its
// cell directory holds a slice header for every grid cell, so the
// directories cost O(shards × cells) — about 24 MiB per engine at 1024².
// The coordinator applies each tick's object updates exactly once
// (grid.ApplyWatched, inside an epoch-guarded write window), logging only
// the updates that touch some shard's influence region, then every shard
// replays the write log against its own influence lists at a stable epoch —
// reads only, so the fan-out needs no locks. Each shard's influence lists
// cover only its own queries, so the engine's affected-cell pre-filter
// reduces every logged update that does not intersect one of the shard's
// influence regions to two bit tests. The expensive work — influence
// scans over cell object lists, NN re-computations, heap maintenance —
// happens only in the shard that owns the affected query.
//
// The partitioning is exact, not approximate: for identical streams a
// monitor of any shard count produces byte-for-byte the results, change
// notifications and summed work counters of the one-shard monitor (asserted
// by this package's equivalence property test).
package shard

import (
	"fmt"
	"slices"
	"sync"
	"time"

	"cpm/internal/core"
	"cpm/internal/geom"
	"cpm/internal/grid"
	"cpm/internal/model"
)

// Monitor is a sharded CPM monitor. It is not safe for concurrent use by
// multiple callers: the parallelism is internal to ProcessBatch, which owns
// the worker goroutines.
//
// The workers are persistent: the first multi-shard ProcessBatch starts one
// goroutine per shard, and every cycle feeds them its two stages (feedItem)
// over per-shard channels, so a steady-state cycle spawns no goroutines and
// performs zero heap allocations (a per-cycle `go func` closure would
// allocate once per shard per tick). Close stops the workers; a later
// ProcessBatch transparently restarts them, so Close is only required to
// release the goroutines of a monitor that is being discarded.
type Monitor struct {
	// g is the single grid shared by all shards, owned (and exclusively
	// mutated) by the coordinator thread running ProcessBatch.
	g      *grid.Grid
	shards []*core.Engine
	// perShard reuses the per-cycle query-update routing buffers.
	perShard [][]model.QueryUpdate
	// applied is the reused per-tick write log produced by grid.ApplyWatched
	// and shared read-only by every worker during the fan-out; watch is the
	// reused union of the engines' watched cells that filters it.
	applied []grid.Applied
	watch   grid.CellSet

	// invalidObjects counts object updates the coordinator dropped while
	// applying the stream — exactly once per element, however many shards
	// exist. Query-update invalids stay with their routed engines.
	invalidObjects int64
	// applyNs is the serial grid-application time of the last tick,
	// reported as part of the relocation phase.
	applyNs int64

	// feed carries one work item per cycle to each persistent worker; nil
	// until the first multi-shard ProcessBatch. wg counts outstanding
	// workers within one cycle.
	feed []chan feedItem
	wg   sync.WaitGroup

	// Merge buffers reused across ticks by the serving path; the returned
	// slices are borrowed until the next call.
	mergedIDs   []model.QueryID
	mergedDiffs []model.ResultDiff

	// rb is the auto-rebalancing policy (zero value: disabled); ticks
	// counts completed ProcessBatch cycles for its check cadence;
	// rebalances counts grid resizes (the grid is resized once, not once
	// per shard).
	rb         AutoRebalance
	ticks      int64
	rebalances int64
}

// feedItem is one stage of a cycle for one shard: the opening (begin:
// BeginCycle, which installs the shard's pending queries) or the rest (the
// tick's write log, shared and read-only, scanned and the query updates
// applied). queries are the updates routed to the shard.
type feedItem struct {
	begin   bool
	applied []grid.Applied
	queries []model.QueryUpdate
}

// run does the stage on the shard's engine e.
func (it feedItem) run(e *core.Engine) {
	if it.begin {
		e.BeginCycle(it.queries)
		return
	}
	e.ScanApplied(it.applied)
	e.ApplyQueryUpdates(it.queries)
}

// New creates a monitor of n hash-partitioned shards over one shared
// gridSize×gridSize grid spanning the workspace. n < 1 is clamped to 1;
// with one shard the monitor still runs the apply-once cycle, just without
// the goroutine fan-out.
func New(n, gridSize int, workspace geom.Rect, opts core.Options) *Monitor {
	if n < 1 {
		n = 1
	}
	g := grid.New(gridSize, workspace)
	// Arm the epoch-guard assertions (race/assert builds): from here on the
	// grid may only be mutated inside a write window.
	g.SetShared(true)
	m := &Monitor{
		g:        g,
		shards:   make([]*core.Engine, n),
		perShard: make([][]model.QueryUpdate, n),
	}
	for i := range m.shards {
		m.shards[i] = core.NewSharedEngine(g, opts)
	}
	return m
}

// NewUnit creates a sharded monitor over the unit-square workspace.
func NewUnit(n, gridSize int, opts core.Options) *Monitor {
	return New(n, gridSize, geom.Rect{Lo: geom.Point{X: 0, Y: 0}, Hi: geom.Point{X: 1, Y: 1}}, opts)
}

// Shards returns the shard count.
func (m *Monitor) Shards() int { return len(m.shards) }

// Name implements model.Monitor: "CPM" for the one-shard monitor,
// "CPM-shardN" otherwise.
func (m *Monitor) Name() string {
	if len(m.shards) == 1 {
		return "CPM"
	}
	return fmt.Sprintf("CPM-shard%d", len(m.shards))
}

// shardOf maps a query id to its owning shard.
func (m *Monitor) shardOf(id model.QueryID) int { return model.Owner(id, len(m.shards)) }

// owner returns the engine owning query id.
func (m *Monitor) owner(id model.QueryID) *core.Engine { return m.shards[m.shardOf(id)] }

// Bootstrap loads the initial object population into the shared grid —
// once, not once per shard. An object the update stream's insert would
// refuse (grid.Admits: a negative id or a non-finite position) is dropped
// and counted in InvalidUpdates. Call before registering queries or
// processing updates; it panics on a non-empty monitor.
func (m *Monitor) Bootstrap(objs map[model.ObjectID]geom.Point) {
	if m.g.Count() > 0 {
		panic("shard: Bootstrap on a non-empty monitor")
	}
	m.g.BeginWrites()
	defer m.g.EndWrites()
	for id, p := range objs {
		if !grid.Admits(model.InsertUpdate(id, p), false) {
			m.invalidObjects++
			continue
		}
		if err := m.g.Insert(id, p); err != nil {
			panic(fmt.Sprintf("shard: bootstrap insert of object %d: %v", id, err))
		}
	}
}

// RegisterQuery installs a conventional k-NN query on its owning shard.
func (m *Monitor) RegisterQuery(id model.QueryID, q geom.Point, k int) error {
	return m.owner(id).RegisterQuery(id, q, k)
}

// Register installs a query of any supported definition on its owning shard.
func (m *Monitor) Register(id model.QueryID, def core.Def) error {
	return m.owner(id).Register(id, def)
}

// RegisterRange installs a continuous range query on its owning shard.
func (m *Monitor) RegisterRange(id model.QueryID, center geom.Point, radius float64) error {
	return m.owner(id).RegisterRange(id, center, radius)
}

// MoveQuery relocates an installed query.
func (m *Monitor) MoveQuery(id model.QueryID, points []geom.Point) error {
	return m.owner(id).MoveQuery(id, points)
}

// MoveRange relocates an installed range query.
func (m *Monitor) MoveRange(id model.QueryID, center geom.Point) error {
	return m.owner(id).MoveRange(id, center)
}

// IsRange reports whether id names an installed range query.
func (m *Monitor) IsRange(id model.QueryID) bool { return m.owner(id).IsRange(id) }

// HasQuery reports whether id names an installed query of either kind.
func (m *Monitor) HasQuery(id model.QueryID) bool { return m.owner(id).HasQuery(id) }

// QueryIDs returns the ids of all installed queries across every shard, in
// ascending order. The caller owns the slice.
func (m *Monitor) QueryIDs() []model.QueryID {
	var ids []model.QueryID
	for _, e := range m.shards {
		ids = append(ids, e.QueryIDs()...)
	}
	slices.Sort(ids)
	return ids
}

// RemoveQuery uninstalls a query of either kind. Unknown ids are a no-op.
func (m *Monitor) RemoveQuery(id model.QueryID) { m.owner(id).RemoveQuery(id) }

// ProcessBatch runs one processing cycle — the NN Monitoring loop of the
// paper's Figure 3.9 — restructured around the shared grid: open the cycle
// (every shard runs BeginCycle in parallel, so the queries the tick's query
// updates rebuild or remove stay out of every engine's Watched set, and the
// other pending queries get their book-keeping and are installed), apply writes
// (the coordinator applies the object stream to the grid exactly once,
// logging each accepted update that touches a cell some shard watches),
// then parallel monitoring (every shard replays the log against its own
// influence lists at the now-stable epoch, resolves its queries and applies
// its query updates), then merge (the accessor methods below). Query
// updates are routed to their owning shards.
//
// Inconsistent stream elements (moves or deletes of unknown objects,
// duplicate inserts, non-finite positions, updates for unknown queries)
// are dropped and counted in InvalidUpdates. The monitor keeps no reference
// into b once ProcessBatch returns.
func (m *Monitor) ProcessBatch(b model.Batch) {
	for i := range m.perShard {
		m.perShard[i] = m.perShard[i][:0]
	}
	for _, qu := range b.Queries {
		s := m.shardOf(qu.ID)
		m.perShard[s] = append(m.perShard[s], qu)
	}
	m.stage(true)
	t0 := time.Now()
	var invalid int64
	m.applied, invalid = m.g.ApplyWatched(b.Objects, m.applied[:0], m.watched())
	m.invalidObjects += invalid
	m.applyNs = time.Since(t0).Nanoseconds()
	m.stage(false)
	// The routed copies of the query updates hold the caller's NewPoints;
	// drop them so the batch is collectable while the monitor idles.
	for i := range m.perShard {
		clear(m.perShard[i])
	}
	m.maybeRebalance()
}

// stage runs one stage of the cycle (feedItem) on every shard and returns
// once all are done: on the calling goroutine with one shard, on the
// persistent workers otherwise.
func (m *Monitor) stage(begin bool) {
	if len(m.shards) == 1 {
		feedItem{begin: begin, applied: m.applied, queries: m.perShard[0]}.run(m.shards[0])
		return
	}
	if m.feed == nil {
		m.start()
	}
	m.wg.Add(len(m.shards))
	for i, ch := range m.feed {
		ch <- feedItem{begin: begin, applied: m.applied, queries: m.perShard[i]}
	}
	m.wg.Wait()
}

// watched returns the union of the engines' watched cells
// (core.Engine.Watched). The engines are idle — the opening stage has
// joined and installed their pending queries — so the coordinator may read
// the sets.
func (m *Monitor) watched() *grid.CellSet {
	if len(m.shards) == 1 {
		return m.shards[0].Watched()
	}
	m.watch.Reset(m.g.Size() * m.g.Size())
	for _, e := range m.shards {
		m.watch.Or(e.Watched())
	}
	return &m.watch
}

// start launches one persistent worker goroutine per shard. The channel
// send in ProcessBatch happens-before the worker's engine access, and the
// worker's wg.Done happens-before wg.Wait returns, so each cycle's shard
// state is owned by exactly one goroutine at a time — and the write log it
// replays was fully applied before any send.
func (m *Monitor) start() {
	m.feed = make([]chan feedItem, len(m.shards))
	for i := range m.shards {
		ch := make(chan feedItem)
		m.feed[i] = ch
		e := m.shards[i]
		go func() {
			for it := range ch {
				it.run(e)
				m.wg.Done()
			}
		}()
	}
}

// Close stops the persistent per-shard worker goroutines. It is idempotent,
// and the monitor stays usable: a later ProcessBatch restarts the workers.
// Call it when discarding a monitor so its goroutines do not outlive it.
func (m *Monitor) Close() {
	if m.feed == nil {
		return
	}
	for _, ch := range m.feed {
		close(ch)
	}
	m.feed = nil
}

// Result returns the current result of a k-NN query.
func (m *Monitor) Result(id model.QueryID) []model.Neighbor { return m.owner(id).Result(id) }

// RangeResult returns the current members of a range query.
func (m *Monitor) RangeResult(id model.QueryID) []model.Neighbor {
	return m.owner(id).RangeResult(id)
}

// BestDist returns the query's current best_dist.
func (m *Monitor) BestDist(id model.QueryID) float64 { return m.owner(id).BestDist(id) }

// Bookkeeping returns the sizes of a k-NN query's stored search state (see
// core.Engine.Bookkeeping).
func (m *Monitor) Bookkeeping(id model.QueryID) (visit, heap, influence int) {
	return m.owner(id).Bookkeeping(id)
}

// ObjectPosition returns the current position of a live object, read from
// the shared grid.
func (m *Monitor) ObjectPosition(id model.ObjectID) (geom.Point, bool) {
	return m.g.Position(id)
}

// ObjectCount returns the number of live objects.
func (m *Monitor) ObjectCount() int { return m.g.Count() }

// GridEpoch returns the shared grid's write epoch — the number of write
// batches (object-stream applications, bootstraps, rebuilds) applied to it.
func (m *Monitor) GridEpoch() int64 { return m.g.Epoch() }

// ChangedQueries merges the shards' per-cycle notification sets, in
// ascending order. Ownership is disjoint, so cross-shard duplicates cannot
// occur, and termination duplicates within one shard are compacted. The
// returned slice is a merge buffer reused across ticks: it is borrowed
// until the next ChangedQueries call.
func (m *Monitor) ChangedQueries() []model.QueryID {
	if len(m.shards) == 1 {
		return m.shards[0].ChangedQueries()
	}
	out := m.mergedIDs[:0]
	for _, e := range m.shards {
		out = e.AppendChangedIDs(out)
	}
	if len(out) == 0 {
		m.mergedIDs = out
		return nil
	}
	slices.Sort(out)
	out = slices.Compact(out)
	m.mergedIDs = out
	return out
}

// EnableDiffs switches per-cycle result-diff collection on or off in every
// shard. Disabling discards any diffs not yet taken.
func (m *Monitor) EnableDiffs(on bool) {
	for _, e := range m.shards {
		e.EnableDiffs(on)
	}
}

// TakeDiffs fans the shards' per-cycle diff streams into one stream
// stable-ordered by query id and resets them. Ownership is disjoint, so
// the merge is duplicate-free, and the ordering contract makes the merged
// stream byte-for-byte the one-shard stream for identical workloads
// (asserted by this package's equivalence property test). The returned
// slice is a merge buffer reused across ticks — borrowed until the next
// TakeDiffs call; the diff values themselves (and the result slices they
// carry) are handed off by the engines and stay valid.
func (m *Monitor) TakeDiffs() []model.ResultDiff {
	if len(m.shards) == 1 {
		return m.shards[0].TakeDiffs()
	}
	out := m.mergedDiffs[:0]
	for _, e := range m.shards {
		out = append(out, e.TakeDiffs()...)
	}
	m.mergedDiffs = out
	if len(out) == 0 {
		return nil
	}
	model.SortByQuery(out)
	return out
}

// LastPhases returns the cost-model phase decomposition of the most
// recent ProcessBatch. Shards run concurrently, so each phase reports the
// slowest shard (the critical path), not the sum across shards; the
// coordinator's serial grid-application time is added to the relocation
// phase, where index maintenance has always been accounted.
func (m *Monitor) LastPhases() model.PhaseNanos {
	var p model.PhaseNanos
	for _, e := range m.shards {
		p.MaxOf(e.LastPhases())
	}
	p.Relocate += m.applyNs
	return p
}

// Stats sums the shards' work counters. Searches, scans and re-computations
// run only in the shard owning the affected query, and every counter —
// including cell accesses — is engine-local, so the sum equals a single
// engine's counters for the same stream.
func (m *Monitor) Stats() model.Stats {
	var s model.Stats
	for _, e := range m.shards {
		s.Add(e.Stats())
	}
	return s
}

// InvalidUpdates reports how many stream elements were dropped as
// inconsistent. Object updates are validated once by the coordinator while
// applying the shared grid's writes; query updates are validated only by
// their routed shard (sum them).
func (m *Monitor) InvalidUpdates() int64 {
	total := m.invalidObjects
	for _, e := range m.shards {
		total += e.InvalidQueryUpdates()
	}
	return total
}

// MemoryFootprint reports the monitor's size in the abstract units of the
// paper's Section 4.1: the shared grid term counted ONCE plus every shard's
// partitioned query book-keeping. Equal to one shard's footprint for
// the same workload — sharding no longer multiplies the grid term.
func (m *Monitor) MemoryFootprint() int64 {
	total := m.g.MemoryFootprint()
	for _, e := range m.shards {
		total += e.QueryMemoryUnits()
	}
	return total
}

var _ model.Monitor = (*Monitor)(nil)
