// Package core implements CPM — the Conceptual Partitioning Monitoring
// method of Mouratidis, Hadjieleftheriou and Papadias (SIGMOD 2005) — for
// continuous (aggregate, optionally constrained) k nearest neighbor queries
// over streams of object location updates.
//
// The engine reads a grid index (internal/grid) — owned privately
// (NewEngine) or injected and shared with sibling engines (NewSharedEngine,
// used by internal/shard) — and owns a query table holding, per query: its
// definition, the best_NN result list, best_dist, the visit list and the
// leftover search heap (paper Figure 3.3a), plus the influence-list index
// for its queries (grid.Influence), whose lists point into the table by
// slot handle. Searches traverse the conceptual partitioning of
// internal/conc. The three paper modules map to three files:
//
//	search.go     — NN Computation        (Figure 3.4)
//	recompute.go  — NN Re-Computation     (Figure 3.6)
//	update.go     — Update Handling + the per-cycle NN Monitoring loop
//	                (Figures 3.8 and 3.9)
package core

import (
	"fmt"
	"slices"
	"sync"

	"cpm/internal/conc"
	"cpm/internal/geom"
	"cpm/internal/grid"
	"cpm/internal/model"
	"cpm/internal/qheap"
)

// Options tune engine behaviour. The zero value is the paper's CPM.
type Options struct {
	// PerUpdate processes object updates one at a time (Section 3.2)
	// instead of batching a whole cycle (Section 3.3 / Figure 3.8). It
	// exists for the ablation study: batching lets incoming objects cancel
	// outgoing NNs before any re-computation is triggered.
	PerUpdate bool

	// DropBookkeeping discards the search heap and visit list after every
	// search, as the paper suggests under memory pressure (end of Section
	// 3.3). Result maintenance then falls back to NN computation from
	// scratch whenever re-computation would have run.
	DropBookkeeping bool

	// ScanWorkers splits the engine's influence-scan work across a small
	// pool of persistent workers for update-heavy/query-light workloads.
	// Queries are partitioned into ScanWorkers groups by the cell range of
	// their home cell; each group owns a private influence index and dirty
	// set, so the parallel scan phase shares only read-only state (the
	// grid and the write log). Resolution stays serial, which keeps
	// results, diffs and statistics byte-identical to the serial engine.
	// Values below 2 mean serial scanning.
	ScanWorkers int
}

// Engine is the CPM monitor.
type Engine struct {
	g *grid.Grid
	// ownsGrid distinguishes a private grid (NewEngine: the engine applies
	// object updates itself) from an injected shared one (NewSharedEngine:
	// the owning monitor applies writes once per tick and feeds the engine
	// the resulting log; this engine must never mutate the grid).
	ownsGrid bool
	opts     Options

	// slots is the query table QT (Figure 3.3a) for queries of both kinds:
	// the influence lists hold handles, and handle h names slots[h>>1]. A
	// removed query's slot is parked on free with every buffer it grew and
	// re-armed by the next registration, so a subscription that comes and
	// goes costs no allocation. ids resolves a query id at the API boundary
	// (Register, RemoveQuery, MoveQuery, Result, BeginCycle, …) and nowhere
	// else: no per-update scan hashes an id.
	slots []*query
	free  []*query
	ids   map[model.QueryID]*query

	// infls holds the influence-list index for this engine's queries — one
	// index per scan group (exactly one unless Options.ScanWorkers splits
	// the scan work). Influence lists are per-query book-keeping, so they
	// live with the engine, not in the (possibly shared) grid cells.
	infls  []*grid.Influence
	groups int

	// applied is the reused write log of the classic (private-grid) path:
	// ProcessBatch applies the object stream via grid.ApplyBatch and then
	// scans the log, exactly like the sharded monitor does externally.
	applied []grid.Applied

	// Persistent scan workers (ScanWorkers ≥ 2): group w scans the tick's
	// write log against infls[w]. Started lazily, stopped by Close.
	scanFeed []chan []grid.Applied
	scanWG   sync.WaitGroup

	stats model.Stats
	// Invalid stream elements are counted separately per stream. The
	// sharded monitor (internal/shard) applies the object stream once at
	// the coordinator but routes each query update to exactly one shard,
	// so it needs the two kinds apart to report a non-inflated total.
	invalidObjects int64
	invalidQueries int64
	rebalances     int64 // grid resizes performed (Rebalance/Reindex)
	cycle          int64
	// dirty holds the queries touched by the current cycle, per group;
	// group w is only appended to by the worker scanning infls[w], and all
	// groups are drained serially in order.
	dirty [][]*query

	// changedIDs collects the queries whose results changed since the last
	// ProcessBatch began — the notification set of Figure 3.9 line 10.
	// Instead of a per-cycle map, the set is a reused dense slice deduped
	// by generation stamp: a query appends itself at most once per
	// changeGen (terminated queries append unconditionally; ChangedQueries
	// dedupes on read). Steady-state cycles therefore allocate nothing.
	changedIDs []model.QueryID
	changeGen  int64 // bumped at the start of every ProcessBatch; starts at 1
	// batchGen stamps the queries that have their own update in the current
	// batch — the per-cycle "ignore" set of Figure 3.9 (their results are
	// rebuilt by the query update anyway), without a per-cycle map.
	batchGen int64
	// rangeScratch is the pooled buffer current builds a range query's
	// sorted result into, so per-cycle range-change checks allocate nothing.
	rangeScratch []model.Neighbor

	// Result-diff collection (diff.go): with diffsOn the engine derives,
	// for every changed query, the entered/exited/re-ranked delta against
	// its reported snapshot and buffers it in diffs until TakeDiffs, which
	// moves the window, ordered through the diffOrder keys, into taken (the
	// buffer it lends out until the next take) and bumps diffWin. A query's
	// diffMark stamped with the current diffWin points at its pending
	// event, so repeated changes within one window compose into a single
	// event; diffBase[i] is diffs[i]'s pre-change snapshot for that, cut
	// from baseBuf, which each take rewinds. Event slices are carved from
	// freeNbrs and freeIDs, the unused tails of the arena's current chunks. diffTab (with its generation diffGen),
	// diffSeen and diffEnt/diffRer/diffEx are the O(k) diff pass's reusable
	// scratch.
	diffsOn   bool
	diffs     []model.ResultDiff
	taken     []model.ResultDiff
	diffOrder []int64
	diffBase  [][]model.Neighbor
	baseBuf   []model.Neighbor
	diffWin   int64
	freeNbrs  []model.Neighbor
	freeIDs   []model.ObjectID
	diffTab   []idSlot
	diffGen   uint64
	diffSeen  []bool
	diffEnt   []model.Neighbor
	diffRer   []model.Neighbor
	diffEx    []model.ObjectID

	// phases is the wall-clock decomposition of the last ProcessBatch
	// into the paper's cost-model phases (tracing.go in this package).
	phases model.PhaseNanos
}

// rangeBit is the bit of a handle that says its slot holds a continuous
// range query (range.go) rather than a k-NN query; the bits above it are the
// slot's index in the query table.
const rangeBit grid.Handle = 1

// query is one entry of the query table QT (Figure 3.3a): a slot, holding a
// k-NN query or — handle bit rangeBit — a range query, which uses def.Points
// (its center), radius, members, and visit as its plain list of influence
// cells. The slices, the heap and the map are the slot's buffers: they
// outlive the query (see Engine.arm).
type query struct {
	id     model.QueryID
	h      grid.Handle // the handle the influence lists name this slot by
	def    Def         // Points and Constraint point into the slot
	region geom.Rect   // *def.Constraint of a constrained query

	// A range query's radius and its result (object -> distance).
	// Membership needs O(1) keyed update from the scans, and unlike the
	// grid's cell sets it is only iterated when this query's result actually
	// changed, so a map stays the right structure here (see README "Design
	// notes"). Nil until the slot first holds a range query.
	radius  float64
	members map[model.ObjectID]float64

	// group is the scan group holding this query's influence entries —
	// derived from the home cell's position in the cell range (groupOf),
	// always 0 on a serial engine, recomputed on rebalance.
	group int32

	best resultList // best_NN; kthDist() is best_dist

	// visit is the visit list: every cell processed by search or
	// re-computation, in ascending key (mindist/amindist) order. It is a
	// superset of the influence region.
	visit []visitEntry
	// influenceEnd is one past the last visit entry whose cell currently
	// carries this query in its influence list. Influence cells are always
	// a prefix of the visit list (keys ≤ best_dist).
	influenceEnd int
	// heap holds the entries en-heaped but not de-heaped by the last
	// search: the cells/strips with key ≥ best_dist, including the four
	// boundary boxes.
	heap *qheap.Heap

	// reported is the result as last exposed through ChangedQueries; pend
	// locates the query's pending diff event, if any (diff.go).
	reported []model.Neighbor
	pend     diffMark

	// changedMark dedupes the query's entry in the engine's changedIDs
	// list (== changeGen once recorded this notification window);
	// ignoreMark == batchGen marks a query with its own update in the
	// current batch, skipped by the object-update scans.
	changedMark int64
	ignoreMark  int64

	// Per-cycle update-handling state (Figure 3.8 lines 1–3), initialized
	// lazily by touch the first time a cycle's update concerns the query.
	cycleMark int64
	refDist   float64
	outCount  int
	inList    resultList
	// The paper caps in_list at the k best incomers, which is lossless
	// when each object issues at most one update per cycle (the stream
	// model of Section 3). With several updates per object in one batch an
	// incomer evicted by the cap is unrecoverable if a retained incomer is
	// later invalidated, so the engine tracks the two conditions and falls
	// back to re-computation — always correct — when both occur.
	inDropped      bool // the cap discarded at least one incomer
	forceRecompute bool // a retained incomer was removed after a discard
}

type visitEntry struct {
	cell grid.CellIndex
	key  float64
}

// NewEngine creates a CPM engine over a fresh private grid of
// gridSize×gridSize cells spanning the workspace.
func NewEngine(gridSize int, workspace geom.Rect, opts Options) *Engine {
	return newEngine(grid.New(gridSize, workspace), true, opts)
}

// NewSharedEngine creates a CPM engine over an injected grid owned by the
// caller (the sharded monitor). The engine keeps only per-query state and
// its influence indexes; it never mutates the grid. Object updates must be
// applied to the grid by the owner (grid.ApplyBatch) and fed to the engine
// as a write log via BeginCycle/ScanApplied/ApplyQueryUpdates.
func NewSharedEngine(g *grid.Grid, opts Options) *Engine {
	return newEngine(g, false, opts)
}

func newEngine(g *grid.Grid, ownsGrid bool, opts Options) *Engine {
	groups := opts.ScanWorkers
	if groups < 2 {
		groups = 1
	}
	e := &Engine{
		g:        g,
		ownsGrid: ownsGrid,
		opts:     opts,
		ids:      make(map[model.QueryID]*query),
		infls:    make([]*grid.Influence, groups),
		groups:   groups,
		dirty:    make([][]*query, groups),
		// Generations start at 1 so the zero-valued marks of a freshly armed
		// slot never collide with the current generation.
		changeGen: 1,
		batchGen:  1,
		diffWin:   1,
	}
	for w := range e.infls {
		e.infls[w] = grid.NewInfluence(g.Size() * g.Size())
	}
	return e
}

// groupOf maps a cell to the scan group owning queries homed there: groups
// partition the cell range [0, size²) into contiguous, equally sized
// stripes. With one group everything maps to 0.
func (e *Engine) groupOf(c grid.CellIndex) int32 {
	if e.groups == 1 {
		return 0
	}
	return int32(int(c) * e.groups / (e.g.Size() * e.g.Size()))
}

// homeGroup returns the scan group for a query definition — the group of
// the cell holding its (first) query point. Any deterministic cell works;
// the home cell keeps neighboring queries in the same group.
func (e *Engine) homeGroup(points []geom.Point) int32 {
	return e.groupOf(e.g.CellOf(points[0]))
}

// Close stops the persistent scan workers (if ScanWorkers started any).
// The engine stays usable: a later batch restarts them. Safe to call twice.
func (e *Engine) Close() {
	if e.scanFeed == nil {
		return
	}
	for _, ch := range e.scanFeed {
		close(ch)
	}
	e.scanFeed = nil
}

// ensureScanWorkers lazily starts one persistent goroutine per scan group,
// fed a write-log slice per tick over an unbuffered channel — the same
// zero-allocation fan-out shape as the sharded monitor's per-shard workers.
func (e *Engine) ensureScanWorkers() {
	if e.scanFeed != nil {
		return
	}
	e.scanFeed = make([]chan []grid.Applied, e.groups)
	for w := range e.scanFeed {
		ch := make(chan []grid.Applied)
		e.scanFeed[w] = ch
		go func(w int, ch chan []grid.Applied) {
			for log := range ch {
				e.scanGroup(w, log)
				e.scanWG.Done()
			}
		}(w, ch)
	}
}

// NewUnitEngine creates an engine over the unit-square workspace.
func NewUnitEngine(gridSize int, opts Options) *Engine {
	return NewEngine(gridSize, geom.Rect{Lo: geom.Point{X: 0, Y: 0}, Hi: geom.Point{X: 1, Y: 1}}, opts)
}

// Name implements model.Monitor.
func (e *Engine) Name() string { return "CPM" }

// Grid exposes the underlying index (read-mostly: tests, analysis and the
// harness use it; mutating it behind the engine's back voids the
// invariants).
func (e *Engine) Grid() *grid.Grid { return e.g }

// Bootstrap loads the initial object population. It panics if objects are
// already present: bootstrap happens once, before monitoring starts. On a
// shared-grid engine the grid's owner bootstraps instead.
func (e *Engine) Bootstrap(objs map[model.ObjectID]geom.Point) {
	if !e.ownsGrid {
		panic("core: Bootstrap on a shared-grid engine (the monitor owns the grid)")
	}
	if e.g.Count() > 0 {
		panic("core: Bootstrap on a non-empty engine")
	}
	for id, p := range objs {
		if err := e.g.Insert(id, p); err != nil {
			panic(fmt.Sprintf("core: bootstrap insert of object %d: %v", id, err))
		}
	}
}

// RegisterQuery installs a conventional k-NN query and computes its initial
// result (paper Figure 3.4).
func (e *Engine) RegisterQuery(id model.QueryID, q geom.Point, k int) error {
	return e.Register(id, PointQuery(q, k))
}

// Register installs a query of any supported definition and computes its
// initial result.
func (e *Engine) Register(id model.QueryID, def Def) error {
	if err := def.Validate(); err != nil {
		return err
	}
	if _, exists := e.ids[id]; exists {
		return fmt.Errorf("core: query %d already installed", id)
	}
	qu := e.arm(id, 0, def)
	qu.best.arm(def.K)
	qu.inList.arm(def.K)
	e.install(qu)
	return nil
}

// arm takes a slot for a new query of the given kind (0 or rangeBit): the
// slot parked last, with the buffers it was parked with, or a fresh one at
// the end of the table. Everything but the buffers starts from zero. The
// engine keeps the definition for the query's lifetime, so the points and
// the constraint region are copied into the slot's own storage: a caller
// reusing its buffers cannot move the query behind our back, and nothing of
// def escapes to the heap.
func (e *Engine) arm(id model.QueryID, kind grid.Handle, def Def) *query {
	var qu *query
	if n := len(e.free); n > 0 {
		qu, e.free = e.free[n-1], e.free[:n-1]
	} else {
		qu = &query{h: grid.Handle(len(e.slots)) << 1, heap: qheap.New(16)}
		e.slots = append(e.slots, qu)
	}
	*qu = query{
		id: id, h: qu.h&^rangeBit | kind,
		def:  Def{Points: append(qu.def.Points[:0], def.Points...), K: def.K, Agg: def.Agg},
		best: qu.best, inList: qu.inList, visit: qu.visit[:0], heap: qu.heap,
		reported: qu.reported[:0], members: qu.members,
	}
	if def.Constraint != nil {
		qu.region = *def.Constraint
		qu.def.Constraint = &qu.region
	}
	e.ids[id] = qu
	return qu
}

// install computes an armed query's initial result and reports it.
func (e *Engine) install(qu *query) {
	e.evaluate(qu)
	qu.reported = append(qu.reported, e.current(qu)...)
	e.markChanged(qu.id, &qu.changedMark)
	e.noteInstalled(qu.id, &qu.pend, qu.reported)
}

// evaluate computes the query's result from scratch at its current
// definition, in the scan group of its home cell.
func (e *Engine) evaluate(qu *query) {
	// While qu.group still names the index that holds the old entries.
	e.clearInfluence(qu)
	qu.group = e.homeGroup(qu.def.Points)
	if qu.h&rangeBit != 0 {
		e.evaluateRange(qu)
	} else {
		e.compute(qu)
	}
}

// current returns the query's result as it stands, ordered by (distance,
// id): best_NN itself for a k-NN query, a range query's members sorted into
// the engine's scratch buffer. Borrowed until the next call.
func (e *Engine) current(qu *query) []model.Neighbor {
	if qu.h&rangeBit == 0 {
		return qu.best.items
	}
	e.rangeScratch = appendRangeResult(e.rangeScratch[:0], qu)
	return e.rangeScratch
}

// lookup resolves id at the API boundary to an installed query of the given
// kind (0 or rangeBit), or nil.
func (e *Engine) lookup(id model.QueryID, kind grid.Handle) *query {
	if qu := e.ids[id]; qu != nil && qu.h&rangeBit == kind {
		return qu
	}
	return nil
}

// RemoveQuery uninstalls a query of either kind (k-NN or range), clearing
// its influence entries, and parks its slot — buffers and all — for the next
// registration. Unknown IDs are a no-op.
func (e *Engine) RemoveQuery(id model.QueryID) {
	qu, ok := e.ids[id]
	if !ok {
		return
	}
	e.clearInfluence(qu)
	delete(e.ids, id)
	e.noteRemoved(id, &qu.pend, qu.reported)
	e.assertUnnamed(qu)
	e.free = append(e.free, qu)
}

// MoveQuery relocates an installed query. Per Section 3.3 the move is a
// termination plus a re-installation at the new location(s); the query
// keeps its id, k, aggregate and constraint.
func (e *Engine) MoveQuery(id model.QueryID, points []geom.Point) error {
	return e.moveNoted(id, 0, points)
}

// moveNoted is the API form of move for a query of the given kind (0 or
// rangeBit): a move that succeeds is followed by the notification step.
func (e *Engine) moveNoted(id model.QueryID, kind grid.Handle, points []geom.Point) error {
	qu := e.lookup(id, kind)
	if qu == nil {
		return fmt.Errorf("core: move of unknown query %d", id)
	}
	err := e.move(qu, points)
	if err == nil {
		e.noteIfChanged(qu)
	}
	return err
}

// move relocates a query of either kind without the notification step,
// which ApplyQueryUpdates runs once for all of a batch's moves
// (noteTouched). Only the points change, so only they are validated.
func (e *Engine) move(qu *query, points []geom.Point) error {
	if len(points) != len(qu.def.Points) {
		return fmt.Errorf("core: query %d move with %d points, want %d",
			qu.id, len(points), len(qu.def.Points))
	}
	for _, p := range points {
		if !finitePoint(p) {
			return fmt.Errorf("core: non-finite query point %v", p)
		}
	}
	copy(qu.def.Points, points) // into the slot's own storage (see arm)
	e.evaluate(qu)
	return nil
}

// Result implements model.Monitor.
func (e *Engine) Result(id model.QueryID) []model.Neighbor {
	qu := e.lookup(id, 0)
	if qu == nil {
		return nil
	}
	return qu.best.snapshot()
}

// BestDist returns the query's current best_dist (+Inf while the result
// holds fewer than k objects), for tests and the analysis harness.
func (e *Engine) BestDist(id model.QueryID) float64 {
	qu := e.lookup(id, 0)
	if qu == nil {
		return 0
	}
	return qu.best.kthDist()
}

// QueryIDs returns the ids of all installed queries — k-NN (conventional,
// aggregate, constrained) and range alike — in ascending order.
func (e *Engine) QueryIDs() []model.QueryID {
	ids := make([]model.QueryID, 0, len(e.ids))
	for id := range e.ids {
		ids = append(ids, id)
	}
	slices.Sort(ids)
	return ids
}

// HasQuery reports whether id names an installed query of either kind.
func (e *Engine) HasQuery(id model.QueryID) bool {
	_, ok := e.ids[id]
	return ok
}

// Stats implements model.Monitor. All counters — including cell accesses —
// are engine-local: a shared grid's counter would be written by concurrent
// shards, so each engine counts the cell scans it performs itself and the
// sharded monitor sums them.
func (e *Engine) Stats() model.Stats { return e.stats }

// InvalidUpdates returns how many stream updates were dropped as
// inconsistent (unknown ids, duplicate inserts, …).
func (e *Engine) InvalidUpdates() int64 { return e.invalidObjects + e.invalidQueries }

// InvalidObjectUpdates returns the object-stream share of InvalidUpdates.
func (e *Engine) InvalidObjectUpdates() int64 { return e.invalidObjects }

// InvalidQueryUpdates returns the query-stream share of InvalidUpdates.
func (e *Engine) InvalidQueryUpdates() int64 { return e.invalidQueries }

// LastPhases returns the wall-clock decomposition of the most recent
// ProcessBatch into the paper's cost-model phases. Zero before the first
// cycle.
func (e *Engine) LastPhases() model.PhaseNanos { return e.phases }

// ObjectPosition returns the current position of a live object.
func (e *Engine) ObjectPosition(id model.ObjectID) (geom.Point, bool) {
	return e.g.Position(id)
}

// ObjectCount returns the number of live objects.
func (e *Engine) ObjectCount() int { return e.g.Count() }

// Bookkeeping returns the sizes of a query's stored search state: the
// visit-list length, the leftover heap length, and the influence-region
// prefix length. Their sum corresponds to the paper's C_SH + C_inf terms;
// the analysis validation experiment compares them against the Section 4.1
// estimates.
func (e *Engine) Bookkeeping(id model.QueryID) (visit, heap, influence int) {
	qu := e.lookup(id, 0)
	if qu == nil {
		return 0, 0, 0
	}
	return len(qu.visit), qu.heap.Len(), qu.influenceEnd
}

// MemoryFootprint returns the engine's size in the abstract memory units of
// Section 4.1: the grid term (3·N, counted here because this engine owns or
// co-reads the grid — the sharded monitor counts it ONCE via QueryMemoryUnits
// instead) plus the per-query terms.
func (e *Engine) MemoryFootprint() int64 {
	return e.g.MemoryFootprint() + e.QueryMemoryUnits()
}

// QueryMemoryUnits returns the engine's own share of the Section 4.1 memory
// model, excluding the grid term: Σ influence entries plus, per query, 3
// units for id and coordinates, 2·k for the result and 3 per visit-list or
// heap entry (+4 boundary boxes live in the heap itself); a range query
// counts for its influence entries alone, a parked slot for nothing. A
// sharded monitor sums this over its engines and adds the shared grid term
// once.
func (e *Engine) QueryMemoryUnits() int64 {
	var units int64
	for _, infl := range e.infls {
		units += infl.Entries()
	}
	for _, qu := range e.ids {
		if qu.h&rangeBit != 0 {
			continue
		}
		units += int64(3*len(qu.def.Points) + 2*qu.def.K)
		units += int64(3 * (len(qu.visit) + qu.heap.Len()))
	}
	return units
}

// GridEpoch returns the grid's write epoch — the number of completed write
// batches applied to the index (see grid.Epoch).
func (e *Engine) GridEpoch() int64 { return e.g.Epoch() }

// HasInfluence reports whether query id currently holds an influence entry
// on cell c, in any scan group (tests and analysis).
func (e *Engine) HasInfluence(c grid.CellIndex, id model.QueryID) bool {
	qu := e.ids[id]
	if qu == nil {
		return false
	}
	for _, infl := range e.infls {
		if infl.Has(c, qu.h) {
			return true
		}
	}
	return false
}

// clearInfluence removes the query from the influence lists of all cells in
// its influence prefix and resets its book-keeping.
func (e *Engine) clearInfluence(qu *query) {
	infl := e.infls[qu.group]
	for _, ve := range qu.visit[:qu.influenceEnd] {
		infl.Remove(ve.cell, qu.h)
	}
	qu.visit = qu.visit[:0]
	qu.influenceEnd = 0
	qu.heap.Reset()
}

// partitionFor builds the conceptual partitioning around the query's
// center block: the cell of the (single) query point, or the cells covering
// the MBR M of the point set (Section 5, Figure 5.1a).
func (e *Engine) partitionFor(def Def) conc.Partition {
	var block conc.Block
	if def.single() {
		col, row := e.g.ColRow(def.Points[0])
		block = conc.CellBlock(col, row)
	} else {
		m := geom.MBR(def.Points)
		cLo, rLo := e.g.ColRow(m.Lo)
		cHi, rHi := e.g.ColRow(m.Hi)
		block = conc.Block{ColLo: cLo, ColHi: cHi, RowLo: rLo, RowHi: rHi}
	}
	return conc.NewPartition(e.g.Size(), e.g.Delta(), e.g.Workspace().Lo, block)
}
