// Package core implements CPM — the Conceptual Partitioning Monitoring
// method of Mouratidis, Hadjieleftheriou and Papadias (SIGMOD 2005) — for
// continuous (aggregate, optionally constrained) k nearest neighbor queries
// over streams of object location updates.
//
// The engine reads a grid index (internal/grid) that its owner injects
// (NewSharedEngine) and may share with sibling engines: the owner —
// internal/shard's monitor, the one driver — applies each tick's object
// stream to the grid once and feeds every engine the resulting write log
// through BeginCycle/ScanApplied/ApplyQueryUpdates (update.go). The engine
// owns a query table holding, per query: its definition, the best_NN result
// list, best_dist, the visit list and the leftover search heap (paper
// Figure 3.3a), plus the influence-list index for its queries
// (grid.Influence, written only for queries a cycle will read: see
// Engine.infl), whose lists point into the table by slot handle. Searches
// traverse the conceptual partitioning of internal/conc. The three paper
// modules map to three files:
//
//	search.go     — NN Computation        (Figure 3.4)
//	recompute.go  — NN Re-Computation     (Figure 3.6)
//	update.go     — Update Handling + the per-cycle NN Monitoring loop
//	                (Figures 3.8 and 3.9)
package core

import (
	"fmt"
	"slices"

	"cpm/internal/arena"
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

	// DropBookkeeping keeps no search heap and no visit list beyond the
	// influence prefix, as the paper suggests under memory pressure (end
	// of Section 3.3): the install step builds the prefix alone. Result
	// maintenance then falls back to NN computation from scratch whenever
	// re-computation would have run.
	DropBookkeeping bool
}

// Engine is the CPM monitor of one set of queries over a grid it reads but
// never mutates.
type Engine struct {
	g    *grid.Grid
	opts Options

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

	// infl is the influence-list index for this engine's queries. Influence
	// lists are per-query book-keeping, so they live with the engine, not in
	// the (possibly shared) grid cells.
	//
	// Each query is installed or pending. An installed query's entries in
	// infl are exactly its visit[:influenceEnd]. A search from scratch
	// (compute, evaluateRange) and Reindex leave the query pending: queued
	// on pending, once, with no entries. A k-NN search from scratch finds
	// best_NN only and leaves the query owing the rest of its book-keeping
	// (query.owes). installPending builds what a pending query owes
	// (reindexQuery) and writes the entries of every pending query the open
	// cycle does not rebuild or remove, and the readers of infl run it
	// first. The paper's moving query is a termination plus a fresh search
	// (Section 3.3), and the cycle's ignore set skips it while it has an
	// update in the batch, so a query that moves every cycle never builds
	// book-keeping or writes entries that nobody reads.
	infl    *grid.Influence
	pending []*query

	stats model.Stats
	// invalidQueries counts the query-stream elements this engine dropped;
	// the object stream is validated by the grid's owner, once.
	invalidQueries int64
	cycle          int64
	// touched holds the queries touched by the current cycle, in the order
	// the scans first reached them.
	touched []*query

	// changedIDs collects the queries whose results changed since the last
	// BeginCycle — the notification set of Figure 3.9 line 10.
	// Instead of a per-cycle map, the set is a reused dense slice deduped
	// by generation stamp: a query appends itself at most once per
	// changeGen (terminated queries append unconditionally; ChangedQueries
	// dedupes on read). Steady-state cycles therefore allocate nothing.
	changedIDs []model.QueryID
	changeGen  int64 // bumped by every BeginCycle; starts at 1
	// batchGen stamps the queries that a query update of the current batch
	// rebuilds or removes — the per-cycle "ignore" set of Figure 3.9 (the
	// object updates cannot change what the query update replaces),
	// without a per-cycle map. BeginCycle bumps it to open a cycle and
	// ApplyQueryUpdates to close one, so between cycles nothing is ignored.
	batchGen int64
	// rangeScratch is the pooled buffer current builds a range query's
	// sorted result into, so per-cycle range-change checks allocate nothing.
	rangeScratch []model.Neighbor
	// parked is the running traversal's run of cells it did not en-heap,
	// empty between traversals; sortBuf and sortEnds are orderVisit's
	// bucket-sort scratch (search.go).
	parked   []visitEntry
	sortBuf  []visitEntry
	sortEnds []int

	// Result-diff collection (diff.go): with diffsOn the engine derives,
	// for every changed query, the entered/exited/re-ranked delta against
	// its reported snapshot and buffers it in diffs until TakeDiffs, which
	// moves the window, ordered through the diffOrder keys, into taken (the
	// buffer it lends out until the next take) and bumps diffWin. A query's
	// diffMark stamped with the current diffWin points at its pending
	// event, so repeated changes within one window compose into a single
	// event; diffBase[i] is diffs[i]'s pre-change snapshot for that, cut
	// from baseBuf, which each take rewinds. Event slices are carved from
	// nbrArena and idArena. diffTab (with its generation diffGen), diffSeen
	// and diffEnt/diffRer/diffEx are the O(k) diff pass's reusable scratch.
	diffsOn   bool
	diffs     []model.ResultDiff
	taken     []model.ResultDiff
	diffOrder []int64
	diffBase  [][]model.Neighbor
	baseBuf   []model.Neighbor
	diffWin   int64
	nbrArena  arena.Slab[model.Neighbor]
	idArena   arena.Slab[model.ObjectID]
	diffTab   []idSlot
	diffGen   uint64
	diffSeen  []bool
	diffEnt   []model.Neighbor
	diffRer   []model.Neighbor
	diffEx    []model.ObjectID

	// phases is the wall-clock decomposition of the last cycle into the
	// paper's cost-model phases.
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

	best resultList // best_NN; kthDist() is best_dist

	// visit is the visit list: every cell processed by search or
	// re-computation, in ascending key (mindist/amindist) order. It is a
	// superset of the influence region. visit[:ordered] is in that order;
	// the tail beyond, which the last traversal built from de-heaped and
	// parked cells, holds keys no smaller and within best_dist but in no
	// order until orderVisit sorts it.
	visit   []visitEntry
	ordered int
	// influenceEnd is one past the last visit entry of the influence
	// region. Influence cells are always a prefix of the visit list (keys ≤
	// best_dist); they carry the query in their influence lists while it
	// is installed. pending says the query is not (see Engine.infl): the
	// slot is on the engine's pending list. The flag outlives the query, so
	// a parked slot that is still on the list stays there only once when it
	// is re-armed. owes says a search from scratch left the query best_NN
	// and the cells it scanned, and no influence prefix or leftover search
	// state: installPending builds them. clearInfluence lowers it, so a slot
	// removed while pending has nothing rebuilt.
	influenceEnd int
	pending      bool
	owes         bool
	// heap and fronts are the leftover search state of the last search:
	// heap the cells en-heaped but not de-heaped, fronts the strip each
	// direction reaches next (search.go) — the entries with key ≥
	// best_dist, including the four boundary boxes.
	heap   *qheap.Heap
	fronts [4]front

	// reported is the result as last exposed through ChangedQueries; pend
	// locates the query's pending diff event, if any (diff.go).
	reported []model.Neighbor
	pend     diffMark

	// changedMark dedupes the query's entry in the engine's changedIDs
	// list (== changeGen once recorded this notification window);
	// ignoreMark == batchGen marks a query that a query update of the
	// current batch rebuilds or removes, skipped by the object-update
	// scans.
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

// NewSharedEngine creates a CPM engine over an injected grid owned by the
// caller (the sharded monitor). The engine keeps only per-query state and
// its influence index; it never mutates the grid. Object updates must be
// applied to the grid by the owner (grid.ApplyWatched, filtered by Watched,
// or unfiltered) and fed to the engine as a write log via
// BeginCycle/ScanApplied/ApplyQueryUpdates.
func NewSharedEngine(g *grid.Grid, opts Options) *Engine {
	return &Engine{
		g:    g,
		opts: opts,
		ids:  make(map[model.QueryID]*query),
		infl: grid.NewInfluence(g.Size() * g.Size()),
		// Generations start at 1 so the zero-valued marks of a freshly armed
		// slot never collide with the current generation.
		changeGen: 1,
		batchGen:  1,
		diffWin:   1,
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
		// A search leaves a few dozen cells on the heap, and the empty
		// cells beyond best_dist arrive there at once (unpark): starting
		// at that size spares the slot's later searches the regrowing.
		qu = &query{h: grid.Handle(len(e.slots)) << 1, heap: qheap.New(64)}
		e.slots = append(e.slots, qu)
	}
	*qu = query{
		id: id, h: qu.h&^rangeBit | kind,
		def:  Def{Points: append(qu.def.Points[:0], def.Points...), K: def.K, Agg: def.Agg},
		best: qu.best, inList: qu.inList, visit: qu.visit[:0], heap: qu.heap,
		reported: qu.reported[:0], members: qu.members, pending: qu.pending,
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
// definition and leaves the query pending (a k-NN query owing its
// book-keeping).
func (e *Engine) evaluate(qu *query) {
	e.clearInfluence(qu)
	e.queue(qu)
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
	if !ValidMove(qu.def.Points, points) {
		if len(points) != len(qu.def.Points) {
			return fmt.Errorf("core: query %d move with %d points, want %d",
				qu.id, len(points), len(qu.def.Points))
		}
		return fmt.Errorf("core: non-finite query point in %v", points)
	}
	copy(qu.def.Points, points) // into the slot's own storage (see arm)
	e.evaluate(qu)
	return nil
}

// ValidMove is the engine's rule for a query move from the points from to
// the points to: one new point per query point, each finite. It holds for
// queries of both kinds. internal/cluster's definition mirror applies the
// same rule, so it stores exactly the moves an engine accepts.
func ValidMove(from, to []geom.Point) bool {
	if len(to) != len(from) {
		return false
	}
	for _, p := range to {
		if !p.Finite() {
			return false
		}
	}
	return true
}

// Result returns the current result of a k-NN query, ordered by (distance,
// id), or nil for unknown ids. The caller owns the slice.
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

// Stats returns cumulative work counters. All counters — including cell
// accesses — are engine-local: a shared grid's counter would be written by concurrent
// shards, so each engine counts the cell scans it performs itself and the
// sharded monitor sums them.
func (e *Engine) Stats() model.Stats { return e.stats }

// InvalidQueryUpdates returns how many query-stream updates the engine
// dropped as inconsistent (moves or terminations of unknown queries, moves
// with the wrong number of points or non-finite ones, unknown kinds).
func (e *Engine) InvalidQueryUpdates() int64 { return e.invalidQueries }

// LastPhases returns the wall-clock decomposition of the most recent cycle
// into the paper's cost-model phases, excluding the owner's grid
// application. Zero before the first cycle.
func (e *Engine) LastPhases() model.PhaseNanos { return e.phases }

// Bookkeeping returns the sizes of a query's stored search state: the
// visit-list length, the leftover heap length, and the influence-region
// prefix length. Their sum corresponds to the paper's C_SH + C_inf terms;
// the analysis validation experiment compares them against the Section 4.1
// estimates. A query that a search from scratch left pending owes its
// book-keeping until the install step (see Engine.infl): it reports the
// cells the search scanned, no heap and no prefix.
func (e *Engine) Bookkeeping(id model.QueryID) (visit, heap, influence int) {
	qu := e.lookup(id, 0)
	if qu == nil {
		return 0, 0, 0
	}
	return len(qu.visit), qu.leftover(), qu.influenceEnd
}

// MemoryFootprint returns the engine's size in the abstract memory units of
// Section 4.1: the grid term (3·N, counted here because this engine reads
// the grid — the sharded monitor counts it ONCE and adds every engine's
// QueryMemoryUnits instead) plus the per-query terms.
func (e *Engine) MemoryFootprint() int64 {
	return e.g.MemoryFootprint() + e.QueryMemoryUnits()
}

// QueryMemoryUnits returns the engine's own share of the Section 4.1 memory
// model, excluding the grid term: Σ influence prefixes (the entries an
// installed query holds) plus, per query, 3 units for id and coordinates,
// 2·k for the result and 3 per visit-list or heap entry (+4 boundary boxes
// live in the heap itself); a range query counts for its disk cover alone,
// a parked slot for nothing. A query that owes its book-keeping (see
// Engine.infl) holds no prefix and no heap, so it counts for its scanned
// cells only. A sharded monitor sums this over its engines and adds the
// shared grid term once.
func (e *Engine) QueryMemoryUnits() int64 {
	var units int64
	for _, qu := range e.ids {
		units += int64(qu.influenceEnd)
		if qu.h&rangeBit != 0 {
			continue
		}
		units += int64(3*len(qu.def.Points) + 2*qu.def.K)
		units += int64(3 * (len(qu.visit) + qu.leftover()))
	}
	return units
}

// Watched returns the cells on which some influence list of the engine is
// non-empty, once installPending has installed the queries the open cycle
// keeps: an object update touching none of them concerns none of the
// engine's queries, so the grid's owner may leave it out of the write log
// (grid.ApplyWatched). Read after BeginCycle, the set leaves out the cells
// only the cycle's moved and removed queries watch. The set is the
// influence index's own occupancy set, borrowed: it is current until the
// next influence change.
func (e *Engine) Watched() *grid.CellSet {
	e.installPending()
	return e.infl.Occupied()
}

// installPending writes the influence prefix of every pending query into
// the index, except the queries the open cycle rebuilds or removes
// (ignoreMark), which stay pending. A query that owes its book-keeping
// gets it first, from the replay that Reindex runs (reindexQuery); the
// cells the replay adds to the ones its search scanned count as cell
// accesses, the empty scans the search passed by, so an installed query
// costs the cells it cost before searches skipped them. It is the one place
// where a pending query enters the index; BeginCycle, Watched, ScanApplied
// and Reindex run it, so the index is complete wherever it is read.
func (e *Engine) installPending() {
	keep := e.pending[:0]
	for _, qu := range e.pending {
		if qu.ignoreMark == e.batchGen {
			keep = append(keep, qu)
			continue
		}
		if qu.owes {
			scanned := len(qu.visit)
			e.reindexQuery(qu)
			e.stats.CellAccesses += int64(len(qu.visit) - scanned)
		}
		for _, ve := range qu.visit[:qu.influenceEnd] {
			e.infl.AddUnchecked(ve.cell, qu.h)
		}
		qu.pending = false
	}
	e.pending = keep
	e.assertInstalled()
}

// queue makes a query that holds no influence entries pending. The pending
// list holds a slot at most once, however often its query is rebuilt or
// its slot re-armed before installPending runs.
func (e *Engine) queue(qu *query) {
	if !qu.pending {
		qu.pending = true
		e.pending = append(e.pending, qu)
	}
}

// setInfluenceEnd moves the query's influence prefix to end visit entries
// and, if the query is installed, writes the difference through to the
// index.
func (e *Engine) setInfluenceEnd(qu *query, end int) {
	if !qu.pending {
		for i := qu.influenceEnd; i < end; i++ {
			e.infl.AddUnchecked(qu.visit[i].cell, qu.h)
		}
		for i := end; i < qu.influenceEnd; i++ {
			e.infl.Remove(qu.visit[i].cell, qu.h)
		}
	}
	qu.influenceEnd = end
}

// clearInfluence drops the query's influence prefix, from the index too if
// the query is installed, and resets its book-keeping: the query owes none.
func (e *Engine) clearInfluence(qu *query) {
	e.setInfluenceEnd(qu, 0)
	qu.visit, qu.ordered = qu.visit[:0], 0
	qu.resetSearch()
	qu.owes = false
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
	xs, ys := e.g.Lines()
	return conc.NewGridPartition(xs, ys, e.g.Delta(), block)
}
