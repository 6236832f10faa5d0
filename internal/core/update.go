package core

import (
	"time"

	"cpm/internal/geom"
	"cpm/internal/grid"
	"cpm/internal/model"
)

// The NN Monitoring loop of Figure 3.9 runs in three calls, driven by the
// grid's owner (internal/shard's monitor), which reads Watched after the
// first and then applies the tick's object stream U_P to the grid:
//
//	BeginCycle(U_q)          stamp the queries U_q rebuilds or removes and
//	                         drop their entries, install the other pending
//	                         queries
//	Watched()                the cells whose updates the log must hold
//	grid.ApplyWatched(U_P)   the owner's write window, logging what matters
//	ScanApplied(log)         Figure 3.8: influence scans, then resolution
//	ApplyQueryUpdates(U_q)   terminations and moves (Section 3.3); closes
//	                         the cycle
//
// The log-then-scan split is lossless: the influence scans of Figure 3.8
// classify objects by their logged position and cell transition and never
// read the grid's object data, so scanning after all writes observes exactly
// what interleaved scanning did. The log need hold only the updates touching
// a Watched cell: any other one would meet empty influence lists, so it
// costs its index maintenance and nothing else (the paper's
// Time_ind). Section 3.2's per-update handling is a cycle per update: the
// harness's CPM-perupd wrapper (internal/bench) feeds the monitor one
// single-update batch at a time.
//
// A search from scratch leaves its query pending and owing its book-keeping
// (see Engine.infl), and the install step skips the queries of the open
// cycle's ignore set, so a query that moves every cycle never builds its
// book-keeping, enters the index or widens Watched.
// BeginCycle installs every pending query the cycle keeps, so ScanApplied
// follows it with no registration in between and scans a complete index.
// Otherwise correctness does not depend on the call order: between cycles
// nothing is ignored, so a Watched read before BeginCycle is a superset,
// and an owner that logs every update (grid.ApplyBatch) may apply before
// BeginCycle. Only BeginCycle before Watched keeps the moved queries out of
// the filter.
//
// A steady-state cycle (moves only, warmed buffers) performs zero heap
// allocations: the per-cycle sets are reused slices, and all influence and
// cell scans iterate borrowed slices.

// BeginCycle opens one processing cycle: it resets the phase decomposition
// and the notification window, and stamps the queries that the query
// updates in queries will rebuild or remove so the object-update scans skip
// them (the per-cycle "ignore" set of Figure 3.9, kept as generation marks
// instead of a map). A stamped query that is installed leaves the index
// here — the removals its move or termination makes anyway, made before
// Watched is read — and waits pending for ApplyQueryUpdates. A query whose
// only update rebuilds nothing — an install, an unknown kind, an invalid
// move — keeps following the object stream. It then installs every other
// pending query (installPending). The sharded monitor runs this on every
// engine, each on its shard's worker, before it reads Watched and applies
// the tick's writes.
func (e *Engine) BeginCycle(queries []model.QueryUpdate) {
	e.phases = model.PhaseNanos{}
	e.changeGen++
	e.changedIDs = e.changedIDs[:0]
	e.batchGen++
	for _, u := range queries {
		qu, ok := e.ids[u.ID]
		if ok && (u.Kind == model.QueryTerminate || u.Kind == model.QueryMove && ValidMove(qu.def.Points, u.NewPoints)) {
			qu.ignoreMark = e.batchGen
			if !qu.pending {
				e.clearInfluence(qu)
				e.queue(qu)
			}
		}
	}
	e.installPending()
}

// ScanApplied routes one write log — the grid mutations of a tick, already
// applied by the grid's owner — through the engine's influence index
// (Figure 3.8 scans) and resolves every touched query. It follows the
// cycle's BeginCycle, which installed every query the cycle keeps (the
// cpmassert build checks this). The grid must be at a stable epoch: the
// scans read only the log and per-query state, and resolution reads the
// grid.
func (e *Engine) ScanApplied(log []grid.Applied) {
	e.assertKeptInstalled()
	e.cycle++
	t0 := time.Now()
	e.scan(log)
	t1 := time.Now()
	e.resolveDirty()
	t2 := time.Now()
	e.phases.Relocate += t1.Sub(t0).Nanoseconds()
	e.phases.Reeval += t2.Sub(t1).Nanoseconds()
}

// ApplyQueryUpdates applies the query stream U_q for the cycle opened by
// BeginCycle — the updates passed to BeginCycle — and closes the cycle:
// its ignore set lapses. Inconsistent elements (updates for unknown
// queries, bad moves) are dropped and counted in InvalidQueryUpdates; a
// monitoring server must outlive a misbehaving client.
func (e *Engine) ApplyQueryUpdates(queries []model.QueryUpdate) {
	qStart := time.Now()
	for _, u := range queries {
		switch u.Kind {
		case model.QueryTerminate:
			if _, ok := e.ids[u.ID]; !ok {
				e.invalidQueries++
				continue
			}
			// A move of this query earlier in the batch is noted before
			// the query goes: the touched list never holds a removed one.
			e.noteTouched()
			e.RemoveQuery(u.ID)
		case model.QueryMove:
			// Moved queries go on the touched list (empty here: every
			// scan round drains it) and are noted in one pass below.
			if qu := e.ids[u.ID]; qu == nil || e.move(qu, u.NewPoints) != nil {
				e.invalidQueries++
			} else {
				e.touched = append(e.touched, qu)
			}
		case model.QueryInstall:
			// Installations happen through Register, which computes the
			// initial result immediately; the stream entry is a no-op kept
			// for symmetry with the paper's U_q.
		default:
			e.invalidQueries++
		}
	}
	e.noteTouched()
	e.batchGen++
	e.phases.QueryUpd += time.Since(qStart).Nanoseconds()
}

// touch records a query in the touched list the first time one of a
// cycle's updates concerns it, and lazily initializes a k-NN query's
// per-cycle update-handling state (Figure 3.8 lines 1–3). refDist freezes
// best_dist at its start-of-cycle value: incomer/outgoer classification must
// use the influence-region radius, not a value drifting as the result
// mutates mid-cycle. A range query keeps no per-cycle state.
func (e *Engine) touch(qu *query) {
	if qu.cycleMark == e.cycle {
		return
	}
	qu.cycleMark = e.cycle
	e.touched = append(e.touched, qu)
	if qu.h&rangeBit != 0 {
		return
	}
	qu.refDist = qu.best.kthDist()
	qu.outCount = 0
	qu.inList.reset()
	qu.inDropped = false
	qu.forceRecompute = false
}

// scan performs the influence-list scans of Figure 3.8 (lines 4–16) over a
// tick's write log, extended with insert and delete events: a deleted NN is
// an outgoing NN ("CPM trivially deals with off-line NNs by treating them as
// outgoing ones", Section 4.2). Each influence list is walked once:
// the handle says whether the entry is a k-NN query or a range query, which
// folds the event into its member set (foldRange) — once per event, so the
// new cell's walk skips the range queries when the object stayed in its cell.
func (e *Engine) scan(log []grid.Applied) {
	infl := e.infl
	occupied := infl.Occupied()
	for i := range log {
		a := &log[i]
		switch a.Kind {
		case model.Move:
			// Affected-cell pre-filter: with both cells outside every
			// influence region of this engine the Figure 3.8 scans would
			// iterate empty influence lists. The log only holds updates
			// touching some shard's region; this is the per-engine
			// routing filter on top.
			if !occupied.Has(a.Old) && !occupied.Has(a.New) {
				continue
			}
			e.scanOldCell(infl.List(a.Old), a.ID, a.Pos)
			e.scanNewCell(infl.List(a.New), a.ID, a.Pos, a.New != a.Old)
		case model.Insert:
			e.scanNewCell(infl.List(a.New), a.ID, a.Pos, true)
		case model.Delete:
			for _, h := range infl.List(a.Old) {
				qu := e.active(h)
				if qu == nil {
					continue
				}
				e.touch(qu)
				if h&rangeBit != 0 {
					delete(qu.members, a.ID)
					continue
				}
				if qu.best.remove(a.ID) {
					qu.outCount++
				}
				qu.dropIncomer(a.ID)
			}
		}
	}
}

// scanOldCell handles lines 6–12 of Figure 3.8 for the cell the object
// left: a current NN either has its order updated (it stays within
// refDist) or becomes an outgoing NN. A pending incomer that moved again is
// dropped from in_list; scanNewCell re-admits it if it still qualifies.
// The influence list is iterated as a borrowed slice: the scans only
// mutate per-query result state, never the influence lists themselves.
func (e *Engine) scanOldCell(list []grid.Handle, id model.ObjectID, newPos geom.Point) {
	for _, h := range list {
		qu := e.active(h)
		if qu == nil {
			continue
		}
		e.touch(qu)
		if h&rangeBit != 0 {
			qu.foldRange(id, newPos)
			continue
		}
		if !qu.best.contains(id) {
			qu.dropIncomer(id)
			continue
		}
		d := qu.def.dist(newPos)
		if d <= qu.refDist && qu.def.admits(newPos) {
			qu.best.updateDist(id, d)
		} else {
			qu.best.remove(id)
			qu.outCount++
		}
	}
}

// scanNewCell handles lines 14–16 of Figure 3.8 for the cell the object
// entered: an object other than a current NN that lies within refDist (and
// inside the constraint region, if any) is an incoming object. ranges is
// false when scanOldCell walked this very list for the same event.
func (e *Engine) scanNewCell(list []grid.Handle, id model.ObjectID, newPos geom.Point, ranges bool) {
	for _, h := range list {
		qu := e.active(h)
		if qu == nil {
			continue
		}
		if h&rangeBit != 0 {
			if ranges {
				e.touch(qu)
				qu.foldRange(id, newPos)
			}
			continue
		}
		e.touch(qu)
		if qu.best.contains(id) {
			continue
		}
		d := qu.def.dist(newPos)
		if d <= qu.refDist && qu.def.admits(newPos) {
			qu.dropIncomer(id) // refresh a pending incomer's distance
			if qu.inList.full() {
				qu.inDropped = true // the offer will discard some incomer
			}
			qu.inList.offer(id, d)
		} else {
			qu.dropIncomer(id)
		}
	}
}

// dropIncomer removes a pending incomer. If the capped in_list previously
// discarded an incomer, the discarded one might have ranked better than
// what remains, so losing a retained entry afterwards makes the in_list an
// unreliable top-k and the query must re-compute (see the query struct).
func (qu *query) dropIncomer(id model.ObjectID) {
	if qu.inList.remove(id) && qu.inDropped {
		qu.forceRecompute = true
	}
}

// active resolves a handle read from an influence list to its slot of the
// query table, skipping queries with their own update in the current batch.
func (e *Engine) active(h grid.Handle) *query {
	qu := e.slots[h>>1]
	if qu.ignoreMark == e.batchGen {
		return nil
	}
	return qu
}

// resolveDirty performs lines 17–24 of Figure 3.8 for every query touched
// this cycle: if the incoming objects are at least as many as the outgoing
// NNs, the new result is the k best of best_NN ∪ in_list — the circle of
// radius refDist provably still holds k objects, so no grid access is
// needed. Otherwise the NN Re-Computation module runs. Either way the
// influence region is re-tightened to the new best_dist.
func (e *Engine) resolveDirty() {
	for _, qu := range e.touched {
		if qu.h&rangeBit != 0 {
			continue // membership was settled by the scan itself
		}
		if !qu.forceRecompute && qu.inList.len() >= qu.outCount {
			e.stats.ShortCircuits++
			for _, n := range qu.inList.items {
				qu.best.offer(n.ID, n.Dist)
			}
			e.shrinkInfluence(qu)
		} else {
			e.recompute(qu)
		}
		qu.outCount = 0
		qu.inList.reset()
	}
	e.noteTouched()
}

// noteTouched is the notification step (Figure 3.9 line 10) for every
// query on the touched list: each is compared with its reported result
// and, if it changed, recorded (with its delta while diffs are on); the
// list is drained. It runs as a pass of its own — after every touched
// query is resolved, or after every query update of a batch is applied —
// because the notes read only per-query state, so their order is
// unobservable, and one pass costs one PhaseNanos.Diff bracket instead of
// two clock reads per diff. A query a batch moves twice is noted once,
// against the result it had before the batch.
func (e *Engine) noteTouched() {
	start := time.Now()
	for _, qu := range e.touched {
		e.noteIfChanged(qu)
	}
	e.touched = e.touched[:0]
	if e.diffsOn {
		e.phases.Diff += time.Since(start).Nanoseconds()
	}
}
