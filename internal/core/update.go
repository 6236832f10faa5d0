package core

import (
	"time"

	"cpm/internal/geom"
	"cpm/internal/grid"
	"cpm/internal/model"
)

// ProcessBatch runs one processing cycle: the NN Monitoring loop of Figure
// 3.9. It first handles the object updates U_P (ignoring queries that have
// their own updates this cycle, whose results are obsolete anyway), then
// applies the query updates U_q — terminations, moves (a move is a
// termination plus a fresh installation, Section 3.3) — and leaves every
// installed query's result current.
//
// Only the private-grid engine applies the object stream itself; it does so
// through grid.ApplyBatch — apply all index mutations, then scan the write
// log — which is exactly the cycle shape the sharded monitor drives
// externally over a shared grid (BeginCycle / ScanApplied /
// ApplyQueryUpdates). The log-then-scan split is lossless: the influence
// scans of Figure 3.8 classify objects by their logged position and cell
// transition and never read the grid's object data, so scanning after all
// writes observes exactly what interleaved scanning did.
//
// Inconsistent stream elements (moves or deletes of unknown objects,
// duplicate inserts, updates for unknown queries) are dropped and counted
// in InvalidUpdates; a monitoring server must outlive a misbehaving client.
//
// A steady-state cycle (moves only, warmed buffers) performs zero heap
// allocations: the write log and per-cycle sets are reused slices, and all
// influence and cell scans iterate borrowed slices.
func (e *Engine) ProcessBatch(b model.Batch) {
	if !e.ownsGrid {
		panic("core: ProcessBatch on a shared-grid engine (the monitor applies updates)")
	}
	e.BeginCycle(b.Queries)
	if e.opts.PerUpdate {
		// Ablation X2: Section 3.2 semantics — each update is applied,
		// classified and resolved on its own, so an outgoing NN triggers
		// re-computation even when a later update this cycle would have
		// compensated for it.
		for i := range b.Objects {
			var invalid int64
			e.applied, invalid = e.g.ApplyBatch(b.Objects[i:i+1], e.applied[:0])
			e.invalidObjects += invalid
			e.ScanApplied(e.applied)
		}
	} else {
		t0 := time.Now()
		var invalid int64
		e.applied, invalid = e.g.ApplyBatch(b.Objects, e.applied[:0])
		e.invalidObjects += invalid
		// Index maintenance is part of the relocation phase of the Section
		// 4 cost model; ScanApplied adds the scan share on top.
		e.phases.Relocate += time.Since(t0).Nanoseconds()
		e.ScanApplied(e.applied)
	}
	e.ApplyQueryUpdates(b.Queries)
}

// BeginCycle opens one processing cycle: it resets the phase decomposition
// and the notification window, and stamps the queries that have their own
// update in queries so the object-update scans skip them (the per-cycle
// "ignore" set of Figure 3.9, kept as generation marks instead of a map).
// The sharded monitor calls this on every engine before applying the
// tick's writes; ProcessBatch is BeginCycle + apply/ScanApplied +
// ApplyQueryUpdates.
func (e *Engine) BeginCycle(queries []model.QueryUpdate) {
	e.phases = model.PhaseNanos{}
	e.changeGen++
	e.changedIDs = e.changedIDs[:0]
	e.batchGen++
	for _, u := range queries {
		if qu, ok := e.ids[u.ID]; ok {
			qu.ignoreMark = e.batchGen
		}
	}
}

// ScanApplied routes one write log — the grid mutations of a tick (or of a
// single update in per-update mode), already applied by the grid's owner —
// through the engine's influence indexes (Figure 3.8 scans) and resolves
// every touched query. The grid must be at a stable epoch: the scans read
// only the log and per-query state, and resolution (which does read the
// grid) runs after the fan-out barrier on a serial path. Phase times
// accumulate so per-update rounds compose.
func (e *Engine) ScanApplied(log []grid.Applied) {
	e.cycle++
	t0 := time.Now()
	if e.groups == 1 {
		e.scanGroup(0, log)
	} else if len(log) > 0 {
		e.ensureScanWorkers()
		e.scanWG.Add(e.groups)
		for _, ch := range e.scanFeed {
			ch <- log
		}
		e.scanWG.Wait()
	}
	t1 := time.Now()
	e.resolveDirty()
	t2 := time.Now()
	e.phases.Relocate += t1.Sub(t0).Nanoseconds()
	e.phases.Reeval += t2.Sub(t1).Nanoseconds()
}

// ApplyQueryUpdates applies the query stream U_q for the cycle opened by
// BeginCycle. The sharded monitor routes each query update to exactly one
// engine, so the updates seen here are a subset of the batch passed to
// BeginCycle.
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
			// the query goes: the touched lists never hold a removed one.
			e.noteTouched()
			e.RemoveQuery(u.ID)
		case model.QueryMove:
			// Moved queries go on the touched lists (empty here: every
			// scan round drains them) and are noted in one pass below.
			if qu := e.ids[u.ID]; qu == nil || e.move(qu, u.NewPoints) != nil {
				e.invalidQueries++
			} else {
				e.dirty[qu.group] = append(e.dirty[qu.group], qu)
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
	e.phases.QueryUpd += time.Since(qStart).Nanoseconds()
}

// touch records a query in its group's dirty set the first time one of a
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
	e.dirty[qu.group] = append(e.dirty[qu.group], qu)
	if qu.h&rangeBit != 0 {
		return
	}
	qu.refDist = qu.best.kthDist()
	qu.outCount = 0
	qu.inList.reset()
	qu.inDropped = false
	qu.forceRecompute = false
}

// scanGroup performs the influence-list scans of Figure 3.8 (lines 4–16) for
// one scan group over a tick's write log, extended with insert and delete
// events: a deleted NN is an outgoing NN ("CPM trivially deals with off-line
// NNs by treating them as outgoing ones", Section 4.2). Group w reads only
// infls[w] and the per-query state of the queries homed there, so all groups
// can scan the same log concurrently. Each influence list is walked once:
// the handle says whether the entry is a k-NN query or a range query, which
// folds the event into its member set (foldRange) — once per event, so the
// new cell's walk skips the range queries when the object stayed in its cell.
func (e *Engine) scanGroup(w int, log []grid.Applied) {
	infl := e.infls[w]
	for i := range log {
		a := &log[i]
		switch a.Kind {
		case model.Move:
			// Affected-cell pre-filter: with both cells outside every
			// influence region of this group the Figure 3.8 scans would
			// iterate empty influence lists. Under the sharded monitor each
			// shard's influence lists cover only its own queries, which
			// makes this the per-shard (and per-group) update routing
			// filter.
			if infl.Len(a.Old) == 0 && infl.Len(a.New) == 0 {
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
// influence region is re-tightened to the new best_dist. Groups are drained
// serially in group order; the effect per query is order-independent, and
// the change/diff stream is canonicalized downstream (ChangedQueries sorts,
// TakeDiffs consumers sort by query id), so grouping does not alter
// observable output.
func (e *Engine) resolveDirty() {
	for w := range e.dirty {
		for _, qu := range e.dirty[w] {
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
	}
	e.noteTouched()
}

// noteTouched is the notification step (Figure 3.9 line 10) for every
// query on the touched lists: each is compared with its reported result
// and, if it changed, recorded (with its delta while diffs are on); the
// lists are drained. It runs as a pass of its own — after every touched
// query is resolved, or after every query update of a batch is applied —
// because the notes read only per-query state, so their order is
// unobservable, and one pass costs one PhaseNanos.Diff bracket instead of
// two clock reads per diff. A query a batch moves twice is noted once,
// against the result it had before the batch.
func (e *Engine) noteTouched() {
	start := time.Now()
	for w := range e.dirty {
		for _, qu := range e.dirty[w] {
			e.noteIfChanged(qu)
		}
		e.dirty[w] = e.dirty[w][:0]
	}
	if e.diffsOn {
		e.phases.Diff += time.Since(start).Nanoseconds()
	}
}
