package core

import (
	"fmt"
	"testing"

	"cpm/internal/geom"
	"cpm/internal/model"
)

// The two states of a query (see Engine.infl): a search from scratch leaves
// it pending, with no influence entries, and the install step writes its
// prefix when the index is next read — unless the open cycle rebuilds or
// removes it.

// engineModes are the option sets every test here runs under. With both
// options a re-computation leaves its query pending between two one-update
// scans, which only ScanApplied's own install step puts back in the index.
var engineModes = []Options{{}, {PerUpdate: true}, {DropBookkeeping: true}, {PerUpdate: true, DropBookkeeping: true}}

// pendingTenants is one query of every kind the engine keeps.
func pendingTenants(w *world) map[model.QueryID]slotTenant {
	region := geom.Rect{Lo: geom.Point{X: 0.2, Y: 0.2}, Hi: geom.Point{X: 0.8, Y: 0.8}}
	return map[model.QueryID]slotTenant{
		0: {def: PointQuery(w.randPoint(), 3)},
		1: {def: AggQuery([]geom.Point{w.randPoint(), w.randPoint()}, 4, geom.AggSum)},
		2: {def: Def{Points: []geom.Point{{X: 0.5, Y: 0.4}}, K: 2, Constraint: &region}},
		3: {def: PointQuery(w.randPoint(), 0), radius: 0.15},
		4: {def: PointQuery(w.randPoint(), 8)},
	}
}

// pendingWorld is an engine over 500 objects with the tenants registered
// in id order, so query i holds slot i.
func pendingWorld(t *testing.T, seed int64, opts Options) (*world, *testEngine, map[model.QueryID]slotTenant) {
	t.Helper()
	w := newWorld(seed)
	e := newTestEngine(16, opts)
	e.Bootstrap(w.populate(500))
	live := pendingTenants(w)
	for id := range model.QueryID(len(live)) {
		if err := live[id].register(e, id); err != nil {
			t.Fatal(err)
		}
	}
	return w, e, live
}

// moveTenants adds to b a move of each listed query to fresh random points.
func moveTenants(w *world, b *model.Batch, live map[model.QueryID]slotTenant, ids ...model.QueryID) {
	for _, id := range ids {
		q := live[id]
		pts := make([]geom.Point, len(q.def.Points))
		for i := range pts {
			pts[i] = w.randPoint()
		}
		q.def.Points = pts
		live[id] = q
		b.Queries = append(b.Queries, model.QueryUpdate{ID: id, Kind: model.QueryMove, NewPoints: pts})
	}
}

// allTenants lists the ids of live.
func allTenants(live map[model.QueryID]slotTenant) []model.QueryID {
	ids := make([]model.QueryID, 0, len(live))
	for id := range live {
		ids = append(ids, id)
	}
	return ids
}

// checkOracle compares every live query's result with the oracle without
// reading the index (checkInvariants would install the pending queries).
func checkOracle(t *testing.T, e *testEngine, label string, live map[model.QueryID]slotTenant) {
	t.Helper()
	for id, q := range live {
		l := fmt.Sprintf("%s q%d", label, id)
		if q.radius > 0 {
			checkResult(t, l, e.RangeResult(id), rangeOracle(e, q.def.Points[0], q.radius))
		} else {
			checkResult(t, l, e.Result(id), oracle(e, q.def))
		}
	}
}

// checkStates asserts the two states without installing anything: the
// pending list holds each slot once and exactly the slots flagged pending,
// a pending query holds no entry, an installed one exactly its influence
// prefix, and the index nothing else. It returns how many live queries are
// pending.
func checkStates(t *testing.T, e *testEngine, label string) int {
	t.Helper()
	listed := map[*query]int{}
	for _, qu := range e.pending {
		if listed[qu]++; !qu.pending || listed[qu] > 1 {
			t.Fatalf("%s: slot %d listed %d times, flagged pending %v", label, qu.h>>1, listed[qu], qu.pending)
		}
	}
	pending := 0
	var installed int64
	for id, qu := range e.ids {
		if qu.pending != (listed[qu] == 1) {
			t.Fatalf("%s: query %d flagged pending %v, listed %d times", label, id, qu.pending, listed[qu])
		}
		if qu.pending {
			pending++
		} else {
			installed += int64(qu.influenceEnd)
		}
		for i, ve := range qu.visit {
			if want := !qu.pending && i < qu.influenceEnd; e.infl.Has(ve.cell, qu.h) != want {
				t.Fatalf("%s: query %d (pending %v) has an entry on visit[%d] (cell %d): %v, want %v",
					label, id, qu.pending, i, ve.cell, !want, want)
			}
		}
	}
	if got := e.infl.Entries(); got != installed {
		t.Fatalf("%s: the index holds %d entries, the installed prefixes %d", label, got, installed)
	}
	return pending
}

// stillBatch runs one batch without query updates and checks that its
// BeginCycle installs every pending query: afterwards none is pending, the
// pending list is empty — parked slots included — and the index holds
// exactly the prefixes.
func stillBatch(t *testing.T, e *testEngine, w *world, label string) {
	t.Helper()
	b := w.randomBatch(60, e.opts.PerUpdate)
	e.BeginCycle(nil)
	if n := checkStates(t, e, label); n != 0 || len(e.pending) != 0 {
		t.Fatalf("%s: %d queries pending and %d slots listed after BeginCycle", label, n, len(e.pending))
	}
	if e.infl.Entries() == 0 {
		t.Fatalf("%s: nothing installed", label)
	}
	e.finishCycle(b)
}

// TestMovedQueriesStayPending: queries moved in every batch are rebuilt
// before anything reads their lists, so they never write them: the index
// stays empty and the pending list holds each query once, however often it
// moved. A moved k-NN query never builds its book-keeping either: it owes
// it, and holds no visit entry beyond the cells its search scanned, no
// leftover search state and no prefix; a batch's cell accesses are the
// cells its searches scanned. One batch without a move then installs
// exactly the prefixes.
func TestMovedQueriesStayPending(t *testing.T) {
	for _, opts := range engineModes {
		t.Run(fmt.Sprintf("%+v", opts), func(t *testing.T) {
			w, e, live := pendingWorld(t, 31, opts)
			for batch := range 8 {
				label := fmt.Sprintf("moving batch %d", batch)
				b := w.randomBatch(60, opts.PerUpdate)
				moveTenants(w, &b, live, allTenants(live)...)
				before := e.Stats().CellAccesses
				e.ProcessBatch(b)
				if n := e.infl.Entries(); n != 0 {
					t.Fatalf("%s: %d influence entries, want 0", label, n)
				}
				var visits int64
				for id, qu := range e.ids {
					visits += int64(len(qu.visit))
					if qu.h&rangeBit != 0 {
						continue
					}
					if !qu.owes || qu.influenceEnd != 0 || qu.leftover() != 0 {
						t.Fatalf("%s: moved query %d owes %v, prefix %d, leftover %d; want owing, 0, 0",
							label, id, qu.owes, qu.influenceEnd, qu.leftover())
					}
					for _, ve := range qu.visit {
						if e.g.Len(ve.cell) == 0 {
							t.Fatalf("%s: moved query %d holds the empty cell %d, which its search passed by", label, id, ve.cell)
						}
					}
				}
				if n := e.Stats().CellAccesses - before; n != visits {
					t.Fatalf("%s: %d cell accesses, the searches' visit lists hold %d", label, n, visits)
				}
				if n := checkStates(t, e, label); n != len(live) || len(e.pending) != len(live) {
					t.Fatalf("%s: %d queries pending, %d listed, want %d", label, n, len(e.pending), len(live))
				}
				checkOracle(t, e, label, live)
			}
			stillBatch(t, e, w, "still batch")
			for id, q := range live {
				q.check(t, e, "after the still batch", id)
			}
		})
	}
}

// TestPendingSlotReArmed: a query removed while pending leaves its slot on
// the pending list. Re-armed under another id and as another kind, the slot
// is listed once; terminated by a batch that ignores it, it stays listed
// and installs nothing; the next still batch drains the list.
func TestPendingSlotReArmed(t *testing.T) {
	for _, opts := range engineModes {
		t.Run(fmt.Sprintf("%+v", opts), func(t *testing.T) {
			w, e, live := pendingWorld(t, 37, opts)
			stillBatch(t, e, w, "installed")

			b := w.randomBatch(40, opts.PerUpdate)
			moveTenants(w, &b, live, 0, 3)
			e.ProcessBatch(b)
			if !e.ids[0].pending || !e.ids[3].pending {
				t.Fatal("moved queries 0 and 3 are not pending")
			}
			checkStates(t, e, "moved")
			listed := len(e.pending)

			// Query 0 (k-NN) goes between batches; a range query under a new
			// id takes its slot.
			e.RemoveQuery(0)
			delete(live, 0)
			live[10] = slotTenant{def: PointQuery(w.randPoint(), 0), radius: 0.2}
			if err := live[10].register(e, 10); err != nil {
				t.Fatal(err)
			}
			if e.ids[10].h>>1 != 0 || len(e.pending) != listed {
				t.Fatalf("query 10 took slot %d with %d slots listed, want slot 0 and %d listed", e.ids[10].h>>1, len(e.pending), listed)
			}
			checkStates(t, e, "re-armed")
			checkOracle(t, e, "re-armed", live)

			// Query 3 is pending and terminated by a batch whose cycle
			// ignores it: its parked slot stays listed with nothing to
			// install, and a k-NN query under a new id re-arms it.
			b = w.randomBatch(40, opts.PerUpdate)
			b.Queries = append(b.Queries, model.QueryUpdate{ID: 3, Kind: model.QueryTerminate})
			delete(live, 3)
			moveTenants(w, &b, live, 10)
			e.ProcessBatch(b)
			checkStates(t, e, "terminated")
			checkOracle(t, e, "terminated", live)
			live[11] = slotTenant{def: PointQuery(w.randPoint(), 6)}
			if err := live[11].register(e, 11); err != nil {
				t.Fatal(err)
			}
			if e.ids[11].h>>1 != 3 {
				t.Fatalf("query 11 took slot %d, want slot 3", e.ids[11].h>>1)
			}
			checkStates(t, e, "re-armed after termination")

			stillBatch(t, e, w, "drained")
			for id, q := range live {
				q.check(t, e, "drained", id)
			}
		})
	}
}

// TestReindexWhilePending: a resize rebuilds every prefix on the new
// geometry and installs it, pending queries included, each once; moves and
// still batches then run on as before.
func TestReindexWhilePending(t *testing.T) {
	for _, opts := range engineModes {
		t.Run(fmt.Sprintf("%+v", opts), func(t *testing.T) {
			w, e, live := pendingWorld(t, 41, opts)
			b := w.randomBatch(40, opts.PerUpdate)
			moveTenants(w, &b, live, 1, 3)
			e.ProcessBatch(b)
			if n := checkStates(t, e, "moved"); n < 2 {
				t.Fatalf("moved: %d queries pending, want at least 2", n)
			}
			e.Rebalance(11)
			if n := checkStates(t, e, "reindexed"); n != 0 || len(e.pending) != 0 {
				t.Fatalf("reindexed: %d queries pending, %d listed", n, len(e.pending))
			}
			for id, q := range live {
				q.check(t, e, "reindexed", id)
			}
			b = w.randomBatch(40, opts.PerUpdate)
			moveTenants(w, &b, live, 0, 4)
			e.ProcessBatch(b)
			checkStates(t, e, "moved after reindex")
			checkOracle(t, e, "moved after reindex", live)
			stillBatch(t, e, w, "still after reindex")
			for id, q := range live {
				q.check(t, e, "still after reindex", id)
			}
		})
	}
}

// TestCallOrders drives the engine in the orders an owner may use, with
// some query moving in most batches: the write log unfiltered and applied
// before BeginCycle, with no Watched read (the staged pipeline of the
// repository benchmark); BeginCycle, then Watched filtering the log (the
// sharded monitor); and Watched read before BeginCycle, which installs the
// queries the cycle then rebuilds. Under every order the results follow the
// oracle and the index holds exactly the installed prefixes.
func TestCallOrders(t *testing.T) {
	orders := map[string]func(e *testEngine, b model.Batch){
		"ApplyBatch then BeginCycle": func(e *testEngine, b model.Batch) {
			e.apply(b.Objects, nil)
			e.BeginCycle(b.Queries)
		},
		"BeginCycle then Watched": func(e *testEngine, b model.Batch) {
			e.BeginCycle(b.Queries)
			e.apply(b.Objects, e.Watched())
		},
		"Watched then BeginCycle": func(e *testEngine, b model.Batch) {
			e.apply(b.Objects, e.Watched())
			e.BeginCycle(b.Queries)
		},
	}
	for name, open := range orders {
		for _, opts := range engineModes {
			t.Run(fmt.Sprintf("%s/%+v", name, opts), func(t *testing.T) {
				w, e, live := pendingWorld(t, 43, opts)
				for batch := range 12 {
					b := w.randomBatch(60, false)
					if batch%4 != 3 {
						moveTenants(w, &b, live, model.QueryID(batch%5), 3)
					}
					open(e, b)
					e.ScanApplied(e.log)
					e.ApplyQueryUpdates(b.Queries)
					label := fmt.Sprintf("batch %d", batch)
					checkStates(t, e, label)
					checkOracle(t, e, label, live)
				}
				for id, q := range live {
					q.check(t, e, "end", id)
				}
			})
		}
	}
}
