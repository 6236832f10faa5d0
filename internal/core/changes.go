package core

import (
	"slices"

	"cpm/internal/model"
)

// Result-change notification — the "inform client for updated results"
// step of the monitoring cycle (Figure 3.9, line 10).
//
// The engine keeps, per query, the result as last reported to the client,
// and after each processing cycle exposes the set of queries whose current
// result differs. Only queries actually touched by a cycle are compared,
// so the check costs O(k) per *affected* query, not per installed query.
// The set itself is a reused slice deduped by generation stamp, so a
// steady-state cycle records changes without allocating.

// reportedEqual compares a stored snapshot with the live result.
func reportedEqual(reported, current []model.Neighbor) bool {
	if len(reported) != len(current) {
		return false
	}
	for i := range reported {
		if reported[i] != current[i] {
			return false
		}
	}
	return true
}

// markChanged records id in the notification set. mark is the owning
// query's dedupe stamp: a query already recorded in the current window is
// not appended again.
func (e *Engine) markChanged(id model.QueryID, mark *int64) {
	if *mark == e.changeGen {
		return
	}
	*mark = e.changeGen
	e.changedIDs = append(e.changedIDs, id)
}

// noteIfChanged compares a query's result against its reported snapshot,
// records a change (and, with diffs enabled, the exact delta) and refreshes
// the snapshot. A range query's sorted result is built into the engine's
// pooled scratch buffer (current), so the unchanged fast path allocates
// nothing for either kind once the buffers are warm.
func (e *Engine) noteIfChanged(qu *query) {
	cur := e.current(qu)
	if reportedEqual(qu.reported, cur) {
		return
	}
	if e.diffsOn {
		e.noteDiff(qu.id, &qu.pend, qu.reported, cur)
	}
	qu.reported = append(qu.reported[:0], cur...)
	e.markChanged(qu.id, &qu.changedMark)
}

// noteRemoved reports a query's disappearance as a final change;
// lastReported is the result as the engine last reported it and m the
// query's diff mark. A pending diff for the query in the current window is
// composed away: the remove event lists what the subscriber actually saw
// (the pending diff's base), and a reinstall of the id later in the window
// starts a fresh event.
func (e *Engine) noteRemoved(id model.QueryID, m *diffMark, lastReported []model.Neighbor) {
	// The query's slot (and its dedupe stamp) goes to the next registration,
	// so append unconditionally; ChangedQueries dedupes on read.
	e.changedIDs = append(e.changedIDs, id)
	if !e.diffsOn {
		return
	}
	seen := lastReported
	if m.win == e.diffWin {
		seen = e.diffBase[m.at]
	}
	exited := e.diffEx[:0]
	for i := range seen {
		exited = append(exited, seen[i].ID)
	}
	e.diffEx = exited
	rm := model.ResultDiff{Query: id, Kind: model.DiffRemove, Exited: e.idArena.Copy(exited)}
	if m.win == e.diffWin {
		e.diffs[m.at] = rm
	} else {
		e.diffBase = append(e.diffBase, nil)
		e.diffs = append(e.diffs, rm)
	}
}

// ChangedQueries returns the ids of queries whose results changed during
// the last cycle (including queries that moved, were installed or
// were terminated by it), in ascending order. The set resets at the start
// of every cycle.
func (e *Engine) ChangedQueries() []model.QueryID {
	if len(e.changedIDs) == 0 {
		return nil
	}
	out := append([]model.QueryID(nil), e.changedIDs...)
	slices.Sort(out)
	// Terminations append without a dedupe stamp; compact duplicates.
	return slices.Compact(out)
}

// AppendChangedIDs appends the raw changed-id set — unsorted, possibly
// holding duplicate termination entries — to buf and returns the extended
// slice. The sharded monitor merges the raw sets of all engines into one
// reused buffer and sorts/compacts once, so the serving path allocates
// nothing beyond the shared buffer's warm capacity.
func (e *Engine) AppendChangedIDs(buf []model.QueryID) []model.QueryID {
	return append(buf, e.changedIDs...)
}
