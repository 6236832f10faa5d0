package core

import (
	"math/bits"
	"slices"

	"cpm/internal/model"
)

// Result-diff collection — the engine side of push-based delivery.
//
// With diffs enabled the engine extends the change-notification bookkeeping
// of changes.go: whenever a cycle is found to have changed a query's result
// (against the per-query reported snapshot that is kept anyway), the exact
// entered/exited/re-ranked delta is derived in one O(k) pass over the two
// sorted lists, at the moment of the change, inside ProcessBatch. Unchanged
// queries are never diffed — the existing cheap equality check rejects them
// first — and nothing ever re-diffs full result sets after the fact.
//
// Diffs accumulate until TakeDiffs, which the owning monitor calls once
// after every mutating operation; the paired ordering contract with the
// sharded monitor (internal/shard) is that a take is stable-ordered by
// query id, so single-engine and sharded streams are byte-for-byte equal.
// Repeated changes to one query within a single buffer window — PerUpdate
// resolving the same query several times per batch, or several mutating
// calls between takes — compose into one event diffed against the first
// change's base, so a take carries at most one live diff per query and
// its ids match ChangedQueries when taken once per ProcessBatch.
//
// Ownership: every slice an event carries is carved (carve) from the
// engine's arena chunks, so the events of one take (and of its neighbours)
// share backing arrays. The chunks are handed off with the events and never
// reused, so events stay valid — and read-only — for as long as a consumer
// holds them; each slice has cap == len, so an append by a consumer
// reallocates instead of writing into a neighbouring event. An event
// retained indefinitely pins its whole chunk: long-lived consumers copy.

// arenaChunk is the size of an arena chunk in elements: 64 KB of neighbors,
// 16 KB of ids. A paper-default tick (500 k=16 diffs) fills about five.
const arenaChunk = 4096

// carve returns a cap == len copy of src (nil for an empty src) cut from
// *free, the unused tail of an arena's current chunk. A request that does
// not fit starts a fresh chunk — an oversized one gets an exact chunk of
// its own — and the old chunk is left to the events that point into it.
func carve[T any](free *[]T, src []T) []T {
	n := len(src)
	if n == 0 {
		return nil
	}
	if n > len(*free) {
		*free = make([]T, max(n, arenaChunk))
	}
	out := (*free)[:n:n]
	*free = (*free)[n:]
	copy(out, src)
	return out
}

// diffMark locates a query's pending event in the current take window:
// diffs[at] is the query's event while win equals the engine's diffWin.
// Embedded in both query kinds; the zero value is "nothing pending".
type diffMark struct {
	win int64
	at  int
}

// idSlot is one slot of the diff pass's open-addressed id → rank table. A
// slot is occupied only while its gen equals the table's current
// generation, so starting a new pass costs one increment, not a clear.
type idSlot struct {
	id   model.ObjectID
	rank int32
	gen  uint64
}

// EnableDiffs switches per-cycle result-diff collection on or off.
// Disabling discards any diffs not yet taken.
func (e *Engine) EnableDiffs(on bool) {
	e.diffsOn = on
	if !on {
		e.TakeDiffs()
	}
}

// TakeDiffs returns the result diffs accumulated since the last call,
// stable-ordered by query id, and opens a new window. It returns nil when
// diff collection is disabled or nothing changed. The returned slice is a
// buffer borrowed until the next TakeDiffs call; the events in it (and the
// slices they carry) are handed off and stay valid. Callers that enable
// diffs must take them regularly (the monitors do, once per mutating
// operation); otherwise the buffer grows without bound.
func (e *Engine) TakeDiffs() []model.ResultDiff {
	win := e.diffs
	// Ordering the window by (query, position) keys is a stable sort by
	// query id that moves 8-byte integers instead of 104-byte events, and
	// costs one pass when the window is already in id order.
	order := e.diffOrder[:0]
	for i := range win {
		order = append(order, int64(win[i].Query)<<32|int64(i))
	}
	slices.Sort(order)
	// The previous take's events die here, the window's move over; neither
	// buffer keeps a stale event that would pin its arena chunk.
	clear(e.taken)
	out := slices.Grow(e.taken[:0], len(win))[:len(win)]
	for k, key := range order {
		out[k] = win[int32(key)]
	}
	clear(win)
	clear(e.diffBase)
	e.diffs, e.diffBase, e.diffOrder, e.taken = win[:0], e.diffBase[:0], order, out
	e.baseBuf = e.baseBuf[:0]
	e.diffWin++
	if len(out) == 0 {
		return nil
	}
	return out
}

// noteDiff records a changed query's delta: the first change in a window
// appends a fresh diff (remembering a copy of the pre-change snapshot as
// the base), further changes re-diff the current result against that base
// in place, keeping the window at one event per query. Both inputs are
// copied as needed; callers may keep mutating their storage.
func (e *Engine) noteDiff(id model.QueryID, m *diffMark, base, cur []model.Neighbor) {
	if m.win == e.diffWin {
		kind := e.diffs[m.at].Kind
		e.diffs[m.at] = e.diffResult(id, e.diffBase[m.at], cur)
		e.diffs[m.at].Kind = kind // a composed install stays an install
		if kind == model.DiffInstall {
			e.diffs[m.at].Entered = e.diffs[m.at].Result
		}
		return
	}
	*m = diffMark{win: e.diffWin, at: len(e.diffs)}
	// Bases never leave the engine, so they need no arena: they queue up in
	// one buffer that the next take rewinds. (A base cut before the buffer
	// grew keeps pointing into the old array, which is just as good.)
	n := len(e.baseBuf)
	e.baseBuf = append(e.baseBuf, base...)
	e.diffBase = append(e.diffBase, e.baseBuf[n:])
	e.diffs = append(e.diffs, e.diffResult(id, base, cur))
}

// diffResult builds the delta between a query's previously reported result
// and its current one. Both inputs are ordered by (Dist, ID), but an object
// whose distance changed may sit anywhere in the other list, so the two are
// matched by id through a reused open-addressed table: O(k) expected, no
// map and nothing to clear. Only called when the two differ.
func (e *Engine) diffResult(id model.QueryID, old, cur []model.Neighbor) model.ResultDiff {
	// A power of two above 2k keeps the load factor under one half.
	if need := 1 << bits.Len(uint(2*len(old))); len(e.diffTab) < need {
		e.diffTab = make([]idSlot, need)
	}
	e.diffGen++
	tab, gen, mask := e.diffTab, e.diffGen, uint32(len(e.diffTab)-1)
	slot := func(oid model.ObjectID) *idSlot {
		for h := uint32(oid) * 0x9E3779B1 >> 7 & mask; ; h = (h + 1) & mask {
			if s := &tab[h]; s.gen != gen || s.id == oid {
				return s
			}
		}
	}
	for j := range old {
		*slot(old[j].ID) = idSlot{id: old[j].ID, rank: int32(j), gen: gen}
	}
	matched := slices.Grow(e.diffSeen[:0], len(old))[:len(old)]
	clear(matched)
	ent, rer, ex := e.diffEnt[:0], e.diffRer[:0], e.diffEx[:0]
	for i, n := range cur {
		s := slot(n.ID)
		if s.gen != gen {
			ent = append(ent, n)
			continue
		}
		j := int(s.rank)
		matched[j] = true
		if old[j].Dist != n.Dist || j != i {
			rer = append(rer, n)
		}
	}
	for j := range old {
		if !matched[j] {
			ex = append(ex, old[j].ID)
		}
	}
	e.diffSeen = matched
	e.diffEnt, e.diffRer, e.diffEx = ent, rer, ex
	return model.ResultDiff{
		Query:    id,
		Kind:     model.DiffUpdate,
		Entered:  carve(&e.freeNbrs, ent),
		Exited:   carve(&e.freeIDs, ex),
		Reranked: carve(&e.freeNbrs, rer),
		Result:   carve(&e.freeNbrs, cur),
	}
}

// noteInstalled emits the DiffInstall event of a fresh registration; res is
// the initial result (copied once, shared by Entered and Result — diffs are
// read-only to consumers). The base of an installation is the empty set,
// so later changes in the same window compose into the install event.
func (e *Engine) noteInstalled(id model.QueryID, m *diffMark, res []model.Neighbor) {
	if !e.diffsOn {
		return
	}
	res = carve(&e.freeNbrs, res)
	*m = diffMark{win: e.diffWin, at: len(e.diffs)}
	e.diffBase = append(e.diffBase, nil)
	e.diffs = append(e.diffs, model.ResultDiff{
		Query:   id,
		Kind:    model.DiffInstall,
		Entered: res,
		Result:  res,
	})
}
