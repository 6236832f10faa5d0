package core

import (
	"math"
	"slices"

	"cpm/internal/conc"
	"cpm/internal/geom"
	"cpm/internal/grid"
)

// compute is the NN Computation module (paper Figure 3.4), extended to
// aggregate and constrained queries (Section 5). It computes the query's
// result from scratch, rebuilding the visit list, the leftover search heap
// and the influence-list entries.
//
// The search visits cells in ascending key order — key being mindist(c,q)
// for point queries and amindist(c,Q) for aggregate ones — which makes the
// set of processed cells minimal: exactly the cells that could contain a
// result object must be, and are, examined. Ascending order is guaranteed
// because every heap insertion carries a key no smaller than the entry that
// produced it: cells of a strip have mindist ≥ the strip's mindist, and the
// next-level strip adds δ (Lemma 3.1).
//
// Only cells that hold objects go through the heap; the strips wait beside
// it, one per direction (front). An empty cell cannot change best_dist, so
// when it is scanned does not matter, only whether: the traversal parks it
// and settles it once best_dist is final (unpark). On a sparse grid most
// of the cells inside best_dist are empty, so the heap traffic follows the
// objects, not the area searched.
func (e *Engine) compute(qu *query) {
	e.stats.FullSearches++
	// Self-contained restart: drop any previous book-keeping first so no
	// stale influence entry can outlive the search that replaces it.
	e.clearInfluence(qu)
	qu.best.reset()

	part := e.partitionFor(qu.def)
	e.seedHeap(qu, &part, true)
	e.traverse(qu, &part, true)
	e.finishSearch(qu, len(qu.visit), 0)

	if e.opts.DropBookkeeping {
		// Memory-pressure mode (end of Section 3.3): discard the search
		// state, keeping only the influence prefix that update handling
		// needs for notification and shrinking.
		qu.visit = qu.visit[:qu.influenceEnd]
		qu.ordered = min(qu.ordered, qu.influenceEnd)
		qu.resetSearch()
	}
}

// seedHeap performs lines 3–5 of Figure 3.4: en-heap the center block's
// cells (the single cell c_q, or every cell intersecting the MBR M for an
// aggregate query) and the level-zero strip of each direction. scan is
// traverse's: false parks every cell.
func (e *Engine) seedHeap(qu *query, part *conc.Partition, scan bool) {
	b := part.Block()
	for row := b.RowLo; row <= b.RowHi; row++ {
		for col := b.ColLo; col <= b.ColHi; col++ {
			e.pushCell(qu, e.g.Index(col, row), e.g.CellRect(col, row), scan)
		}
	}
	for _, dir := range conc.Dirs {
		e.setFront(qu, part, conc.Strip{Dir: dir, Level: 0})
	}
}

// expand pushes the grid cells of strip s (Figure 3.4 line 16). The cell
// rectangles along a strip share their extent across it, and each starts
// along it where the last one ended, so one grid line per cell gives them
// all — the same lines CellRect would compute.
func (e *Engine) expand(qu *query, part *conc.Partition, s conc.Strip, scan bool) {
	fixed, lo, hi := part.CellSpan(s)
	if lo > hi {
		return
	}
	g := e.g
	horizontal := s.Dir == conc.Up || s.Dir == conc.Down
	c, step, rect := g.Index(fixed, lo), grid.CellIndex(g.Size()), g.CellRect(fixed, lo)
	if horizontal {
		c, step, rect = g.Index(lo, fixed), 1, g.CellRect(lo, fixed)
	}
	for v := lo; ; v, c = v+1, c+step {
		e.pushCell(qu, c, rect, scan)
		if v == hi {
			return
		}
		if horizontal {
			rect.Lo.X, rect.Hi.X = rect.Hi.X, g.Corner(v+2, fixed).X
		} else {
			rect.Lo.Y, rect.Hi.Y = rect.Hi.Y, g.Corner(fixed, v+2).Y
		}
	}
}

// pushCell en-heaps cell c of extent rect unless the constraint prunes it —
// or, if the cell holds no objects or the traversal scans none (scan
// false), parks it with its key on the engine's parked run for unpark to
// settle.
func (e *Engine) pushCell(qu *query, c grid.CellIndex, rect geom.Rect, scan bool) {
	if qu.def.prunesRect(rect) {
		return
	}
	key := qu.def.minDist(rect)
	if !scan || e.g.Len(c) == 0 {
		e.parked = append(e.parked, visitEntry{cell: c, key: key})
		return
	}
	qu.heap.Push(key, cellPayload(c))
	e.stats.HeapOps++
}

// front is one direction's part of a query's leftover search state: the
// strip of it the traversal reaches next. Figure 3.4 en-heaps strips with
// the cells, but a direction only ever has one strip waiting, and the next
// one's key is this one's plus δ (Lemma 3.1), so the four fronts sit beside
// the heap, which holds only cells that hold objects. The traversal takes
// the least of the heap's top and the fronts in the order the shared heap
// had: by key, a cell before a strip, then by direction.
type front struct {
	key   float64
	level int32
	live  bool // false once the direction has left the grid or the constraint's reach
}

// setFront makes strip s the front of its direction if it still holds grid
// cells and, for constrained queries, if its direction can still reach the
// constraint region; otherwise the direction is spent. The strip's key is
// the mindist of its full (unclamped) extent — a lower bound for every cell
// inside it, so search correctness is preserved at the workspace border.
func (e *Engine) setFront(qu *query, part *conc.Partition, s conc.Strip) {
	f := &qu.fronts[s.Dir]
	*f = front{}
	if !part.InGrid(s) {
		return
	}
	rect := part.Rect(s)
	if qu.def.Constraint != nil && !stripCanReach(s.Dir, rect, *qu.def.Constraint) {
		return
	}
	*f = front{key: qu.def.minDist(rect), level: s.Level, live: true}
}

// nextFront returns the direction whose front comes first — on equal keys
// the lower direction — or -1 when every direction is spent.
func (qu *query) nextFront() int {
	d := -1
	for i, f := range qu.fronts {
		if f.live && (d < 0 || f.key < qu.fronts[d].key) {
			d = i
		}
	}
	return d
}

// resetSearch empties the leftover search state: the heap and the fronts.
func (qu *query) resetSearch() {
	qu.heap.Reset()
	qu.fronts = [4]front{}
}

// leftover returns the number of entries of the leftover search state,
// counting each live front as the heap entry Figure 3.4 makes it.
func (qu *query) leftover() int {
	n := qu.heap.Len()
	for _, f := range qu.fronts {
		if f.live {
			n++
		}
	}
	return n
}

// stripCanReach reports whether strip rect, or any higher level of the same
// direction, can intersect the constraint region. Levels move the strip
// monotonically away from the block along its fixed axis while widening
// along the other, so only the fixed axis can rule a direction out for
// good.
func stripCanReach(dir conc.Dir, rect, constraint geom.Rect) bool {
	switch dir {
	case conc.Up:
		return rect.Lo.Y <= constraint.Hi.Y
	case conc.Down:
		return rect.Hi.Y >= constraint.Lo.Y
	case conc.Left:
		return rect.Hi.X >= constraint.Lo.X
	case conc.Right:
		return rect.Lo.X <= constraint.Hi.X
	default:
		return true
	}
}

// traverse is the de-heaping loop shared by computation (Figure 3.4 lines
// 7–17), the heap-continuation phase of re-computation (Figure 3.6 line 8)
// and Reindex. It takes the least of the heap's top cell and the strip
// fronts, stops — leaving heap and fronts intact for future
// re-computations — as soon as that entry cannot improve the result, then
// settles the parked cells (unpark).
//
// With scan set it is the paper's search: de-heaped cells are scanned and
// the bound best_dist tightens as it goes; it stops at a key ≥ best_dist.
// With scan unset it is Reindex's replay on a new geometry: the result is
// already exact, no object is read, every cell is parked and the bound,
// the query's best_dist, is inclusive (see reindexQuery).
func (e *Engine) traverse(qu *query, part *conc.Partition, scan bool) {
	from := len(qu.visit)
	d := qu.nextFront() // changes only when a strip is expanded
	for {
		bound := qu.best.kthDist()
		top, ok := qu.heap.Min()
		if d >= 0 && (!ok || qu.fronts[d].key < top.Key) {
			f := qu.fronts[d]
			if beyond(f.key, bound, scan) {
				break
			}
			s := conc.Strip{Dir: conc.Dir(d), Level: f.level}
			e.expand(qu, part, s, scan)
			e.setFront(qu, part, conc.Strip{Dir: s.Dir, Level: s.Level + 1})
			d = qu.nextFront()
			continue
		}
		if !ok || beyond(top.Key, bound, scan) {
			break
		}
		qu.heap.Pop()
		e.stats.HeapOps++
		c := payloadCell(top.Payload)
		e.scanCell(qu, c)
		qu.visit = append(qu.visit, visitEntry{cell: c, key: top.Key})
	}
	e.unpark(qu, from, scan)
}

// beyond reports whether key is past the traversal's bound: at or above
// best_dist for a search, above it for a Reindex replay.
func beyond(key, bound float64, scan bool) bool {
	return key > bound || scan && key == bound
}

// unpark settles the cells a traversal parked, now that best_dist is
// final. A parked cell the traversal would have de-heaped — its key not
// beyond the bound — joins the visit list with its influence entry, so an
// object that later enters it triggers the query exactly as before; for a
// search it also counts as the cell access its (empty) scan would have
// been. Every other parked cell goes onto the leftover heap, where a
// re-computation's continuation finds it as if it had been pushed there.
// (A heap-only search also de-heaps an empty cell whose key equals the
// final best_dist if it reaches the cell before best_dist falls to it;
// such a cell stays on the leftover heap here. Only an object exactly at
// best_dist, a tie with the k-th neighbour, can tell the difference.)
//
// The joined cells make the visit list's tail, from the traversal's first
// entry on, unordered; their keys all lie within best_dist, so the
// influence prefix is still computable without order (finishSearch), and
// orderVisit sorts the tail when a reader first needs it.
func (e *Engine) unpark(qu *query, from int, scan bool) {
	bound := qu.best.kthDist()
	joined := len(qu.visit)
	for _, pc := range e.parked {
		if beyond(pc.key, bound, scan) {
			qu.heap.Push(pc.key, cellPayload(pc.cell))
			e.stats.HeapOps++
			continue
		}
		e.infl.AddUnchecked(pc.cell, qu.h)
		qu.visit = append(qu.visit, pc)
	}
	e.parked = e.parked[:0]
	joined = len(qu.visit) - joined
	if scan {
		e.stats.CellAccesses += int64(joined)
	}
	switch {
	case joined > 0:
		qu.ordered = min(qu.ordered, from)
	case qu.ordered == from:
		qu.ordered = len(qu.visit) // de-heaped cells arrive in order
	}
}

// scanCell processes the objects of one cell against the query (Figure 3.4
// lines 10–11): each admissible object is offered to best_NN, and the query
// is recorded in the cell's influence list. The cell's object list is
// iterated as a borrowed slice — offering to best_NN never mutates the
// grid — so the scan allocates nothing. The influence add is unchecked:
// scanCell runs only for cells freshly de-heaped by a search, each of which
// enters the visit list exactly once while influence entries are always a
// prefix of that list, so the query cannot already be present.
func (e *Engine) scanCell(qu *query, c grid.CellIndex) {
	e.scanCellObjects(qu, c)
	e.infl.AddUnchecked(c, qu.h)
}

// scanCellObjects is scanCell without the influence bookkeeping, for the
// re-computation replay, which knows per visit entry whether the influence
// entry already exists. The cell access is counted in the engine's own
// stats (not the grid's counter, which is unsynchronized on a shared grid).
func (e *Engine) scanCellObjects(qu *query, c grid.CellIndex) {
	def := &qu.def
	objs := e.g.Objects(c)
	e.stats.CellAccesses++
	e.stats.ObjectsProcessed += int64(len(objs))
	for _, id := range objs {
		p := e.g.Pos(id)
		if !def.admits(p) {
			continue
		}
		qu.best.offer(id, def.dist(p))
	}
}

// finishSearch trims influence-list entries down to the influence region:
// the prefix of the visit list with key ≤ best_dist. processedEnd is how
// many visit entries were scanned (and therefore carry influence entries)
// by the search that just ran; curInfluenceEnd is the previous influence
// prefix (entries that may still carry influence from before). An
// unordered tail is the one the search just built, whose keys all lie
// within best_dist (unpark), so it needs no sorting here.
func (e *Engine) finishSearch(qu *query, processedEnd, curInfluenceEnd int) {
	newEnd := firstGreater(qu.visit[:qu.ordered], qu.best.kthDist())
	if newEnd == qu.ordered {
		newEnd = len(qu.visit)
	}
	if newEnd > processedEnd {
		// Entries at exactly key == best_dist beyond the processed prefix
		// carry no influence entry; cap to what was actually scanned.
		newEnd = processedEnd
	}
	cur := processedEnd
	if curInfluenceEnd > cur {
		cur = curInfluenceEnd
	}
	for i := newEnd; i < cur; i++ {
		e.infl.Remove(qu.visit[i].cell, qu.h)
	}
	qu.influenceEnd = newEnd
	e.assertSearchState(qu, processedEnd)
}

// firstGreater returns the index of the first visit entry with key
// strictly greater than limit (len(visit) when none is).
func firstGreater(visit []visitEntry, limit float64) int {
	lo, hi := 0, len(visit)
	for lo < hi {
		if mid := int(uint(lo+hi) >> 1); visit[mid].key > limit {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	return lo
}

// orderVisit puts the whole visit list in ascending (key, cell) order —
// the order de-heaping alone would have produced — by sorting the tail a
// traversal left unordered. The readers that walk the list in key order,
// re-computation's replay and shrinkInfluence, call it first; a query that
// moves every tick is recomputed from scratch before either runs and never
// pays for it.
func (e *Engine) orderVisit(qu *query) {
	if qu.ordered < len(qu.visit) {
		e.sortVisit(qu.visit[qu.ordered:])
		qu.ordered = len(qu.visit)
	}
}

// sortVisit sorts run by (key, cell) in O(n) expected time and O(n log n)
// at worst. A counting pass spreads the entries over n buckets uniform in
// key² — the cells within key r of a query grow with r², so the buckets
// fill evenly — and each bucket is then sorted on its own (pdqsort, which
// is an insertion sort at the sizes a bucket usually has). Keys are
// non-negative, so key² is monotone in key and the buckets come out in
// order. The scratch buffers are the engine's and stop growing once they
// fit the longest run.
func (e *Engine) sortVisit(run []visitEntry) {
	n := len(run)
	if n <= smallSort {
		slices.SortFunc(run, cmpVisit)
		return
	}
	lo, hi := run[0].key, run[0].key
	for _, v := range run[1:] {
		lo, hi = min(lo, v.key), max(hi, v.key)
	}
	base := lo * lo
	scale := float64(n) / (hi*hi - base)
	if !(scale < math.Inf(1)) || !(scale > 0) { // one key, or keys beyond float range
		slices.SortFunc(run, cmpVisit)
		return
	}
	bucket := func(key float64) int { return min(int((key*key-base)*scale), n-1) }
	ends := append(e.sortEnds[:0], make([]int, n+1)...)
	for _, v := range run {
		ends[bucket(v.key)+1]++
	}
	for b := 1; b <= n; b++ {
		ends[b] += ends[b-1]
	}
	buf := append(e.sortBuf[:0], run...)
	for _, v := range run {
		b := bucket(v.key)
		buf[ends[b]] = v
		ends[b]++
	}
	for b, start := 0, 0; b < n; b++ {
		if ends[b]-start > 1 {
			slices.SortFunc(buf[start:ends[b]], cmpVisit)
		}
		start = ends[b]
	}
	copy(run, buf)
	e.sortEnds, e.sortBuf = ends, buf
}

// smallSort is the run length up to which sortVisit sorts in place.
const smallSort = 12

func cmpVisit(a, b visitEntry) int {
	switch {
	case a.key < b.key:
		return -1
	case a.key > b.key:
		return 1
	default:
		return int(a.cell) - int(b.cell)
	}
}
