package core

import (
	"cmp"
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"cpm/internal/conc"
	"cpm/internal/geom"
	"cpm/internal/grid"
	"cpm/internal/model"
	"cpm/internal/qheap"
)

// The reference search: compute, re-computation and Reindex as they stood
// before empty cells were parked, every cell and every strip passing
// through the heap, and every influence entry written as the search goes.
// TestTraversalEquivalence holds the parking traversal, with its strip
// fronts, to it.

// A strip's payload sorts after every cell's, then by direction and level:
// the shared heap's tie order.
const stripFlag uint64 = 1 << 63

func stripPayload(s conc.Strip) uint64 {
	return stripFlag | uint64(s.Dir)<<32 | uint64(uint32(s.Level))
}

func isStrip(payload uint64) bool { return payload&stripFlag != 0 }

func payloadStrip(payload uint64) conc.Strip {
	return conc.Strip{Dir: conc.Dir(payload >> 32 & 0x3), Level: int32(uint32(payload))}
}

func (e *Engine) refPushStrip(qu *query, part *conc.Partition, s conc.Strip) {
	if !part.InGrid(s) {
		return
	}
	rect := part.Rect(s)
	if qu.def.Constraint != nil && !stripCanReach(s.Dir, rect, *qu.def.Constraint) {
		return
	}
	qu.heap.Push(qu.def.minDist(rect), stripPayload(s))
	e.stats.HeapOps++
}

func (e *Engine) refCompute(qu *query) {
	e.clearInfluence(qu)
	qu.best.reset()
	part := e.partitionFor(qu.def)
	e.refSeedHeap(qu, &part)
	e.refRunSearch(qu, &part)
	e.refFinishSearch(qu, len(qu.visit), 0)
}

func (e *Engine) refSeedHeap(qu *query, part *conc.Partition) {
	b := part.Block()
	for row := b.RowLo; row <= b.RowHi; row++ {
		for col := b.ColLo; col <= b.ColHi; col++ {
			e.refPushCell(qu, col, row)
		}
	}
	for _, dir := range conc.Dirs {
		e.refPushStrip(qu, part, conc.Strip{Dir: dir, Level: 0})
	}
}

func (e *Engine) refPushCell(qu *query, col, row int) {
	rect := e.g.CellRect(col, row)
	if qu.def.prunesRect(rect) {
		return
	}
	qu.heap.Push(qu.def.minDist(rect), cellPayload(e.g.Index(col, row)))
	e.stats.HeapOps++
}

func (e *Engine) refRunSearch(qu *query, part *conc.Partition) {
	for {
		top, ok := qu.heap.Min()
		if !ok || top.Key >= qu.best.kthDist() {
			break
		}
		qu.heap.Pop()
		e.stats.HeapOps++
		if !isStrip(top.Payload) {
			c := payloadCell(top.Payload)
			e.scanCell(qu, c)
			e.infl.AddUnchecked(c, qu.h)
			qu.visit = append(qu.visit, visitEntry{cell: c, key: top.Key})
			continue
		}
		s := payloadStrip(top.Payload)
		part.Cells(s, func(col, row int) { e.refPushCell(qu, col, row) })
		e.refPushStrip(qu, part, conc.Strip{Dir: s.Dir, Level: s.Level + 1})
	}
	qu.ordered = len(qu.visit)
}

func (e *Engine) refFinishSearch(qu *query, processedEnd, curInfluenceEnd int) {
	newEnd := min(firstGreater(qu.visit, qu.best.kthDist()), processedEnd)
	for i := newEnd; i < max(processedEnd, curInfluenceEnd); i++ {
		e.infl.Remove(qu.visit[i].cell, qu.h)
	}
	qu.influenceEnd = newEnd
}

func (e *Engine) refRecompute(qu *query) {
	oldInfluenceEnd := qu.influenceEnd
	qu.best.reset()
	processed := 0
	for processed < len(qu.visit) {
		ve := qu.visit[processed]
		if ve.key >= qu.best.kthDist() {
			break
		}
		e.scanCell(qu, ve.cell)
		if processed >= oldInfluenceEnd {
			e.infl.AddUnchecked(ve.cell, qu.h)
		}
		processed++
	}
	if processed == len(qu.visit) {
		part := e.partitionFor(qu.def)
		e.refRunSearch(qu, &part)
		processed = len(qu.visit)
	}
	e.refFinishSearch(qu, processed, oldInfluenceEnd)
}

func (e *Engine) refShrinkInfluence(qu *query) {
	newEnd := min(firstGreater(qu.visit, qu.best.kthDist()), qu.influenceEnd)
	for i := newEnd; i < qu.influenceEnd; i++ {
		e.infl.Remove(qu.visit[i].cell, qu.h)
	}
	qu.influenceEnd = newEnd
}

func (e *Engine) refReindex() {
	e.infl.Reset(e.g.Size() * e.g.Size())
	for _, qu := range e.ids {
		qu.visit = qu.visit[:0]
		qu.resetSearch()
		part := e.partitionFor(qu.def)
		e.refSeedHeap(qu, &part)
		bound := qu.best.kthDist()
		for {
			top, ok := qu.heap.Min()
			if !ok || top.Key > bound {
				break
			}
			qu.heap.Pop()
			if !isStrip(top.Payload) {
				c := payloadCell(top.Payload)
				e.infl.AddUnchecked(c, qu.h)
				qu.visit = append(qu.visit, visitEntry{cell: c, key: top.Key})
				continue
			}
			s := payloadStrip(top.Payload)
			part.Cells(s, func(col, row int) { e.refPushCell(qu, col, row) })
			e.refPushStrip(qu, &part, conc.Strip{Dir: s.Dir, Level: s.Level + 1})
		}
		qu.influenceEnd = len(qu.visit)
		qu.ordered = len(qu.visit)
	}
}

// TestTraversalEquivalence: the engine's traversals and the heap-only
// reference, run side by side over one grid on sparse and
// non-power-of-two geometries, agree after compute and the install step
// that builds its book-keeping, re-computation, shrinking and Reindex on
// the result, on the (cell, key) sets of the visit list and of the
// influence prefix, on the (key, payload) multiset of the leftover heap
// (the strip fronts as the strip entries they stand for), on the influence
// index's size and on the cell accesses and objects processed; the visit
// list, once ordered, ascends. The two differ only on a cell whose key
// equals the final best_dist (see unpark and reindexQuery), which random
// coordinates do not produce.
func TestTraversalEquivalence(t *testing.T) {
	configs := []struct{ size, objects, resize int }{
		{16, 20, 37}, {16, 300, 5}, {23, 2000, 64},
		{100, 20, 16}, {100, 2000, 257}, {128, 500, 77},
		{256, 1000, 100}, {512, 20, 200}, {512, 2000, 300},
	}
	for ci, cf := range configs {
		t.Run(fmt.Sprintf("%d²_%dobjs", cf.size, cf.objects), func(t *testing.T) {
			w := newWorld(int64(100 + ci))
			g := grid.NewUnit(cf.size)
			g.SetShared(true)
			g.BeginWrites()
			for id, p := range w.populate(cf.objects) {
				if err := g.Insert(id, p); err != nil {
					t.Fatal(err)
				}
			}
			g.EndWrites()
			e, r := NewSharedEngine(g, Options{}), NewSharedEngine(g, Options{})
			defs := mixedDefs(w, ci, w.randPoint)
			// step runs one operation on both engines and compares the
			// search counters it spent and the state it left.
			step := func(label string, onE, onR func(id model.QueryID, qe, qr *query)) {
				t.Helper()
				se, sr := e.Stats(), r.Stats()
				for i := range defs {
					id := model.QueryID(i)
					onE(id, e.ids[id], r.ids[id])
					onR(id, e.ids[id], r.ids[id])
				}
				// A search from scratch leaves its query pending; the
				// checks below read the index.
				e.installPending()
				de, dr := e.Stats().Sub(se), r.Stats().Sub(sr)
				if de.CellAccesses != dr.CellAccesses || de.ObjectsProcessed != dr.ObjectsProcessed {
					t.Fatalf("%s: %d cell accesses and %d objects processed, reference %d and %d",
						label, de.CellAccesses, de.ObjectsProcessed, dr.CellAccesses, dr.ObjectsProcessed)
				}
				for i := range defs {
					sameSearchState(t, fmt.Sprintf("%s q%d", label, i), e, e.ids[model.QueryID(i)], r.ids[model.QueryID(i)])
				}
				if a, b := e.infl.Entries(), r.infl.Entries(); a != b {
					t.Fatalf("%s: %d influence entries, reference %d", label, a, b)
				}
			}
			for i, def := range defs {
				if err := e.Register(model.QueryID(i), def); err != nil {
					t.Fatal(err)
				}
				if err := r.Register(model.QueryID(i), def); err != nil {
					t.Fatal(err)
				}
			}
			// The reference writes its index as it searches, so its queries
			// are installed once and stay so.
			r.installPending()
			step("compute",
				func(_ model.QueryID, qe, _ *query) { e.evaluate(qe) },
				func(_ model.QueryID, _, qr *query) { r.refCompute(qr) })

			// Jump a third of the objects and drop a tenth: results lose
			// members, and replays run out into the leftover heap.
			g.BeginWrites()
			for _, id := range w.liveIDs() {
				switch x := w.rng.Float64(); {
				case x < 0.1:
					if err := g.Delete(id); err != nil {
						t.Fatal(err)
					}
					delete(w.pos, id)
				case x < 0.43:
					p := w.randPoint()
					if _, _, err := g.Move(id, p); err != nil {
						t.Fatal(err)
					}
					w.pos[id] = p
				}
			}
			g.EndWrites()
			step("recompute",
				func(_ model.QueryID, qe, _ *query) { e.recompute(qe) },
				func(_ model.QueryID, _, qr *query) { r.refRecompute(qr) })

			// New objects next to every query tighten best_dist.
			g.BeginWrites()
			var fresh []model.ObjectID
			for _, def := range defs {
				for range 3 {
					p := geom.Point{X: def.Points[0].X + 0.02*w.rng.Float64(), Y: def.Points[0].Y + 0.02*w.rng.Float64()}
					p = g.Clamp(p)
					if err := g.Insert(w.nextID, p); err != nil {
						t.Fatal(err)
					}
					w.pos[w.nextID] = p
					fresh = append(fresh, w.nextID)
					w.nextID++
				}
			}
			g.EndWrites()
			offer := func(qu *query) {
				for _, id := range fresh {
					if p := g.Pos(id); qu.def.admits(p) {
						qu.best.offer(id, qu.def.dist(p))
					}
				}
			}
			step("shrink",
				func(_ model.QueryID, qe, _ *query) { offer(qe); e.shrinkInfluence(qe) },
				func(_ model.QueryID, _, qr *query) { offer(qr); r.refShrinkInfluence(qr) })
			step("recompute after shrink",
				func(_ model.QueryID, qe, _ *query) { e.recompute(qe) },
				func(_ model.QueryID, _, qr *query) { r.refRecompute(qr) })

			g.Rebuild(cf.resize)
			e.Reindex()
			r.refReindex()
			step("reindex", func(model.QueryID, *query, *query) {}, func(model.QueryID, *query, *query) {})
			step("recompute after reindex",
				func(_ model.QueryID, qe, _ *query) { e.recompute(qe) },
				func(_ model.QueryID, _, qr *query) { r.refRecompute(qr) })
		})
	}
}

// mixedDefs returns eight queries of every kind — point, sum and max
// aggregate, constrained — with k cycling from offset through 1 to 256,
// centred on points drawn by at.
func mixedDefs(w *world, offset int, at func() geom.Point) []Def {
	ks := []int{1, 3, 16, 64, 256}
	var defs []Def
	for i := range 8 {
		k := ks[(offset+i)%len(ks)]
		c := at()
		switch i % 4 {
		case 0:
			defs = append(defs, PointQuery(c, k))
		case 1:
			near := func() geom.Point {
				return geom.Point{X: c.X + 0.2*w.rng.Float64() - 0.1, Y: c.Y + 0.2*w.rng.Float64() - 0.1}
			}
			defs = append(defs, AggQuery([]geom.Point{near(), near(), near()}, k, geom.AggSum))
		case 2:
			defs = append(defs, AggQuery([]geom.Point{c, at()}, k, geom.AggMax))
		case 3:
			region := geom.Rect{Lo: geom.Point{X: c.X - 0.2, Y: c.Y - 0.1}, Hi: geom.Point{X: c.X + 0.1, Y: c.Y + 0.3}}
			def := PointQuery(at(), k)
			def.Constraint = &region
			defs = append(defs, def)
		}
	}
	return defs
}

// eagerCompute is compute as it stood before a search from scratch left
// its book-keeping to the install step: the search parks the empty cells
// and settles them itself (unpark), so it leaves the visit list, the
// influence prefix and the leftover search state, and owes nothing.
func (e *Engine) eagerCompute(qu *query) {
	e.clearInfluence(qu)
	e.queue(qu)
	e.stats.FullSearches++
	qu.best.reset()
	part := e.partitionFor(qu.def)
	e.seedHeap(qu, &part, resume)
	e.traverse(qu, &part, resume)
	e.finishSearch(qu, len(qu.visit))
}

// TestInstallMatchesEagerSearch: a query searched from scratch and then
// installed holds the book-keeping the eager search (eagerCompute) leaves,
// and the two spend the same objects processed, on random worlds from 16²
// to 512² and on a lattice world built for ties. Either counts one cell
// access per visit entry.
//
// The tie rule: a cell whose key equals the final best_dist is in the
// installed visit list and influence prefix, because the install step's
// replay bound is inclusive (reindexQuery). The eager search keeps such a
// cell there only if it scanned it, before best_dist fell to its key, and
// on the leftover heap otherwise. So the two agree on every cell below
// best_dist; at best_dist the installed lists hold the eager ones; and a
// query with no visit entry, heap entry or strip front at best_dist agrees
// on everything sameSearchState compares. On random coordinates a tie
// needs an object exactly at a cell's mindist, which does not happen; the
// lattice world puts objects and query points on grid corners, so it does.
func TestInstallMatchesEagerSearch(t *testing.T) {
	configs := []struct {
		size, objects int
		lattice       bool
	}{
		{16, 20, false}, {16, 300, false}, {64, 2000, false}, {128, 500, false},
		{256, 1000, false}, {512, 50, false}, {512, 2000, false}, {16, 120, true},
	}
	for ci, cf := range configs {
		t.Run(fmt.Sprintf("%d²_%dobjs_lattice=%v", cf.size, cf.objects, cf.lattice), func(t *testing.T) {
			w := newWorld(int64(500 + ci))
			g := grid.NewUnit(cf.size)
			g.SetShared(true)
			at := w.randPoint
			if cf.lattice {
				at = func() geom.Point { return g.Corner(1+w.rng.Intn(cf.size-1), 1+w.rng.Intn(cf.size-1)) }
			}
			g.BeginWrites()
			for id := range model.ObjectID(cf.objects) {
				if err := g.Insert(id, at()); err != nil {
					t.Fatal(err)
				}
			}
			g.EndWrites()
			e, r := NewSharedEngine(g, Options{}), NewSharedEngine(g, Options{})
			defs := mixedDefs(w, ci, at)
			for i, def := range defs {
				for _, x := range []*Engine{e, r} {
					if err := x.Register(model.QueryID(i), def); err != nil {
						t.Fatal(err)
					}
				}
			}
			se, sr := e.Stats(), r.Stats()
			for i := range defs {
				e.evaluate(e.ids[model.QueryID(i)])
				r.eagerCompute(r.ids[model.QueryID(i)])
			}
			e.installPending()
			r.installPending()
			de, dr := e.Stats().Sub(se), r.Stats().Sub(sr)
			if de.ObjectsProcessed != dr.ObjectsProcessed {
				t.Fatalf("%d objects processed, eager %d", de.ObjectsProcessed, dr.ObjectsProcessed)
			}
			var visits, eagerVisits int64
			tied := 0
			for i := range defs {
				label := fmt.Sprintf("q%d", i)
				qe, qr := e.ids[model.QueryID(i)], r.ids[model.QueryID(i)]
				visits += int64(len(qe.visit))
				eagerVisits += int64(len(qr.visit))
				if tieAtBestDist(t, label, e, qe, qr) {
					tied++
					continue
				}
				sameSearchState(t, label, e, qe, qr)
			}
			if de.CellAccesses != visits || dr.CellAccesses != eagerVisits {
				t.Fatalf("%d cell accesses for %d visit entries, eager %d for %d",
					de.CellAccesses, visits, dr.CellAccesses, eagerVisits)
			}
			if cf.lattice && tied == 0 {
				t.Fatal("the lattice world made no tie at best_dist")
			}
		})
	}
}

// tieAtBestDist checks the tie rule of TestInstallMatchesEagerSearch for
// one query, installed (qe) and eager (qr), and reports whether either
// holds a visit entry, heap entry or strip front at exactly best_dist.
func tieAtBestDist(t *testing.T, label string, e *Engine, qe, qr *query) bool {
	t.Helper()
	if !reflect.DeepEqual(qe.best.snapshot(), qr.best.snapshot()) {
		t.Fatalf("%s: result %v, eager %v", label, qe.best.snapshot(), qr.best.snapshot())
	}
	bd := qe.best.kthDist()
	split := func(v []visitEntry) (below, at []visitEntry) {
		v = slices.Clone(v)
		slices.SortFunc(v, cmpVisit)
		for _, ve := range v {
			switch {
			case ve.key < bd:
				below = append(below, ve)
			case ve.key == bd:
				at = append(at, ve)
			default:
				t.Fatalf("%s: visit entry %+v beyond best_dist %v", label, ve, bd)
			}
		}
		return below, at
	}
	eBelow, eAt := split(qe.visit)
	rBelow, rAt := split(qr.visit)
	if !slices.Equal(eBelow, rBelow) {
		t.Fatalf("%s: %d visit entries below best_dist, eager %d", label, len(eBelow), len(rBelow))
	}
	for _, ve := range rAt {
		if !slices.Contains(eAt, ve) {
			t.Fatalf("%s: the eager visit entry %+v at best_dist is not installed", label, ve)
		}
	}
	if qe.influenceEnd != len(qe.visit) {
		t.Fatalf("%s: influence prefix of %d of %d visit entries, want all", label, qe.influenceEnd, len(qe.visit))
	}
	for _, ve := range qr.visit[:qr.influenceEnd] {
		if !e.infl.Has(ve.cell, qe.h) {
			t.Fatalf("%s: the eager influence cell %d is not installed", label, ve.cell)
		}
	}
	if len(eAt) > 0 || len(rAt) > 0 {
		return true
	}
	for _, qu := range []*query{qe, qr} {
		for _, it := range qu.heap.Items() {
			if it.Key == bd {
				return true
			}
		}
		for _, f := range qu.fronts {
			if f.live && f.key == bd {
				return true
			}
		}
	}
	return false
}

// sameSearchState compares one query's book-keeping in the parking engine
// e against its twin qr in the reference engine.
func sameSearchState(t *testing.T, label string, e *Engine, qe, qr *query) {
	t.Helper()
	if !reflect.DeepEqual(qe.best.snapshot(), qr.best.snapshot()) {
		t.Fatalf("%s: result %v, reference %v", label, qe.best.snapshot(), qr.best.snapshot())
	}
	byKeyCell := func(v []visitEntry) []visitEntry {
		v = slices.Clone(v)
		slices.SortFunc(v, cmpVisit)
		return v
	}
	if a, b := byKeyCell(qe.visit), byKeyCell(qr.visit); !slices.Equal(a, b) {
		t.Fatalf("%s: visit list of %d cells, reference %d\n%v\n%v", label, len(a), len(b), a, b)
	}
	if a, b := byKeyCell(qe.visit[:qe.influenceEnd]), byKeyCell(qr.visit[:qr.influenceEnd]); !slices.Equal(a, b) {
		t.Fatalf("%s: influence prefix of %d cells, reference %d", label, len(a), len(b))
	}
	leftover := func(qu *query) []qheap.Entry {
		items := slices.Clone(qu.heap.Items())
		for d, f := range qu.fronts {
			if f.live {
				items = append(items, qheap.Entry{Key: f.key, Payload: stripPayload(conc.Strip{Dir: conc.Dir(d), Level: f.level})})
			}
		}
		slices.SortFunc(items, func(a, b qheap.Entry) int {
			return cmp.Or(cmp.Compare(a.Key, b.Key), cmp.Compare(a.Payload, b.Payload))
		})
		return items
	}
	if a, b := leftover(qe), leftover(qr); !slices.Equal(a, b) {
		t.Fatalf("%s: leftover heap of %d entries, reference %d", label, len(a), len(b))
	}
	ordered := slices.Clone(qe.visit)
	e.sortVisit(ordered[qe.ordered:])
	if !slices.IsSortedFunc(ordered, func(a, b visitEntry) int { return cmp.Compare(a.key, b.key) }) {
		t.Fatalf("%s: visit list not ascending once ordered", label)
	}
	for i := range qe.visit[:qe.influenceEnd] {
		if c := qe.visit[i].cell; !e.infl.Has(c, qe.h) {
			t.Fatalf("%s: influence prefix cell %d lacks its entry", label, c)
		}
	}
}

// TestSortVisit: the bucket sort agrees with a comparison sort on runs
// shaped like a search's, on skewed ones that pile into one bucket, and on
// ties.
func TestSortVisit(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	var e Engine
	shapes := map[string]func(i int) float64{
		"area-uniform": func(int) float64 { return rng.Float64() },
		"skewed": func(i int) float64 {
			if i == 0 {
				return 1e6
			}
			return 1e-3 * rng.Float64()
		},
		"ties":    func(int) float64 { return float64(rng.Intn(3)) / 7 },
		"one key": func(int) float64 { return 0.25 },
	}
	for name, key := range shapes {
		for _, n := range []int{0, 1, 5, 13, 100, 3000} {
			run := make([]visitEntry, n)
			for i := range run {
				run[i] = visitEntry{cell: grid.CellIndex(rng.Intn(1 << 20)), key: key(i)}
			}
			want := slices.Clone(run)
			slices.SortFunc(want, cmpVisit)
			e.sortVisit(run)
			if !slices.Equal(run, want) {
				t.Fatalf("%s, %d entries: sortVisit disagrees with a comparison sort", name, n)
			}
		}
	}
}
