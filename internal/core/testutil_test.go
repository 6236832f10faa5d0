package core

import (
	"math"
	"math/rand"
	"sort"
	"testing"

	"cpm/internal/bruteforce"
	"cpm/internal/geom"
	"cpm/internal/model"
)

// world mirrors the engine's object population so tests can generate
// consistent update streams and run the brute-force oracle independently.
type world struct {
	rng    *rand.Rand
	pos    map[model.ObjectID]geom.Point
	nextID model.ObjectID
}

func newWorld(seed int64) *world {
	return &world{rng: rand.New(rand.NewSource(seed)), pos: map[model.ObjectID]geom.Point{}}
}

func (w *world) randPoint() geom.Point {
	return geom.Point{X: w.rng.Float64(), Y: w.rng.Float64()}
}

// populate creates n objects at random positions.
func (w *world) populate(n int) map[model.ObjectID]geom.Point {
	out := make(map[model.ObjectID]geom.Point, n)
	for i := 0; i < n; i++ {
		p := w.randPoint()
		w.pos[w.nextID] = p
		out[w.nextID] = p
		w.nextID++
	}
	return out
}

func (w *world) liveIDs() []model.ObjectID {
	ids := make([]model.ObjectID, 0, len(w.pos))
	for id := range w.pos {
		ids = append(ids, id)
	}
	// Sorted so batch generation is deterministic for a given seed (map
	// iteration order would otherwise leak into the stream).
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return ids
}

// randomBatch produces a batch of moves, inserts and deletes, keeping the
// mirror in sync. Moves may be long jumps or small steps; allowRepeats
// lets one object receive several updates in the same batch, which
// stresses the in_list/out_count bookkeeping.
func (w *world) randomBatch(size int, allowRepeats bool) model.Batch {
	var b model.Batch
	touched := map[model.ObjectID]bool{}
	for i := 0; i < size; i++ {
		r := w.rng.Float64()
		switch {
		case r < 0.70 && len(w.pos) > 0:
			id := w.pickID(touched, allowRepeats)
			if id < 0 {
				continue
			}
			old := w.pos[id]
			var to geom.Point
			if w.rng.Float64() < 0.5 {
				to = w.randPoint() // long jump
			} else { // local step
				to = geom.Point{
					X: clampUnit(old.X + (w.rng.Float64()-0.5)*0.1),
					Y: clampUnit(old.Y + (w.rng.Float64()-0.5)*0.1),
				}
			}
			w.pos[id] = to
			b.Objects = append(b.Objects, model.MoveUpdate(id, old, to))
			touched[id] = true
		case r < 0.85:
			p := w.randPoint()
			id := w.nextID
			w.nextID++
			w.pos[id] = p
			b.Objects = append(b.Objects, model.InsertUpdate(id, p))
			touched[id] = true
		case len(w.pos) > 1:
			id := w.pickID(touched, allowRepeats)
			if id < 0 {
				continue
			}
			old := w.pos[id]
			delete(w.pos, id)
			b.Objects = append(b.Objects, model.DeleteUpdate(id, old))
			touched[id] = true
		}
	}
	return b
}

func (w *world) pickID(touched map[model.ObjectID]bool, allowRepeats bool) model.ObjectID {
	ids := w.liveIDs()
	for attempts := 0; attempts < 20; attempts++ {
		id := ids[w.rng.Intn(len(ids))]
		if allowRepeats || !touched[id] {
			return id
		}
	}
	return -1
}

func clampUnit(v float64) float64 {
	if v < 0 {
		return 0
	}
	if v >= 1 {
		return math.Nextafter(1, 0)
	}
	return v
}

// checkResult compares an engine result against the oracle. Distances must
// match per rank; IDs must match except across exact distance ties, where
// any tied id is accepted.
func checkResult(t *testing.T, label string, got, want []model.Neighbor) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: got %d neighbors %v, want %d %v", label, len(got), got, len(want), want)
	}
	const eps = 1e-9
	for i := range got {
		if math.Abs(got[i].Dist-want[i].Dist) > eps {
			t.Fatalf("%s: rank %d dist %v, want %v\ngot  %v\nwant %v",
				label, i, got[i].Dist, want[i].Dist, got, want)
		}
	}
	for i := range got {
		if got[i].ID == want[i].ID {
			continue
		}
		// Tolerate a differing id only within an exact-tie group.
		tied := false
		for j := range want {
			if want[j].ID == got[i].ID && math.Abs(want[j].Dist-got[i].Dist) <= eps {
				tied = true
				break
			}
		}
		if !tied {
			t.Fatalf("%s: rank %d id %d not in oracle result\ngot  %v\nwant %v",
				label, i, got[i].ID, got, want)
		}
	}
}

// oracle computes the ground-truth result for a query definition over the
// engine's grid.
func oracle(e *Engine, def Def) []model.Neighbor {
	sel := bruteforce.NewSelector(def.K)
	e.Grid().ForEachObject(func(id model.ObjectID, p geom.Point) {
		if !def.admits(p) {
			return
		}
		sel.Offer(id, def.dist(p))
	})
	return sel.Sorted()
}

// checkInvariants verifies the structural invariants of a query's
// book-keeping after any operation:
//   - the visit list is sorted by key;
//   - visit keys lower-bound the true mindist of their cells... they equal it;
//   - influence entries exist exactly for the influence prefix;
//   - every result member's current cell carries the query's influence.
func checkInvariants(t *testing.T, e *Engine, id model.QueryID) {
	t.Helper()
	qu := e.lookup(id, 0)
	if qu == nil {
		t.Fatalf("query %d not installed", id)
	}
	for i := 1; i < len(qu.visit); i++ {
		if qu.visit[i].key < qu.visit[i-1].key {
			t.Fatalf("query %d: visit list unsorted at %d", id, i)
		}
	}
	if qu.influenceEnd > len(qu.visit) {
		t.Fatalf("query %d: influenceEnd %d > visit len %d", id, qu.influenceEnd, len(qu.visit))
	}
	seen := map[int64]bool{}
	for i, ve := range qu.visit {
		if seen[int64(ve.cell)] {
			t.Fatalf("query %d: cell %d appears twice in visit list", id, ve.cell)
		}
		seen[int64(ve.cell)] = true
		hasInf := e.HasInfluence(ve.cell, id)
		if i < qu.influenceEnd && !hasInf {
			t.Fatalf("query %d: influence missing for visit[%d] (cell %d)", id, i, ve.cell)
		}
		if i >= qu.influenceEnd && hasInf {
			t.Fatalf("query %d: stale influence for visit[%d] (cell %d)", id, i, ve.cell)
		}
	}
	bd := qu.best.kthDist()
	for i := 0; i < qu.influenceEnd; i++ {
		if qu.visit[i].key > bd {
			t.Fatalf("query %d: influence cell %d has key %v > best_dist %v",
				id, qu.visit[i].cell, qu.visit[i].key, bd)
		}
	}
	for _, n := range qu.best.snapshot() {
		p, ok := e.Grid().Position(n.ID)
		if !ok {
			t.Fatalf("query %d: result contains dead object %d", id, n.ID)
		}
		c := e.Grid().CellOf(p)
		if !e.HasInfluence(c, id) {
			t.Fatalf("query %d: result member %d's cell %d lacks influence", id, n.ID, c)
		}
		if math.Abs(qu.def.dist(p)-n.Dist) > 1e-9 {
			t.Fatalf("query %d: result member %d stored dist %v, actual %v",
				id, n.ID, n.Dist, qu.def.dist(p))
		}
	}
}
