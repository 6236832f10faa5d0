package cpm

import (
	"fmt"
	"math"
	"reflect"
	"slices"
	"sort"
	"testing"

	"cpm/internal/bruteforce"
	"cpm/internal/geom"
	"cpm/internal/grid"
)

// FuzzMonitorOps decodes its input into a sequence of public-API operations
// — object inserts, moves and deletes (NaN/Inf and out-of-workspace points,
// unknown, negative and duplicate ids included), Ticks mixing object and
// query updates, registration, moves and removal of all four query kinds
// with k up to above the population, removal plus re-registration under
// another id and kind, and Rebalance — and runs it on a one-shard and a
// three-shard monitor, each subscribed to every query. After every
// operation the two must agree exactly on results, ChangedQueries,
// InvalidUpdates, Stats and the operation's diffs, and every result must be
// the brute-force oracle's; at the end their event streams must be
// identical. Distance ties at the k-th neighbour are compared by distance,
// not id.
func FuzzMonitorOps(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte("\x01\x07\x08\x10\x20\x30\x40\x50\x60\x04\x00\x00\x20\x20\x05\x04\x01\x01\x30\x30\x07" +
		"\x03\x03\x00\x01\x40\x40\x01\x02\x05\x02\x08\x03\x11\x05\x00\x02\x50\x50\x06\x01\x07\x02\x01"))
	f.Add([]byte("\x02\x03\x0c\x00\x00\x5f\x5f\x30\x30\x04\x01\x10\x10\xfd\x04\x02\x20\x20\x03\x02\x30" +
		"\x30\x22\x22\x00\x04\x03\x10\x40\x40\x30\x08\x07\x07\x04\x05\x00\x00\x00\x02\xff\x10\x03\x04"))
	f.Fuzz(func(t *testing.T, data []byte) {
		r := &opReader{data: data}
		rig := newFuzzRig(t, r)
		defer rig.close()
		for op := 0; op < 48 && len(r.data) > 0; op++ {
			rig.step(r)
		}
	})
}

// opReader decodes the fuzzer's bytes; an exhausted input reads as zeros.
type opReader struct{ data []byte }

func (r *opReader) byte() byte {
	if len(r.data) == 0 {
		return 0
	}
	b := r.data[0]
	r.data = r.data[1:]
	return b
}

// coord is mostly a point of a 1/64 lattice reaching a quarter outside the
// unit square on either side — lattice points make exact distance ties
// common — and sometimes NaN or ±Inf.
func (r *opReader) coord() float64 {
	switch b := r.byte(); b {
	case 253:
		return math.NaN()
	case 254:
		return math.Inf(1)
	case 255:
		return math.Inf(-1)
	default:
		return float64(b%96)/64 - 0.25
	}
}

func (r *opReader) point() Point { return Point{X: r.coord(), Y: r.coord()} }

func (r *opReader) points(n int) []Point {
	pts := make([]Point, n)
	for i := range pts {
		pts[i] = r.point()
	}
	return pts
}

func (r *opReader) objectID() ObjectID { return ObjectID(int(r.byte()%26) - 1) }

func (r *opReader) queryID() QueryID { return QueryID(r.byte() % 8) }

// fuzzQuery is the oracle's record of an installed query.
type fuzzQuery struct {
	kind   byte // 0 point, 1 constrained, 2 aggregate, 3 range
	pts    []Point
	k      int
	agg    Agg
	region Rect
	radius float64
}

type fuzzRig struct {
	t       *testing.T
	mons    [2]*Monitor
	events  [2][]ResultEvent
	drained [2]chan struct{}
	oracle  *grid.Grid
	queries map[QueryID]fuzzQuery
	label   string
}

func newFuzzRig(t *testing.T, r *opReader) *fuzzRig {
	rig := &fuzzRig{t: t, oracle: grid.NewUnit(8), queries: map[QueryID]fuzzQuery{}}
	opts := Options{GridSize: 1 + int(r.byte()%16), ScanWorkers: int(r.byte() % 4)}
	objs := map[ObjectID]Point{}
	for n := int(r.byte() % 16); len(objs) < n; {
		id := ObjectID(len(objs) * 2)
		objs[id] = Point{X: float64(r.byte()%96)/64 - 0.25, Y: float64(r.byte()%96)/64 - 0.25}
		if err := rig.oracle.Insert(id, objs[id]); err != nil {
			t.Fatal(err)
		}
	}
	for i, shards := range []int{1, 3} {
		opts.Shards = shards
		m := NewMonitor(opts)
		m.Bootstrap(objs)
		m.KeepDiffs(true)
		sub := m.SubscribeWith(SubscribeOptions{Buffer: 1 << 14})
		rig.drained[i] = make(chan struct{})
		go func() {
			defer close(rig.drained[i])
			for ev := range sub.Events() {
				rig.events[i] = append(rig.events[i], ev)
			}
		}()
		rig.mons[i] = m
	}
	return rig
}

// close ends both streams and compares them whole.
func (rig *fuzzRig) close() {
	for i, m := range rig.mons {
		m.Close()
		<-rig.drained[i]
	}
	if !reflect.DeepEqual(rig.events[0], rig.events[1]) {
		rig.t.Fatalf("event streams differ\nshards=1 %v\nshards=3 %v", rig.events[0], rig.events[1])
	}
}

// both runs an operation on each monitor and requires the same error.
func (rig *fuzzRig) both(op func(m *Monitor) error) error {
	errs := [2]error{op(rig.mons[0]), op(rig.mons[1])}
	if fmt.Sprint(errs[0]) != fmt.Sprint(errs[1]) {
		rig.t.Fatalf("%s: errors differ: shards=1 %v, shards=3 %v", rig.label, errs[0], errs[1])
	}
	return errs[0]
}

func (rig *fuzzRig) step(r *opReader) {
	switch r.byte() % 9 {
	case 0:
		id, p := r.objectID(), r.point()
		rig.label = fmt.Sprintf("InsertObject(%d, %v)", id, p)
		rig.both(func(m *Monitor) error { m.InsertObject(id, p); return nil })
		rig.applyObject(InsertUpdate(id, p))
	case 1:
		id, p := r.objectID(), r.point()
		rig.label = fmt.Sprintf("MoveObject(%d, %v)", id, p)
		rig.both(func(m *Monitor) error { m.MoveObject(id, p); return nil })
		rig.applyObject(MoveUpdate(id, Point{}, p))
	case 2:
		id := r.objectID()
		rig.label = fmt.Sprintf("DeleteObject(%d)", id)
		rig.both(func(m *Monitor) error { m.DeleteObject(id); return nil })
		rig.applyObject(DeleteUpdate(id, Point{}))
	case 3:
		b := rig.batch(r)
		rig.label = fmt.Sprintf("Tick(%v)", b)
		rig.both(func(m *Monitor) error { m.Tick(b); return nil })
		for _, u := range b.Objects {
			rig.applyObject(u)
		}
		for _, u := range b.Queries {
			rig.applyQuery(u)
		}
	case 4:
		rig.register(r, r.queryID())
	case 5:
		id := r.queryID()
		to := r.points(1 + int(r.byte()%3))
		rig.label = fmt.Sprintf("MoveQuery(%d, %v)", id, to)
		if rig.both(func(m *Monitor) error { return m.MoveQuery(id, to...) }) == nil {
			q, ok := rig.queries[id]
			if !ok || !movable(q, to) {
				rig.t.Fatalf("%s accepted", rig.label)
			}
			q.pts = slices.Clone(to)
			rig.queries[id] = q
		}
	case 6:
		id := r.queryID()
		rig.label = fmt.Sprintf("RemoveQuery(%d)", id)
		rig.both(func(m *Monitor) error { m.RemoveQuery(id); return nil })
		delete(rig.queries, id)
	case 7:
		// The freed slot goes to the next registration, whatever its id
		// and kind.
		id := r.queryID()
		rig.label = fmt.Sprintf("RemoveQuery(%d)", id)
		rig.both(func(m *Monitor) error { m.RemoveQuery(id); return nil })
		delete(rig.queries, id)
		rig.check()
		rig.register(r, (id+1+QueryID(r.byte()%7))%8)
	case 8:
		size := int(r.byte() % 20)
		rig.label = fmt.Sprintf("Rebalance(%d)", size)
		if err := rig.both(func(m *Monitor) error { return m.Rebalance(size) }); (err == nil) != (size > 0) {
			rig.t.Fatalf("%s: %v", rig.label, err)
		}
	}
	rig.check()
}

// batch decodes one Tick: a few object updates, then a few query updates —
// moves (some with the wrong number of points), terminations, installs and
// an unknown kind.
func (rig *fuzzRig) batch(r *opReader) Batch {
	var b Batch
	for n := r.byte() % 6; n > 0; n-- {
		id := r.objectID()
		switch r.byte() % 3 {
		case 0:
			old, _ := rig.oracle.Position(id)
			b.Objects = append(b.Objects, MoveUpdate(id, old, r.point()))
		case 1:
			b.Objects = append(b.Objects, InsertUpdate(id, r.point()))
		default:
			b.Objects = append(b.Objects, DeleteUpdate(id, Point{}))
		}
	}
	for n := r.byte() % 4; n > 0; n-- {
		u := QueryUpdate{ID: r.queryID()}
		switch r.byte() % 4 {
		case 0:
			u.Kind, u.NewPoints = QueryMove, r.points(1+int(r.byte()%3))
		case 1:
			u.Kind = QueryTerminate
		case 2:
			u.Kind = QueryInstall
		default:
			u.Kind = 7
		}
		b.Queries = append(b.Queries, u)
	}
	return b
}

func (rig *fuzzRig) register(r *opReader, id QueryID) {
	q := fuzzQuery{kind: r.byte() % 4, k: int(r.byte() % 32), pts: []Point{r.point()}}
	var op func(m *Monitor) error
	valid := q.k > 0 && q.pts[0].Finite()
	switch q.kind {
	case 0:
		op = func(m *Monitor) error { return m.RegisterQuery(id, q.pts[0], q.k) }
	case 1:
		lo := r.point()
		q.region = Rect{Lo: lo, Hi: Point{X: lo.X + float64(int(r.byte()%64)-8)/32, Y: lo.Y + float64(int(r.byte()%64)-8)/32}}
		valid = valid && !(q.region.Width() < 0 || q.region.Height() < 0)
		op = func(m *Monitor) error { return m.RegisterConstrainedQuery(id, q.pts[0], q.k, q.region) }
	case 2:
		q.pts = append(q.pts, r.points(1+int(r.byte()%2))...)
		q.agg = Agg(r.byte() % 4)
		valid = valid && q.agg.Valid() && q.pts[1].Finite() && q.pts[len(q.pts)-1].Finite()
		op = func(m *Monitor) error { return m.RegisterAggQuery(id, q.pts, q.k, q.agg) }
	default:
		q.radius = float64(int(r.byte())-8) / 400
		valid = q.pts[0].Finite() && q.radius >= 0
		op = func(m *Monitor) error { return m.RegisterRangeQuery(id, q.pts[0], q.radius) }
	}
	_, taken := rig.queries[id]
	rig.label = fmt.Sprintf("register q%d %+v", id, q)
	if err := rig.both(op); (err == nil) != (valid && !taken) {
		rig.t.Fatalf("%s: error %v, want valid=%v", rig.label, err, valid && !taken)
	} else if err == nil {
		rig.queries[id] = q
	}
}

// movable is the engine's rule for a query move: as many points as the
// query has, every one finite.
func movable(q fuzzQuery, to []Point) bool {
	if len(to) != len(q.pts) {
		return false
	}
	for _, p := range to {
		if !p.Finite() {
			return false
		}
	}
	return true
}

// applyObject mirrors one object update into the oracle grid, dropping what
// the monitor must drop.
func (rig *fuzzRig) applyObject(u Update) {
	switch u.Kind {
	case Move:
		if u.New.Finite() {
			_, _, _ = rig.oracle.Move(u.ID, u.New)
		}
	case Insert:
		if u.New.Finite() {
			_ = rig.oracle.Insert(u.ID, u.New)
		}
	case Delete:
		_ = rig.oracle.Delete(u.ID)
	}
}

func (rig *fuzzRig) applyQuery(u QueryUpdate) {
	q, ok := rig.queries[u.ID]
	switch {
	case !ok:
	case u.Kind == QueryTerminate:
		delete(rig.queries, u.ID)
	case u.Kind == QueryMove && movable(q, u.NewPoints):
		q.pts = slices.Clone(u.NewPoints)
		rig.queries[u.ID] = q
	}
}

// check compares the two monitors with each other and with the oracle.
func (rig *fuzzRig) check() {
	t, a, b := rig.t, rig.mons[0], rig.mons[1]
	if x, y := a.ChangedQueries(), b.ChangedQueries(); !slices.Equal(x, y) {
		t.Fatalf("%s: ChangedQueries %v vs %v", rig.label, x, y)
	}
	if x, y := a.TakeDiffs(), b.TakeDiffs(); !reflect.DeepEqual(x, y) {
		t.Fatalf("%s: diffs\nshards=1 %v\nshards=3 %v", rig.label, x, y)
	}
	if x, y := a.InvalidUpdates(), b.InvalidUpdates(); x != y {
		t.Fatalf("%s: InvalidUpdates %d vs %d", rig.label, x, y)
	}
	if x, y := a.Stats(), b.Stats(); x != y {
		t.Fatalf("%s: Stats %+v vs %+v", rig.label, x, y)
	}
	if x, y := a.ObjectCount(), rig.oracle.Count(); x != y || b.ObjectCount() != y {
		t.Fatalf("%s: ObjectCount %d and %d, oracle %d", rig.label, x, b.ObjectCount(), y)
	}
	if n := a.QueryCount(); n != len(rig.queries) || b.QueryCount() != n {
		t.Fatalf("%s: QueryCount %d and %d, oracle %d", rig.label, n, b.QueryCount(), len(rig.queries))
	}
	for id := range QueryID(8) {
		got := a.Result(id)
		if other := b.Result(id); !reflect.DeepEqual(got, other) {
			t.Fatalf("%s: q%d result %v vs %v", rig.label, id, got, other)
		}
		q, ok := rig.queries[id]
		if !ok {
			if got != nil {
				t.Fatalf("%s: q%d is not installed but has result %v", rig.label, id, got)
			}
			continue
		}
		rig.compare(id, q, got)
	}
}

// compare checks one result against the brute-force oracle: equal length and
// per-rank distances, true distances, no duplicates, and equal ids except
// among the objects tied at the k-th distance of a full k-NN result.
func (rig *fuzzRig) compare(id QueryID, q fuzzQuery, got []Neighbor) {
	want, dist := rig.expect(q)
	fail := func(why string) {
		rig.t.Fatalf("%s: q%d %+v: %s\ngot  %v\nwant %v", rig.label, id, q, why, got, want)
	}
	if len(got) != len(want) {
		fail("length")
	}
	seen := map[ObjectID]bool{}
	for i, n := range got {
		if n.Dist != want[i].Dist {
			fail(fmt.Sprintf("rank %d distance", i))
		}
		if p, ok := rig.oracle.Position(n.ID); !ok || dist(p) != n.Dist || seen[n.ID] {
			fail(fmt.Sprintf("member %d is dead, repeated or at another distance", n.ID))
		}
		seen[n.ID] = true
		tied := q.kind != 3 && len(want) == q.k && n.Dist == want[len(want)-1].Dist
		if n.ID != want[i].ID && !tied {
			fail(fmt.Sprintf("rank %d id", i))
		}
	}
}

// expect returns the oracle's result for q and its distance function.
func (rig *fuzzRig) expect(q fuzzQuery) ([]Neighbor, func(Point) float64) {
	switch q.kind {
	case 0:
		return bruteforce.TopK(rig.oracle, q.pts[0], q.k), func(p Point) float64 { return geom.Dist(p, q.pts[0]) }
	case 1:
		return bruteforce.TopKConstrained(rig.oracle, q.pts[0], q.k, q.region), func(p Point) float64 { return geom.Dist(p, q.pts[0]) }
	case 2:
		return bruteforce.TopKAgg(rig.oracle, q.agg, q.pts, q.k), func(p Point) float64 { return geom.AggDist(q.agg, p, q.pts) }
	default:
		var out []Neighbor
		rig.oracle.ForEachObject(func(id ObjectID, p Point) {
			if d := geom.Dist(p, q.pts[0]); d <= q.radius {
				out = append(out, Neighbor{ID: id, Dist: d})
			}
		})
		sort.Slice(out, func(i, j int) bool { return out[i].Less(out[j]) })
		return out, func(p Point) float64 { return geom.Dist(p, q.pts[0]) }
	}
}
