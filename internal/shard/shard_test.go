package shard_test

import (
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"sort"
	"testing"
	"weak"

	"cpm/internal/bruteforce"
	"cpm/internal/core"
	"cpm/internal/geom"
	"cpm/internal/grid"
	"cpm/internal/model"
	"cpm/internal/shard"
)

// shardCounts is the sweep of the equivalence property test.
var shardCounts = []int{1, 2, 4, 8}

// workersFor adds intra-shard scan parallelism to the sweep: each shard
// count runs with a different ScanWorkers setting (including the serial
// default) so the equivalence property also covers the per-shard worker
// pool. The one-shard reference always stays serial.
var workersFor = map[int]int{1: 4, 2: 3, 4: 1, 8: 2}

// qKind enumerates the query shapes the property test mixes.
type qKind uint8

const (
	qPoint qKind = iota
	qConstrained
	qAgg
	qRange
)

// qdef is the test's own record of an installed query, used to drive query
// churn and to compute the brute-force expectation.
type qdef struct {
	kind       qKind
	pts        []geom.Point
	k          int
	agg        geom.Agg
	constraint geom.Rect
	radius     float64
}

// world drives one random monitoring scenario: it owns the ground-truth
// grid, the live object set and the installed query set, and generates one
// random update batch per cycle.
type world struct {
	rng     *rand.Rand
	oracle  *grid.Grid
	pos     map[model.ObjectID]geom.Point
	nextObj model.ObjectID
	dead    []model.ObjectID

	queries map[model.QueryID]*qdef
	nextQID model.QueryID
}

func newWorld(seed int64, gridSize, n int) *world {
	w := &world{
		rng:     rand.New(rand.NewSource(seed)),
		oracle:  grid.NewUnit(gridSize),
		pos:     make(map[model.ObjectID]geom.Point),
		queries: make(map[model.QueryID]*qdef),
	}
	for i := 0; i < n; i++ {
		id := w.nextObj
		w.nextObj++
		p := w.randPoint()
		w.pos[id] = p
		if err := w.oracle.Insert(id, p); err != nil {
			panic(err)
		}
	}
	return w
}

func (w *world) randPoint() geom.Point {
	return geom.Point{X: w.rng.Float64(), Y: w.rng.Float64()}
}

// step produces a random walk step from p, clamped to the unit square.
func (w *world) stepFrom(p geom.Point) geom.Point {
	clamp := func(v float64) float64 { return math.Min(1, math.Max(0, v)) }
	return geom.Point{
		X: clamp(p.X + (w.rng.Float64()-0.5)*0.2),
		Y: clamp(p.Y + (w.rng.Float64()-0.5)*0.2),
	}
}

func (w *world) randDef() *qdef {
	switch w.rng.Intn(4) {
	case 0:
		return &qdef{kind: qPoint, pts: []geom.Point{w.randPoint()}, k: 1 + w.rng.Intn(8)}
	case 1:
		c := w.randPoint()
		lo := geom.Point{X: math.Max(0, c.X-0.2), Y: math.Max(0, c.Y-0.2)}
		hi := geom.Point{X: math.Min(1, c.X+0.2), Y: math.Min(1, c.Y+0.2)}
		return &qdef{
			kind: qConstrained, pts: []geom.Point{c}, k: 1 + w.rng.Intn(6),
			constraint: geom.Rect{Lo: lo, Hi: hi},
		}
	case 2:
		m := 2 + w.rng.Intn(2)
		center := w.randPoint()
		pts := make([]geom.Point, m)
		for i := range pts {
			pts[i] = geom.Point{
				X: math.Min(1, math.Max(0, center.X+(w.rng.Float64()-0.5)*0.1)),
				Y: math.Min(1, math.Max(0, center.Y+(w.rng.Float64()-0.5)*0.1)),
			}
		}
		return &qdef{kind: qAgg, pts: pts, k: 1 + w.rng.Intn(6), agg: geom.Agg(w.rng.Intn(3))}
	default:
		return &qdef{kind: qRange, pts: []geom.Point{w.randPoint()}, radius: 0.03 + 0.12*w.rng.Float64()}
	}
}

// install registers a fresh random query on every monitor.
func (w *world) install(t *testing.T, monitors []monitor) {
	t.Helper()
	id := w.nextQID
	w.nextQID++
	def := w.randDef()
	w.queries[id] = def
	for _, m := range monitors {
		var err error
		switch def.kind {
		case qPoint:
			err = m.RegisterQuery(id, def.pts[0], def.k)
		case qConstrained:
			d := core.PointQuery(def.pts[0], def.k)
			d.Constraint = &def.constraint
			err = m.Register(id, d)
		case qAgg:
			err = m.Register(id, core.AggQuery(def.pts, def.k, def.agg))
		case qRange:
			err = m.RegisterRange(id, def.pts[0], def.radius)
		}
		if err != nil {
			t.Fatalf("%s: register q%d: %v", m.Name(), id, err)
		}
	}
}

// batch generates one random cycle: object moves (including occasional
// duplicate updates per object), churn (inserts and deletes), deliberate
// invalid updates, query moves and terminations.
func (w *world) batch() model.Batch {
	var b model.Batch
	live := make([]model.ObjectID, 0, len(w.pos))
	for id := range w.pos {
		live = append(live, id)
	}
	sort.Slice(live, func(i, j int) bool { return live[i] < live[j] })
	for _, id := range live {
		r := w.rng.Float64()
		switch {
		case r < 0.35: // move
			to := w.stepFrom(w.pos[id])
			b.Objects = append(b.Objects, model.MoveUpdate(id, w.pos[id], to))
			w.pos[id] = to
			if w.rng.Float64() < 0.05 { // second update for the same object
				to2 := w.stepFrom(to)
				b.Objects = append(b.Objects, model.MoveUpdate(id, to, to2))
				w.pos[id] = to2
			}
		case r < 0.39: // delete
			b.Objects = append(b.Objects, model.DeleteUpdate(id, w.pos[id]))
			delete(w.pos, id)
			w.dead = append(w.dead, id)
		}
	}
	for w.rng.Float64() < 0.5 { // inserts: fresh ids, sometimes a dead id reused
		var id model.ObjectID
		if len(w.dead) > 0 && w.rng.Float64() < 0.3 {
			id = w.dead[len(w.dead)-1]
			w.dead = w.dead[:len(w.dead)-1]
		} else {
			id = w.nextObj
			w.nextObj++
		}
		p := w.randPoint()
		b.Objects = append(b.Objects, model.InsertUpdate(id, p))
		w.pos[id] = p
	}
	if w.rng.Float64() < 0.3 { // invalid: move of an unknown object
		b.Objects = append(b.Objects, model.MoveUpdate(100000, geom.Point{}, w.randPoint()))
	}
	if w.rng.Float64() < 0.2 { // invalid: duplicate insert of a live object
		if len(live) > 0 {
			b.Objects = append(b.Objects, model.InsertUpdate(live[0], w.randPoint()))
		}
	}
	if w.rng.Float64() < 0.2 { // invalid: non-finite destination
		id := live[w.rng.Intn(len(live))]
		if _, ok := w.pos[id]; ok {
			b.Objects = append(b.Objects, model.MoveUpdate(id, w.pos[id], geom.Point{X: math.NaN(), Y: 0.5}))
		}
	}

	qids := make([]model.QueryID, 0, len(w.queries))
	for id := range w.queries {
		qids = append(qids, id)
	}
	sort.Slice(qids, func(i, j int) bool { return qids[i] < qids[j] })
	for _, id := range qids {
		def := w.queries[id]
		r := w.rng.Float64()
		switch {
		case r < 0.25: // move
			pts := make([]geom.Point, len(def.pts))
			for i := range pts {
				pts[i] = w.stepFrom(def.pts[i])
			}
			def.pts = pts
			b.Queries = append(b.Queries, model.QueryUpdate{ID: id, Kind: model.QueryMove, NewPoints: pts})
		case r < 0.32: // terminate
			delete(w.queries, id)
			b.Queries = append(b.Queries, model.QueryUpdate{ID: id, Kind: model.QueryTerminate})
		}
	}
	if w.rng.Float64() < 0.25 { // invalid: move of an unknown query
		b.Queries = append(b.Queries, model.QueryUpdate{
			ID: 9999, Kind: model.QueryMove, NewPoints: []geom.Point{w.randPoint()},
		})
	}
	if w.rng.Float64() < 0.15 { // invalid: terminate an unknown query
		b.Queries = append(b.Queries, model.QueryUpdate{ID: 9998, Kind: model.QueryTerminate})
	}
	return b
}

// applyToOracle mirrors the batch's valid object updates into the
// ground-truth grid, dropping exactly what the engines drop.
func (w *world) applyToOracle(b model.Batch) {
	for _, u := range b.Objects {
		switch u.Kind {
		case model.Move:
			if u.New.Finite() {
				_, _, _ = w.oracle.Move(u.ID, u.New)
			}
		case model.Insert:
			if u.New.Finite() {
				_ = w.oracle.Insert(u.ID, u.New)
			}
		case model.Delete:
			_ = w.oracle.Delete(u.ID)
		}
	}
}

// expect computes the ground-truth result of a query from the oracle grid.
func (w *world) expect(def *qdef) []model.Neighbor {
	switch def.kind {
	case qPoint:
		return bruteforce.TopK(w.oracle, def.pts[0], def.k)
	case qConstrained:
		return bruteforce.TopKConstrained(w.oracle, def.pts[0], def.k, def.constraint)
	case qAgg:
		return bruteforce.TopKAgg(w.oracle, def.agg, def.pts, def.k)
	default: // qRange
		var out []model.Neighbor
		w.oracle.ForEachObject(func(id model.ObjectID, p geom.Point) {
			if d := geom.Dist(p, def.pts[0]); d <= def.radius {
				out = append(out, model.Neighbor{ID: id, Dist: d})
			}
		})
		sort.Slice(out, func(i, j int) bool { return out[i].Less(out[j]) })
		return out
	}
}

// monitor is the method set the property tests drive.
type monitor interface {
	Name() string
	Bootstrap(map[model.ObjectID]geom.Point)
	RegisterQuery(model.QueryID, geom.Point, int) error
	Register(model.QueryID, core.Def) error
	RegisterRange(model.QueryID, geom.Point, float64) error
	ProcessBatch(model.Batch)
	Result(model.QueryID) []model.Neighbor
	RangeResult(model.QueryID) []model.Neighbor
	ChangedQueries() []model.QueryID
	Stats() model.Stats
	InvalidUpdates() int64
	EnableDiffs(bool)
	TakeDiffs() []model.ResultDiff
}

func (w *world) result(m monitor, id model.QueryID, def *qdef) []model.Neighbor {
	if def.kind == qRange {
		return m.RangeResult(id)
	}
	return m.Result(id)
}

// TestShardEquivalenceRandomWorkload is the sharding correctness property:
// for identical random streams — object moves, churn, invalid updates,
// query moves and terminations — sharded monitors at every shard count
// return exactly the per-query results, change notifications, result-diff
// streams, summed work counters and invalid-update counts of the plain
// one-shard monitor, and match the brute-force oracle, every cycle.
func TestShardEquivalenceRandomWorkload(t *testing.T) {
	const (
		gridSize = 16
		objects  = 250
		cycles   = 25
		initialQ = 14
	)
	for _, seed := range []int64{1, 7, 42} {
		w := newWorld(seed, gridSize, objects)

		single := shard.NewUnit(1, gridSize, core.Options{})
		monitors := []monitor{single}
		sharded := make([]*shard.Monitor, 0, len(shardCounts))
		for _, n := range shardCounts {
			s := shard.NewUnit(n, gridSize, core.Options{ScanWorkers: workersFor[n]})
			defer s.Close()
			sharded = append(sharded, s)
			monitors = append(monitors, s)
		}

		boot := make(map[model.ObjectID]geom.Point, len(w.pos))
		for id, p := range w.pos {
			boot[id] = p
		}
		for _, m := range monitors {
			m.Bootstrap(boot)
			m.EnableDiffs(true)
		}
		for i := 0; i < initialQ; i++ {
			w.install(t, monitors)
		}

		for cycle := 0; cycle < cycles; cycle++ {
			b := w.batch()
			w.applyToOracle(b)
			for _, m := range monitors {
				m.ProcessBatch(b)
			}

			for id, def := range w.queries {
				want := w.expect(def)
				ref := w.result(single, id, def)
				if !neighborsEqual(ref, want) {
					t.Fatalf("seed %d cycle %d q%d: single engine diverged from oracle\ngot  %v\nwant %v",
						seed, cycle, id, ref, want)
				}
				for _, s := range sharded {
					got := w.result(s, id, def)
					if !neighborsEqual(got, ref) {
						t.Fatalf("seed %d cycle %d q%d: %s diverged from single engine\ngot  %v\nwant %v",
							seed, cycle, id, s.Name(), got, ref)
					}
				}
			}

			refChanged := single.ChangedQueries()
			refDiffs := single.TakeDiffs()
			refStats := single.Stats()
			refInvalid := single.InvalidUpdates()
			for _, s := range sharded {
				if got := s.ChangedQueries(); !reflect.DeepEqual(got, refChanged) {
					t.Fatalf("seed %d cycle %d: %s changed-query set\ngot  %v\nwant %v",
						seed, cycle, s.Name(), got, refChanged)
				}
				if got := s.TakeDiffs(); !reflect.DeepEqual(got, refDiffs) {
					t.Fatalf("seed %d cycle %d: %s diff stream\ngot  %v\nwant %v",
						seed, cycle, s.Name(), got, refDiffs)
				}
				if got := s.Stats(); got != refStats {
					t.Fatalf("seed %d cycle %d: %s summed stats\ngot  %+v\nwant %+v",
						seed, cycle, s.Name(), got, refStats)
				}
				if got := s.InvalidUpdates(); got != refInvalid {
					t.Fatalf("seed %d cycle %d: %s invalid updates %d, want %d",
						seed, cycle, s.Name(), got, refInvalid)
				}
				// The grid is shared, so the Section 4.1 footprint must
				// EQUAL the single engine's — grid term counted once,
				// query book-keeping partitioned without duplication.
				if got := s.MemoryFootprint(); got != single.MemoryFootprint() {
					t.Fatalf("seed %d cycle %d: %s memory footprint %d, single engine %d",
						seed, cycle, s.Name(), got, single.MemoryFootprint())
				}
			}

			for w.rng.Float64() < 0.4 { // query churn: fresh installations
				w.install(t, monitors)
			}
		}
	}
}

func neighborsEqual(a, b []model.Neighbor) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestShardRoutingDeterministic pins the ownership function: routing the
// same id twice must reach the same shard (results readable after a tick).
func TestShardRoutingDeterministic(t *testing.T) {
	m := shard.NewUnit(4, 8, core.Options{})
	objs := map[model.ObjectID]geom.Point{}
	for i := 0; i < 50; i++ {
		objs[model.ObjectID(i)] = geom.Point{X: float64(i) / 50, Y: float64(i%7) / 7}
	}
	m.Bootstrap(objs)
	for q := model.QueryID(0); q < 32; q++ {
		if err := m.RegisterQuery(q, geom.Point{X: 0.5, Y: 0.5}, 3); err != nil {
			t.Fatal(err)
		}
		if got := m.Result(q); len(got) != 3 {
			t.Fatalf("q%d: result %v", q, got)
		}
	}
	m.ProcessBatch(model.Batch{Objects: []model.Update{
		model.MoveUpdate(0, objs[0], geom.Point{X: 0.5, Y: 0.5}),
	}})
	for q := model.QueryID(0); q < 32; q++ {
		if got := m.Result(q); len(got) != 3 || got[0].ID != 0 {
			t.Fatalf("q%d after move: result %v", q, got)
		}
	}
	for q := model.QueryID(0); q < 32; q++ {
		m.RemoveQuery(q)
		if got := m.Result(q); got != nil {
			t.Fatalf("q%d after removal: result %v", q, got)
		}
	}
}

// TestShardInvalidUpdateAccounting checks that replicated object-stream
// validation is reported once, not once per shard, and that query-stream
// invalids are summed across shards.
func TestShardInvalidUpdateAccounting(t *testing.T) {
	m := shard.NewUnit(4, 8, core.Options{})
	m.Bootstrap(map[model.ObjectID]geom.Point{1: {X: 0.5, Y: 0.5}})
	m.ProcessBatch(model.Batch{
		Objects: []model.Update{model.MoveUpdate(99, geom.Point{}, geom.Point{X: 0.1, Y: 0.1})},
	})
	if got := m.InvalidUpdates(); got != 1 {
		t.Fatalf("invalid object update counted %d times, want 1", got)
	}
	m.ProcessBatch(model.Batch{Queries: []model.QueryUpdate{
		{ID: 7, Kind: model.QueryTerminate},
		{ID: 8, Kind: model.QueryTerminate},
	}})
	if got := m.InvalidUpdates(); got != 3 {
		t.Fatalf("invalid updates = %d, want 3", got)
	}
}

// TestProcessBatchReleasesBatch: once ProcessBatch returns, the monitor
// holds nothing of the batch, so the caller's buffers — here the points of
// its query moves — are garbage between ticks, at any shard count.
func TestProcessBatchReleasesBatch(t *testing.T) {
	for _, n := range []int{1, 3} {
		m := shard.NewUnit(n, 8, core.Options{})
		defer m.Close()
		m.Bootstrap(map[model.ObjectID]geom.Point{1: {X: 0.2, Y: 0.2}, 2: {X: 0.7, Y: 0.6}})
		for q := model.QueryID(0); q < 6; q++ {
			if err := m.RegisterQuery(q, geom.Point{X: 0.5, Y: 0.5}, 1); err != nil {
				t.Fatal(err)
			}
		}
		points := moveAll(m, 6)
		runtime.GC()
		runtime.GC()
		for q, p := range points {
			if p.Value() != nil {
				t.Fatalf("shards=%d: the points of q%d's move are still reachable after the tick", n, q)
			}
		}
	}
}

// moveAll moves queries 0..n-1 in one tick, each to a freshly allocated
// point, and returns weak pointers to those points.
//
//go:noinline
func moveAll(m *shard.Monitor, n int) []weak.Pointer[geom.Point] {
	var b model.Batch
	points := make([]weak.Pointer[geom.Point], n)
	for q := range points {
		pts := []geom.Point{{X: 0.1 * float64(q), Y: 0.4}}
		points[q] = weak.Make(&pts[0])
		b.Queries = append(b.Queries, model.QueryUpdate{ID: model.QueryID(q), Kind: model.QueryMove, NewPoints: pts})
	}
	m.ProcessBatch(b)
	return points
}

// TestShardChangedQueriesSorted checks the fan-in ordering contract.
func TestShardChangedQueriesSorted(t *testing.T) {
	m := shard.NewUnit(4, 8, core.Options{})
	objs := map[model.ObjectID]geom.Point{}
	for i := 0; i < 30; i++ {
		objs[model.ObjectID(i)] = geom.Point{X: float64(i) / 30, Y: 0.5}
	}
	m.Bootstrap(objs)
	for q := model.QueryID(0); q < 16; q++ {
		if err := m.RegisterQuery(q, geom.Point{X: float64(q) / 16, Y: 0.5}, 2); err != nil {
			t.Fatal(err)
		}
	}
	changed := m.ChangedQueries()
	if len(changed) != 16 {
		t.Fatalf("changed after registration = %v", changed)
	}
	if !sort.SliceIsSorted(changed, func(i, j int) bool { return changed[i] < changed[j] }) {
		t.Fatalf("changed set not sorted: %v", changed)
	}
	m.ProcessBatch(model.Batch{})
	if got := m.ChangedQueries(); got != nil {
		t.Fatalf("changed after empty cycle = %v", got)
	}
}

// TestShardSingleShardPassThrough checks the n=1 fast path.
func TestShardSingleShardPassThrough(t *testing.T) {
	m := shard.NewUnit(1, 8, core.Options{})
	if m.Shards() != 1 {
		t.Fatalf("Shards() = %d", m.Shards())
	}
	m.Bootstrap(map[model.ObjectID]geom.Point{1: {X: 0.2, Y: 0.2}, 2: {X: 0.8, Y: 0.8}})
	if err := m.RegisterQuery(5, geom.Point{X: 0.25, Y: 0.25}, 1); err != nil {
		t.Fatal(err)
	}
	if got := m.Result(5); len(got) != 1 || got[0].ID != 1 {
		t.Fatalf("result = %v", got)
	}
	if m.ObjectCount() != 2 {
		t.Fatalf("ObjectCount = %d", m.ObjectCount())
	}
	if p, ok := m.ObjectPosition(2); !ok || p != (geom.Point{X: 0.8, Y: 0.8}) {
		t.Fatalf("ObjectPosition(2) = %v %v", p, ok)
	}
	if m.MemoryFootprint() <= 0 {
		t.Fatal("MemoryFootprint not positive")
	}
	if m.Name() != "CPM" {
		t.Fatalf("Name = %q", m.Name())
	}
	if got := shard.NewUnit(3, 8, core.Options{}).Name(); got != "CPM-shard3" {
		t.Fatalf("Name = %q", got)
	}
}

// TestBootstrapPanicsWhenNonEmpty: bootstrap happens once, before
// monitoring starts.
func TestBootstrapPanicsWhenNonEmpty(t *testing.T) {
	m := shard.NewUnit(2, 8, core.Options{})
	m.Bootstrap(map[model.ObjectID]geom.Point{1: {X: 0.5, Y: 0.5}})
	defer func() {
		if recover() == nil {
			t.Error("second Bootstrap did not panic")
		}
	}()
	m.Bootstrap(map[model.ObjectID]geom.Point{2: {X: 0.6, Y: 0.6}})
}

// TestShardClampsCount checks that non-positive shard counts are clamped.
func TestShardClampsCount(t *testing.T) {
	if got := shard.NewUnit(0, 8, core.Options{}).Shards(); got != 1 {
		t.Fatalf("Shards() = %d, want 1", got)
	}
	if got := shard.NewUnit(-3, 8, core.Options{}).Shards(); got != 1 {
		t.Fatalf("Shards() = %d, want 1", got)
	}
}
