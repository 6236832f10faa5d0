package generator

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"sort"
	"testing"

	"cpm/internal/geom"
	"cpm/internal/model"
	"cpm/internal/network"
)

func testNetwork(t *testing.T) *network.Graph {
	t.Helper()
	g, err := network.Generate(network.GenOptions{Width: 12, Height: 12, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func testWorkload(t *testing.T, p Params) *Workload {
	t.Helper()
	w, err := New(testNetwork(t), p)
	if err != nil {
		t.Fatal(err)
	}
	return w
}

func TestSpeedClasses(t *testing.T) {
	if Slow.PerTimestamp() != 2.0/250 {
		t.Errorf("slow = %v", Slow.PerTimestamp())
	}
	if Medium.PerTimestamp() != 5*Slow.PerTimestamp() {
		t.Errorf("medium = %v", Medium.PerTimestamp())
	}
	if Fast.PerTimestamp() != 25*Slow.PerTimestamp() {
		t.Errorf("fast = %v", Fast.PerTimestamp())
	}
	if Slow.String() != "slow" || Medium.String() != "medium" || Fast.String() != "fast" {
		t.Error("speed names wrong")
	}
}

func TestDefaults(t *testing.T) {
	p := Defaults(1)
	if p.N != 100_000 || p.NumQueries != 5_000 {
		t.Errorf("paper defaults wrong: %+v", p)
	}
	if p.ObjectAgility != 0.5 || p.QueryAgility != 0.3 {
		t.Errorf("agility defaults wrong: %+v", p)
	}
	small := Defaults(0.01)
	if small.N != 1000 || small.NumQueries != 50 {
		t.Errorf("scaled defaults wrong: %+v", small)
	}
	tiny := Defaults(-1) // treated as scale 1
	if tiny.N != 100_000 {
		t.Errorf("negative scale not defaulted: %+v", tiny)
	}
}

func TestValidation(t *testing.T) {
	g := testNetwork(t)
	bad := []Params{
		{N: 0, NumQueries: 1},
		{N: 10, NumQueries: -1},
		{N: 10, ObjectAgility: 1.5},
		{N: 10, QueryAgility: -0.1},
	}
	for _, p := range bad {
		if _, err := New(g, p); err == nil {
			t.Errorf("params %+v accepted", p)
		}
	}
	// Degenerate networks rejected.
	lone := network.NewGraph(1)
	lone.AddNode(geom.Point{X: 0.5, Y: 0.5})
	if _, err := New(lone, Params{N: 5}); err == nil {
		t.Error("single-node network accepted")
	}
	split := network.NewGraph(2)
	split.AddNode(geom.Point{X: 0.1, Y: 0.1})
	split.AddNode(geom.Point{X: 0.9, Y: 0.9})
	if _, err := New(split, Params{N: 5}); err == nil {
		t.Error("disconnected network accepted")
	}
}

func TestStreamConsistency(t *testing.T) {
	p := Params{N: 300, NumQueries: 20, ObjectSpeed: Fast, QuerySpeed: Medium,
		ObjectAgility: 0.6, QueryAgility: 0.4, Seed: 9}
	w := testWorkload(t, p)
	pos := w.InitialObjects()
	if len(pos) != 300 {
		t.Fatalf("initial population %d", len(pos))
	}
	if len(w.InitialQueries()) != 20 {
		t.Fatalf("initial queries %d", len(w.InitialQueries()))
	}
	unit := geom.Rect{Lo: geom.Point{X: 0, Y: 0}, Hi: geom.Point{X: 1, Y: 1}}
	for ts := 0; ts < 50; ts++ {
		b := w.Advance()
		seen := map[model.ObjectID]int{}
		for _, u := range b.Objects {
			seen[u.ID]++
			switch u.Kind {
			case model.Move:
				old, ok := pos[u.ID]
				if !ok {
					t.Fatalf("ts %d: move of unknown object %d", ts, u.ID)
				}
				if old != u.Old {
					t.Fatalf("ts %d: move old mismatch for %d: %v vs %v", ts, u.ID, old, u.Old)
				}
				if !unit.Contains(u.New) {
					t.Fatalf("ts %d: object %d left the workspace: %v", ts, u.ID, u.New)
				}
				pos[u.ID] = u.New
			case model.Insert:
				if _, ok := pos[u.ID]; ok {
					t.Fatalf("ts %d: insert of live object %d", ts, u.ID)
				}
				if !unit.Contains(u.New) {
					t.Fatalf("ts %d: insert outside workspace", ts)
				}
				pos[u.ID] = u.New
			case model.Delete:
				old, ok := pos[u.ID]
				if !ok {
					t.Fatalf("ts %d: delete of unknown object %d", ts, u.ID)
				}
				if old != u.Old {
					t.Fatalf("ts %d: delete old mismatch", ts)
				}
				delete(pos, u.ID)
			}
		}
		// One update per object per timestamp — the stream model the
		// baselines rely on. (A delete+insert pair touches two distinct
		// ids.)
		for id, n := range seen {
			if n != 1 {
				t.Fatalf("ts %d: object %d got %d updates", ts, id, n)
			}
		}
		if len(pos) != 300 {
			t.Fatalf("ts %d: population drifted to %d", ts, len(pos))
		}
		for _, qu := range b.Queries {
			if qu.Kind != model.QueryMove || len(qu.NewPoints) != 1 {
				t.Fatalf("ts %d: malformed query update %+v", ts, qu)
			}
			if !unit.Contains(qu.NewPoints[0]) {
				t.Fatalf("ts %d: query left the workspace", ts)
			}
		}
	}
}

func TestAgilityFractions(t *testing.T) {
	p := Params{N: 2000, NumQueries: 500, ObjectAgility: 0.3, QueryAgility: 0.7, Seed: 4}
	w := testWorkload(t, p)
	w.InitialObjects()
	totalObj, totalQry := 0, 0
	const steps = 30
	for ts := 0; ts < steps; ts++ {
		b := w.Advance()
		// Arrivals produce delete+insert pairs; count moved *objects*:
		// deletes+moves each represent one agile object.
		for _, u := range b.Objects {
			if u.Kind != model.Insert {
				totalObj++
			}
		}
		totalQry += len(b.Queries)
	}
	gotObj := float64(totalObj) / float64(steps*p.N)
	gotQry := float64(totalQry) / float64(steps*p.NumQueries)
	if math.Abs(gotObj-0.3) > 0.03 {
		t.Errorf("object agility = %v, want ≈0.3", gotObj)
	}
	if math.Abs(gotQry-0.7) > 0.05 {
		t.Errorf("query agility = %v, want ≈0.7", gotQry)
	}
}

func TestSpeedDisplacement(t *testing.T) {
	// With agility 1, per-timestamp displacement along the network is
	// exactly the speed class distance (unless the mover arrives).
	p := Params{N: 200, NumQueries: 0, ObjectSpeed: Medium, ObjectAgility: 1, Seed: 6}
	w := testWorkload(t, p)
	w.InitialObjects()
	step := Medium.PerTimestamp()
	for ts := 0; ts < 20; ts++ {
		b := w.Advance()
		for _, u := range b.Objects {
			if u.Kind != model.Move {
				continue
			}
			// Euclidean displacement cannot exceed network distance.
			if d := geom.Dist(u.Old, u.New); d > step+1e-9 {
				t.Fatalf("ts %d: object %d jumped %v > step %v", ts, u.ID, d, step)
			}
		}
	}
}

func TestDeterminism(t *testing.T) {
	mk := func() []model.Batch {
		p := Params{N: 100, NumQueries: 10, ObjectAgility: 0.5, QueryAgility: 0.5, Seed: 11}
		w := testWorkload(t, p)
		w.InitialObjects()
		var bs []model.Batch
		for i := 0; i < 10; i++ {
			bs = append(bs, w.Advance())
		}
		return bs
	}
	a, b := mk(), mk()
	for i := range a {
		if len(a[i].Objects) != len(b[i].Objects) || len(a[i].Queries) != len(b[i].Queries) {
			t.Fatalf("ts %d: batch sizes differ", i)
		}
		for j := range a[i].Objects {
			if a[i].Objects[j] != b[i].Objects[j] {
				t.Fatalf("ts %d: object update %d differs", i, j)
			}
		}
	}
}

func TestLifecyclePanics(t *testing.T) {
	w := testWorkload(t, Params{N: 10, Seed: 1})
	for name, f := range map[string]func(){
		"queries before objects": func() { w.InitialQueries() },
		"advance before objects": func() { w.Advance() },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: no panic", name)
				}
			}()
			f()
		}()
	}
	w.InitialObjects()
	defer func() {
		if recover() == nil {
			t.Error("double InitialObjects: no panic")
		}
	}()
	w.InitialObjects()
}

func TestZeroAgilityProducesEmptyBatches(t *testing.T) {
	w := testWorkload(t, Params{N: 50, NumQueries: 5, Seed: 2})
	w.InitialObjects()
	for i := 0; i < 5; i++ {
		b := w.Advance()
		if len(b.Objects) != 0 || len(b.Queries) != 0 {
			t.Fatalf("zero agility produced updates: %+v", b)
		}
	}
}

// TestGoldenStream pins the generated stream across versions: a hash of the
// initial objects (in id order), the initial queries and 200 Advance
// batches of a 12×12-city workload. TestDeterminism compares two runs of
// the same code; this catches a change of routing or float arithmetic that
// shifts every run alike.
func TestGoldenStream(t *testing.T) {
	const want = uint64(0x73465c9236851bb7)
	p := Params{N: 500, NumQueries: 40, ObjectSpeed: Fast, QuerySpeed: Medium,
		ObjectAgility: 0.5, QueryAgility: 0.3, Seed: 3}
	w := testWorkload(t, p)
	h := fnv.New64a()
	var buf [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	putPoint := func(q geom.Point) {
		put(math.Float64bits(q.X))
		put(math.Float64bits(q.Y))
	}
	objs := w.InitialObjects()
	ids := make([]model.ObjectID, 0, len(objs))
	for id := range objs {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	for _, id := range ids {
		put(uint64(id))
		putPoint(objs[id])
	}
	for _, q := range w.InitialQueries() {
		putPoint(q)
	}
	for ts := 0; ts < 200; ts++ {
		b := w.Advance()
		for _, u := range b.Objects {
			put(uint64(u.ID))
			put(uint64(u.Kind))
			putPoint(u.Old)
			putPoint(u.New)
		}
		for _, qu := range b.Queries {
			put(uint64(qu.ID))
			for _, q := range qu.NewPoints {
				putPoint(q)
			}
		}
	}
	if got := h.Sum64(); got != want {
		t.Fatalf("stream hash = %#x, want %#x", got, want)
	}
}
