package model

import (
	"sort"
	"testing"
	"testing/quick"

	"cpm/internal/geom"
)

func TestUpdateKindString(t *testing.T) {
	cases := map[UpdateKind]string{
		Move:          "move",
		Insert:        "insert",
		Delete:        "delete",
		UpdateKind(9): "kind(9)",
	}
	for k, want := range cases {
		if got := k.String(); got != want {
			t.Errorf("%d.String() = %q, want %q", k, got, want)
		}
	}
}

func TestUpdateConstructors(t *testing.T) {
	a := geom.Point{X: 0.1, Y: 0.2}
	b := geom.Point{X: 0.3, Y: 0.4}
	mv := MoveUpdate(5, a, b)
	if mv.Kind != Move || mv.ID != 5 || mv.Old != a || mv.New != b {
		t.Errorf("MoveUpdate = %+v", mv)
	}
	in := InsertUpdate(6, b)
	if in.Kind != Insert || in.New != b {
		t.Errorf("InsertUpdate = %+v", in)
	}
	del := DeleteUpdate(7, a)
	if del.Kind != Delete || del.Old != a {
		t.Errorf("DeleteUpdate = %+v", del)
	}
}

func TestNeighborLessOrder(t *testing.T) {
	cases := []struct {
		a, b Neighbor
		want bool
	}{
		{Neighbor{1, 0.5}, Neighbor{2, 0.6}, true},
		{Neighbor{1, 0.6}, Neighbor{2, 0.5}, false},
		{Neighbor{1, 0.5}, Neighbor{2, 0.5}, true},  // distance tie: lower id
		{Neighbor{3, 0.5}, Neighbor{2, 0.5}, false}, // distance tie: higher id
		{Neighbor{1, 0.5}, Neighbor{1, 0.5}, false}, // equal: strict order
	}
	for _, c := range cases {
		if got := c.a.Less(c.b); got != c.want {
			t.Errorf("%v.Less(%v) = %v, want %v", c.a, c.b, got, c.want)
		}
	}
}

// TestNeighborLessIsStrictWeakOrder: sorting by Less must be a valid
// total order on (Dist, ID) pairs — asymmetric and transitive.
func TestNeighborLessIsStrictWeakOrder(t *testing.T) {
	f := func(d1, d2, d3 float64, i1, i2, i3 int32) bool {
		ns := []Neighbor{
			{ID: ObjectID(i1), Dist: norm(d1)},
			{ID: ObjectID(i2), Dist: norm(d2)},
			{ID: ObjectID(i3), Dist: norm(d3)},
		}
		// Asymmetry.
		for _, a := range ns {
			for _, b := range ns {
				if a.Less(b) && b.Less(a) {
					return false
				}
			}
		}
		// sort.Slice must not panic and must yield a sorted sequence.
		sort.Slice(ns, func(i, j int) bool { return ns[i].Less(ns[j]) })
		for i := 1; i < len(ns); i++ {
			if ns[i].Less(ns[i-1]) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func norm(v float64) float64 {
	if v != v || v < 0 {
		return 0
	}
	if v > 1e308 {
		return 1e308
	}
	return v
}

func TestStatsAddSub(t *testing.T) {
	a := Stats{CellAccesses: 10, ObjectsProcessed: 20, HeapOps: 30,
		Recomputations: 1, FullSearches: 2, ShortCircuits: 3}
	b := Stats{CellAccesses: 1, ObjectsProcessed: 2, HeapOps: 3,
		Recomputations: 4, FullSearches: 5, ShortCircuits: 6}
	var acc Stats
	acc.Add(a)
	acc.Add(b)
	if acc.CellAccesses != 11 || acc.ShortCircuits != 9 {
		t.Errorf("Add = %+v", acc)
	}
	d := acc.Sub(b)
	if d != a {
		t.Errorf("Sub = %+v, want %+v", d, a)
	}
}

func TestOwnerSpreadsClusteredIDs(t *testing.T) {
	const n = 4
	var counts [n]int
	for id := QueryID(0); id < 400; id++ {
		o := Owner(id, n)
		if o < 0 || o >= n || Owner(id, n) != o {
			t.Fatalf("Owner(%d, %d) = %d", id, n, o)
		}
		counts[o]++
	}
	for o, c := range counts {
		if c < 80 || c > 120 {
			t.Errorf("owner %d holds %d of 400 consecutive ids", o, c)
		}
	}
	if Owner(123, 1) != 0 {
		t.Error("one partition must own everything")
	}
}

func TestSortByQueryIsStable(t *testing.T) {
	diffs := []ResultDiff{
		{Query: 3, Kind: DiffRemove}, {Query: 1, Kind: DiffUpdate},
		{Query: 3, Kind: DiffInstall}, {Query: 2}, {Query: 1, Kind: DiffRemove},
	}
	SortByQuery(diffs)
	want := []ResultDiff{
		{Query: 1, Kind: DiffUpdate}, {Query: 1, Kind: DiffRemove}, {Query: 2},
		{Query: 3, Kind: DiffRemove}, {Query: 3, Kind: DiffInstall},
	}
	for i := range want {
		if diffs[i].Query != want[i].Query || diffs[i].Kind != want[i].Kind {
			t.Fatalf("sorted %v, want %v", diffs, want)
		}
	}
}
