package core

import (
	"math"
	"math/rand"
	"sort"
	"testing"

	"cpm/internal/model"
)

// newResultList returns a fresh list armed for k neighbors.
func newResultList(k int) resultList {
	var r resultList
	r.arm(k)
	return r
}

func TestResultListBasics(t *testing.T) {
	r := newResultList(3)
	if r.full() || r.len() != 0 || !math.IsInf(r.kthDist(), 1) {
		t.Fatal("fresh list not empty/inf")
	}
	r.offer(1, 0.5)
	r.offer(2, 0.2)
	r.offer(3, 0.8)
	if !r.full() || r.kthDist() != 0.8 {
		t.Fatalf("kthDist = %v, want 0.8", r.kthDist())
	}
	if !r.offer(4, 0.1) {
		t.Error("better offer rejected")
	}
	if r.offer(5, 0.9) {
		t.Error("worse offer accepted on full list")
	}
	want := []model.Neighbor{{ID: 4, Dist: 0.1}, {ID: 2, Dist: 0.2}, {ID: 1, Dist: 0.5}}
	got := r.snapshot()
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("snapshot = %v, want %v", got, want)
		}
	}
}

func TestResultListMembership(t *testing.T) {
	r := newResultList(4)
	r.offer(10, 0.3)
	r.offer(20, 0.6)
	if !r.contains(10) || r.contains(99) {
		t.Error("contains wrong")
	}
	if r.indexOf(20) != 1 {
		t.Errorf("indexOf(20) = %d, want 1", r.indexOf(20))
	}
	if !r.remove(10) || r.remove(10) {
		t.Error("remove semantics wrong")
	}
	if r.len() != 1 {
		t.Errorf("len after remove = %d", r.len())
	}
}

func TestResultListUpdateDist(t *testing.T) {
	r := newResultList(3)
	r.offer(1, 0.1)
	r.offer(2, 0.2)
	r.offer(3, 0.3)
	if !r.updateDist(3, 0.05) {
		t.Fatal("updateDist failed")
	}
	if r.items[0].ID != 3 {
		t.Fatalf("updated entry not reordered: %v", r.items)
	}
	if r.updateDist(99, 0.5) {
		t.Error("updateDist of absent id reported true")
	}
	// Moving an entry to the back keeps kthDist consistent.
	r.updateDist(3, 0.9)
	if r.kthDist() != 0.9 {
		t.Errorf("kthDist = %v, want 0.9", r.kthDist())
	}
}

func TestResultListTieBreakByID(t *testing.T) {
	r := newResultList(2)
	r.offer(9, 0.5)
	r.offer(3, 0.5)
	r.offer(6, 0.5)
	got := r.snapshot()
	if got[0].ID != 3 || got[1].ID != 6 {
		t.Fatalf("tie-break wrong: %v", got)
	}
}

// TestResultListMatchesSort: random offers against a reference full sort.
func TestResultListMatchesSort(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	for trial := 0; trial < 200; trial++ {
		k := 1 + rng.Intn(8)
		r := newResultList(k)
		var all []model.Neighbor
		n := rng.Intn(40)
		for i := 0; i < n; i++ {
			d := rng.Float64()
			r.offer(model.ObjectID(i), d)
			all = append(all, model.Neighbor{ID: model.ObjectID(i), Dist: d})
		}
		sort.Slice(all, func(i, j int) bool { return all[i].Less(all[j]) })
		if len(all) > k {
			all = all[:k]
		}
		got := r.snapshot()
		if len(got) != len(all) {
			t.Fatalf("len = %d, want %d", len(got), len(all))
		}
		for i := range all {
			if got[i] != all[i] {
				t.Fatalf("trial %d: got %v, want %v", trial, got, all)
			}
		}
	}
}

func TestResultListReset(t *testing.T) {
	r := newResultList(2)
	r.offer(1, 0.1)
	r.reset()
	if r.len() != 0 {
		t.Error("reset did not empty list")
	}
	r.offer(2, 0.2)
	if r.items[0].ID != 2 {
		t.Error("list unusable after reset")
	}
}
