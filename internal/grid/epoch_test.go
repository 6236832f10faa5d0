package grid

import (
	"errors"
	"testing"

	"cpm/internal/geom"
	"cpm/internal/model"
)

// TestEpochCountsWriteBatches pins the epoch semantics: every completed
// write window — explicit BeginWrites/EndWrites pairs, ApplyBatch calls
// and Rebuilds, which bracket themselves — advances the epoch by exactly
// one, shared or not.
func TestEpochCountsWriteBatches(t *testing.T) {
	g := NewUnit(8)
	if g.Epoch() != 0 {
		t.Fatalf("fresh grid epoch = %d, want 0", g.Epoch())
	}
	if g.Shared() {
		t.Fatal("fresh grid reports shared mode")
	}

	g.BeginWrites()
	if g.Epoch() != 0 {
		t.Fatalf("epoch advanced inside an open window: %d", g.Epoch())
	}
	if err := g.Insert(1, geom.Point{X: 0.5, Y: 0.5}); err != nil {
		t.Fatal(err)
	}
	g.EndWrites()
	if g.Epoch() != 1 {
		t.Fatalf("epoch after bootstrap window = %d, want 1", g.Epoch())
	}

	log, invalid := g.ApplyBatch([]model.Update{
		model.MoveUpdate(1, geom.Point{X: 0.5, Y: 0.5}, geom.Point{X: 0.25, Y: 0.25}),
		model.InsertUpdate(2, geom.Point{X: 0.75, Y: 0.75}),
		model.MoveUpdate(99, geom.Point{}, geom.Point{X: 0.1, Y: 0.1}), // unknown id
	}, nil)
	if g.Epoch() != 2 {
		t.Fatalf("epoch after ApplyBatch = %d, want 2", g.Epoch())
	}
	if invalid != 1 {
		t.Fatalf("ApplyBatch invalid = %d, want 1", invalid)
	}
	if len(log) != 2 {
		t.Fatalf("ApplyBatch logged %d entries, want 2: %+v", len(log), log)
	}
	if log[0].Kind != model.Move || log[0].ID != 1 || log[0].New != g.CellOf(geom.Point{X: 0.25, Y: 0.25}) {
		t.Fatalf("move log entry %+v", log[0])
	}
	if log[1].Kind != model.Insert || log[1].ID != 2 || log[1].Old != NoCell {
		t.Fatalf("insert log entry %+v", log[1])
	}

	g.Rebuild(16)
	if g.Epoch() != 3 {
		t.Fatalf("epoch after Rebuild = %d, want 3", g.Epoch())
	}
	if g.Count() != 2 {
		t.Fatalf("object count after rebuild = %d, want 2", g.Count())
	}
}

// TestApplyBatchDeleteLogsOldCell checks the delete path of the write log:
// the logged entry carries the deceased object's last position and cell so
// shards can route the event through their influence lists.
func TestApplyBatchDeleteLogsOldCell(t *testing.T) {
	g := NewUnit(8)
	p := geom.Point{X: 0.3, Y: 0.9}
	g.BeginWrites()
	if err := g.Insert(7, p); err != nil {
		t.Fatal(err)
	}
	g.EndWrites()
	was := g.CellOf(p)

	log, invalid := g.ApplyBatch([]model.Update{
		model.DeleteUpdate(7, p),
		model.DeleteUpdate(7, p), // second delete of the same id is invalid
	}, nil)
	if invalid != 1 {
		t.Fatalf("invalid = %d, want 1", invalid)
	}
	if len(log) != 1 {
		t.Fatalf("logged %d entries, want 1", len(log))
	}
	e := log[0]
	if e.Kind != model.Delete || e.ID != 7 || e.Old != was || e.New != NoCell || e.Pos != p {
		t.Fatalf("delete log entry %+v (want old cell %d at %v)", e, was, p)
	}
	if g.Count() != 0 {
		t.Fatalf("count after delete = %d", g.Count())
	}
}

// TestApplyBatchReusesLog pins the zero-allocation contract: a warm log
// slice with sufficient capacity is reused, not reallocated.
func TestApplyBatchReusesLog(t *testing.T) {
	g := NewUnit(8)
	g.BeginWrites()
	if err := g.Insert(1, geom.Point{X: 0.1, Y: 0.1}); err != nil {
		t.Fatal(err)
	}
	g.EndWrites()

	buf := make([]Applied, 0, 8)
	u := []model.Update{model.MoveUpdate(1, geom.Point{X: 0.1, Y: 0.1}, geom.Point{X: 0.2, Y: 0.2})}
	log, _ := g.ApplyBatch(u, buf)
	if len(log) != 1 || cap(log) != cap(buf) || &log[:1][0] != &buf[:1][0] {
		t.Fatalf("ApplyBatch reallocated a sufficient log buffer (len %d cap %d)", len(log), cap(log))
	}
}

// TestApplyBatchInvalidUpdatesDoNotAllocate: ApplyBatch only counts the
// updates it rejects, so rejecting them — sentinel errors, no formatted
// message — must cost no allocation, whatever a misbehaving client sends.
func TestApplyBatchInvalidUpdatesDoNotAllocate(t *testing.T) {
	g := NewUnit(8)
	g.BeginWrites()
	if err := g.Insert(1, geom.Point{X: 0.1, Y: 0.1}); err != nil {
		t.Fatal(err)
	}
	g.EndWrites()
	p := geom.Point{X: 0.5, Y: 0.5}
	bad := []model.Update{
		model.MoveUpdate(7, p, p),          // unknown id
		model.MoveUpdate(-3, p, p),         // negative id
		model.MoveUpdate(100000, p, p),     // beyond the position store
		model.DeleteUpdate(7, p),           // unknown id
		model.DeleteUpdate(-3, p),          // negative id
		model.InsertUpdate(1, p),           // duplicate of a live object
		model.InsertUpdate(-3, p),          // negative id
		{ID: 1, Kind: model.UpdateKind(9)}, // unknown kind
	}
	g.BeginWrites()
	_, _, moveErr := g.Move(7, p)
	for _, c := range []struct{ got, want error }{
		{g.Insert(1, p), ErrLiveObject},
		{g.Insert(-3, p), ErrNegativeID},
		{g.Delete(7), ErrUnknownObject},
		{moveErr, ErrUnknownObject},
	} {
		if !errors.Is(c.got, c.want) {
			t.Fatalf("got error %v, want the sentinel %v", c.got, c.want)
		}
	}
	g.EndWrites()
	log := make([]Applied, 0, len(bad))
	var invalid int64
	avg := testing.AllocsPerRun(100, func() {
		log, invalid = g.ApplyBatch(bad, log[:0])
	})
	if invalid != int64(len(bad)) || len(log) != 0 {
		t.Fatalf("ApplyBatch applied %d and rejected %d of %d invalid updates", len(log), invalid, len(bad))
	}
	if avg != 0 {
		t.Fatalf("a batch of invalid updates allocates %.1f/op, want 0", avg)
	}
}
