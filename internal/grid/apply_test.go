package grid

import (
	"fmt"
	"math"
	"testing"

	"cpm/internal/geom"
	"cpm/internal/model"
)

// TestAdmitsMatchesApplyBatch pins Admits to what the apply loop does: for
// every update kind (and one unknown kind), on a live id, a dead id and a
// negative id, with a finite and a NaN position, an update is applied —
// counted valid, logged and reflected in the population — exactly when
// Admits says so, whether the batch relocates or regroups.
func TestAdmitsMatchesApplyBatch(t *testing.T) {
	const liveID, deadID, negID = 3, 5, -5
	kinds := []model.UpdateKind{model.Move, model.Insert, model.Delete, model.UpdateKind(99)}
	for _, regroup := range []bool{false, true} {
		for _, kind := range kinds {
			for _, id := range []model.ObjectID{liveID, deadID, negID} {
				for _, p := range []geom.Point{{X: 0.7, Y: 0.2}, {X: math.NaN(), Y: 0.2}} {
					name := fmt.Sprintf("regroup=%v/kind=%d/id=%d/%v", regroup, kind, id, p)
					g := NewUnit(4)
					if err := g.Insert(liveID, geom.Point{X: 0.1, Y: 0.1}); err != nil {
						t.Fatal(err)
					}
					u := model.Update{ID: id, Kind: kind, New: p}
					want := Admits(u, id == liveID)
					log, invalid := g.apply([]model.Update{u}, nil, nil, regroup)
					if got := invalid == 0; got != want {
						t.Fatalf("%s: applied %v, Admits says %v", name, got, want)
					}
					if len(log) != 1-int(invalid) {
						t.Fatalf("%s: %d log entries for %d invalid", name, len(log), invalid)
					}
					wantAlive := id == liveID
					if want && kind != model.Move {
						wantAlive = kind == model.Insert
					}
					if _, alive := g.Position(id); alive != wantAlive {
						t.Fatalf("%s: object %d alive %v, want %v", name, id, alive, wantAlive)
					}
				}
			}
		}
	}
}
