package grid

import (
	"math"

	"cpm/internal/geom"
	"cpm/internal/model"
)

// Applied is one entry of a tick's write log: an object-stream element that
// passed validation and was applied to the grid, together with the cell
// transition the grid observed. The sharded monitor applies the object
// stream exactly once (coordinator thread) and fans the log out to every
// shard, whose influence scans need only the logged positions and cells —
// never the grid's object data — so all shards can replay the same log
// against a stable epoch.
type Applied struct {
	ID   model.ObjectID
	Kind model.UpdateKind
	Pos  geom.Point // stored (clamped) position: new for Move/Insert, old for Delete
	Old  CellIndex  // cell left behind (Move/Delete); NoCell for Insert
	New  CellIndex  // cell entered (Move/Insert); NoCell for Delete
}

// ApplyBatch applies an object-update stream to the grid in order,
// appending one Applied entry per accepted update to log (normally
// log[:0] of a buffer reused across ticks) and returning the extended log
// plus the number of invalid updates dropped. Validation — non-finite
// coordinates, inserts of live objects, moves/deletes of unknown ones —
// matches what the engines previously enforced update-by-update, so
// invalid-update accounting is unchanged and charged once per stream, not
// once per shard.
//
// The whole batch runs inside one write window (BeginWrites/EndWrites), so
// the epoch advances by one per call and, on a shared grid, the race-build
// assertions catch any reader overlapping the application.
func (g *Grid) ApplyBatch(updates []model.Update, log []Applied) ([]Applied, int64) {
	g.BeginWrites()
	defer g.EndWrites()
	var invalid int64
	for _, u := range updates {
		switch u.Kind {
		case model.Move:
			if !finite(u.New) {
				invalid++
				continue
			}
			p := g.Clamp(u.New)
			oldCell, newCell, err := g.move(u.ID, p)
			if err != nil {
				invalid++
				continue
			}
			log = append(log, Applied{ID: u.ID, Kind: model.Move, Pos: p, Old: oldCell, New: newCell})
		case model.Insert:
			if !finite(u.New) {
				invalid++
				continue
			}
			p := g.Clamp(u.New)
			newCell, err := g.insert(u.ID, p)
			if err != nil {
				invalid++
				continue
			}
			log = append(log, Applied{ID: u.ID, Kind: model.Insert, Pos: p, Old: NoCell, New: newCell})
		case model.Delete:
			pos, oldCell, err := g.remove(u.ID)
			if err != nil {
				invalid++
				continue
			}
			log = append(log, Applied{ID: u.ID, Kind: model.Delete, Pos: pos, Old: oldCell, New: NoCell})
		default:
			invalid++
		}
	}
	return log, invalid
}

func finite(p geom.Point) bool {
	return !math.IsNaN(p.X) && !math.IsNaN(p.Y) && !math.IsInf(p.X, 0) && !math.IsInf(p.Y, 0)
}
