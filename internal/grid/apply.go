package grid

import (
	"cpm/internal/geom"
	"cpm/internal/model"
)

// Applied is one entry of a tick's write log: an object-stream element that
// passed validation and was applied to the grid, together with the cell
// transition the grid observed. The sharded monitor applies the object
// stream exactly once (coordinator thread) and fans the log out to every
// shard, whose influence scans need only the logged positions and cells —
// never the grid's object data — so all shards can replay the same log
// against a stable epoch. An update outside every influence region is
// applied but need not be logged (ApplyWatched).
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
	return g.ApplyWatched(updates, log, nil)
}

// ApplyWatched is ApplyBatch with a filtered log: it appends an entry only
// for an update whose old or new cell is in watch — normally the cells some
// influence list covers (Influence.Occupied) — and a nil watch logs every
// update. An update nobody watches costs its index maintenance alone (the
// paper's Time_ind); it is validated, applied and counted exactly as
// ApplyBatch does, so the grid, the invalid count and the epoch come out the
// same.
//
// Index maintenance relocates each update between cell lists, or — when
// regroupPays says the batch is large enough — applies every update to the
// id-indexed store and regroups the cell lists once at the end. Both give the
// same log, counts and cell sets.
func (g *Grid) ApplyWatched(updates []model.Update, log []Applied, watch *CellSet) ([]Applied, int64) {
	return g.apply(updates, log, watch, g.regroupPays(len(updates)))
}

// regroupPays reports whether a batch of n updates is cheaper to apply by
// one regroup than by relocating each update. BenchmarkApplyBatch on a 128²
// grid (2-core Xeon, 2.1 GHz) prices a relocation at 25–45 ns per update
// and a regroup at 15–20 ns per update plus 5–10 ns per live object, about
// 1 ns per dead id slot of the store and 1.2 ns per cell. With a 20 ns gap
// per update the break-even rounds to 2·n ≥ live + slots/16 + cells/8. It
// regroups a batch moving all of 5 000 objects (117 µs against 153 µs
// relocating) or of 50 000 (1.25 against 1.48 ms), but not one moving half
// of them (81 against 75 µs, 894 against 759 µs), nor half of 10 000
// objects whose ids lie 16 apart (603 against 304 µs).
func (g *Grid) regroupPays(n int) bool {
	return 2*n >= g.count+len(g.alive)/16+len(g.cells)/8
}

// apply is ApplyWatched with the maintenance mode fixed by the caller;
// tests force either mode through it.
func (g *Grid) apply(updates []model.Update, log []Applied, watch *CellSet, regroup bool) ([]Applied, int64) {
	g.BeginWrites()
	defer g.EndWrites()
	relocate := !regroup
	var invalid int64
	for _, u := range updates {
		switch u.Kind {
		case model.Move:
			if !u.New.Finite() {
				invalid++
				continue
			}
			p := g.Clamp(u.New)
			oldCell, newCell, err := g.move(u.ID, p, relocate)
			if err != nil {
				invalid++
				continue
			}
			if watch == nil || watch.Has(oldCell) || watch.Has(newCell) {
				log = append(log, Applied{ID: u.ID, Kind: model.Move, Pos: p, Old: oldCell, New: newCell})
			}
		case model.Insert:
			if !u.New.Finite() {
				invalid++
				continue
			}
			p := g.Clamp(u.New)
			newCell, err := g.insert(u.ID, p, relocate)
			if err != nil {
				invalid++
				continue
			}
			if watch == nil || watch.Has(newCell) {
				log = append(log, Applied{ID: u.ID, Kind: model.Insert, Pos: p, Old: NoCell, New: newCell})
			}
		case model.Delete:
			pos, oldCell, err := g.remove(u.ID, relocate)
			if err != nil {
				invalid++
				continue
			}
			if watch == nil || watch.Has(oldCell) {
				log = append(log, Applied{ID: u.ID, Kind: model.Delete, Pos: pos, Old: oldCell, New: NoCell})
			}
		default:
			invalid++
		}
	}
	if regroup {
		g.regroup()
	}
	g.assertIndex()
	return log, invalid
}
