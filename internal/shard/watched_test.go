package shard_test

import (
	"fmt"
	"reflect"
	"slices"
	"sort"
	"testing"

	"cpm/internal/core"
	"cpm/internal/geom"
	"cpm/internal/grid"
	"cpm/internal/model"
	"cpm/internal/shard"
)

// resizable is a monitor whose grid can be rebalanced mid-stream.
type resizable interface {
	monitor
	Rebalance(int)
}

// watchedStream shapes one tick around the reference monitor's watched
// cells: objects in unwatched cells move to other unwatched cells (the
// updates the filtered write log drops), stay put in their cell, or cross
// into an influence region; objects inside one move within it or back out;
// inserts and deletes land mostly on unwatched cells. Every object gets at
// most one update: on a quiet tick about a third of them do, few enough for
// the grid to relocate each update, and on a busy tick every one does,
// which sends the batch to a regroup of the cell lists. It returns the
// batch and how many of its updates touch no watched cell.
func (w *world) watchedStream(ref *shard.Monitor, busy bool) (model.Batch, int) {
	size := ref.GridSize()
	watched := ref.Watched()
	var in, out []grid.CellIndex
	for c := range grid.CellIndex(size * size) {
		if watched.Has(c) {
			in = append(in, c)
		} else {
			out = append(out, c)
		}
	}
	cellOf := func(p geom.Point) grid.CellIndex {
		col := min(int(p.X*float64(size)), size-1)
		row := min(int(p.Y*float64(size)), size-1)
		return grid.CellIndex(row*size + col)
	}
	pointIn := func(c grid.CellIndex) geom.Point {
		col, row := int(c)%size, int(c)/size
		return geom.Point{
			X: (float64(col) + w.rng.Float64()) / float64(size),
			Y: (float64(row) + w.rng.Float64()) / float64(size),
		}
	}
	pick := func(cells []grid.CellIndex) grid.CellIndex { return cells[w.rng.Intn(len(cells))] }

	var b model.Batch
	dropped := 0
	live := make([]model.ObjectID, 0, len(w.pos))
	for id := range w.pos {
		live = append(live, id)
	}
	sort.Slice(live, func(i, j int) bool { return live[i] < live[j] })
	for _, id := range live {
		if !busy && w.rng.Float64() < 0.4 {
			continue
		}
		from := w.pos[id]
		was := cellOf(from)
		var to geom.Point
		r := w.rng.Float64()
		switch {
		case !watched.Has(was) && r < 0.12 && len(in) > 0:
			to = pointIn(pick(in)) // into an influence region
		case !watched.Has(was) && r < 0.42:
			to = pointIn(pick(out)) // nobody watches either end
			dropped++
		case !watched.Has(was) && r < 0.52:
			to = pointIn(was) // within its unwatched cell
			dropped++
		case !watched.Has(was) && r < 0.55:
			b.Objects = append(b.Objects, model.DeleteUpdate(id, from))
			delete(w.pos, id)
			dropped++
			continue
		case watched.Has(was) && r < 0.3:
			to = pointIn(pick(in)) // within the watched cells
		case watched.Has(was) && r < 0.5:
			to = pointIn(pick(out)) // back out
		case !busy:
			continue
		default:
			to = pointIn(was) // stays in its cell
			if !watched.Has(was) {
				dropped++
			}
		}
		b.Objects = append(b.Objects, model.MoveUpdate(id, from, to))
		w.pos[id] = to
	}
	for i := 0; i < 6; i++ {
		cell, unwatched := pick(out), true
		if i == 0 && len(in) > 0 {
			cell, unwatched = pick(in), false
		}
		p := pointIn(cell)
		b.Objects = append(b.Objects, model.InsertUpdate(w.nextObj, p))
		w.pos[w.nextObj] = p
		w.nextObj++
		if unwatched {
			dropped++
		}
	}
	return b, dropped
}

// TestWatchedLogMatchesOracle drives static queries through streams built
// to exercise the filtered write log — most updates touch no influence
// region, others cross into one, move within it and leave it again — and
// checks every configuration against the brute-force oracle every tick:
// results, ChangedQueries, and a diff stream that is the reference monitor's
// byte for byte and replays to the oracle's results. Every third tick is
// busy, so the grid both relocates and regroups, before and after every
// monitor is rebalanced halfway through to a grid whose cell count is not a
// multiple of 64.
func TestWatchedLogMatchesOracle(t *testing.T) {
	const (
		gridSize = 16
		objects  = 300
		ticks    = 30
	)
	w := newWorld(5, gridSize, objects)
	ref := shard.NewUnit(1, gridSize, core.Options{})
	monitors := []resizable{ref}
	names := []string{"shards=1"}
	add := func(name string, m resizable) {
		monitors = append(monitors, m)
		names = append(names, name)
	}
	add("shards=1/PerUpdate", shard.NewUnit(1, gridSize, core.Options{PerUpdate: true}))
	for workers := 2; workers <= 4; workers++ {
		e := shard.NewUnit(1, gridSize, core.Options{ScanWorkers: workers})
		defer e.Close()
		add(fmt.Sprintf("shards=1/ScanWorkers=%d", workers), e)
	}
	for n := 2; n <= 8; n++ {
		s := shard.NewUnit(n, gridSize, core.Options{ScanWorkers: 1 + n%4})
		defer s.Close()
		add(fmt.Sprintf("shards=%d/ScanWorkers=%d", n, 1+n%4), s)
	}
	s := shard.NewUnit(3, gridSize, core.Options{PerUpdate: true})
	defer s.Close()
	add("shards=3/PerUpdate", s)

	boot := make(map[model.ObjectID]geom.Point, len(w.pos))
	for id, p := range w.pos {
		boot[id] = p
	}
	plain := make([]monitor, len(monitors))
	for i, m := range monitors {
		m.Bootstrap(boot)
		m.EnableDiffs(true)
		plain[i] = m
	}
	for i := 0; i < 8; i++ {
		w.install(t, plain)
	}
	prev := map[model.QueryID][]model.Neighbor{}
	for id, def := range w.queries {
		prev[id] = w.expect(def)
	}
	for _, m := range monitors {
		m.TakeDiffs()
	}

	totalDropped, total, changes := 0, 0, 0
	for tick := 0; tick < ticks; tick++ {
		if tick == ticks/2 {
			for _, m := range monitors {
				m.Rebalance(11)
			}
		}
		b, dropped := w.watchedStream(ref, tick%3 == 1)
		totalDropped += dropped
		total += len(b.Objects)
		w.applyToOracle(b)
		for _, m := range monitors {
			m.ProcessBatch(b)
		}

		var wantChanged []model.QueryID
		now := map[model.QueryID][]model.Neighbor{}
		for id, def := range w.queries {
			now[id] = w.expect(def)
			if !neighborsEqual(now[id], prev[id]) {
				wantChanged = append(wantChanged, id)
			}
		}
		slices.Sort(wantChanged)
		changes += len(wantChanged)

		refDiffs := ref.TakeDiffs()
		checkDiffsAgainstOracle(t, tick, refDiffs, wantChanged, prev, now)
		for i, m := range monitors {
			for id, def := range w.queries {
				if got := w.result(m, id, def); !neighborsEqual(got, now[id]) {
					t.Fatalf("tick %d %s q%d: got %v, oracle %v", tick, names[i], id, got, now[id])
				}
			}
			if got := m.ChangedQueries(); !slices.Equal(got, wantChanged) {
				t.Fatalf("tick %d %s: changed %v, oracle %v", tick, names[i], got, wantChanged)
			}
			if i == 0 {
				continue
			}
			if got := m.TakeDiffs(); !reflect.DeepEqual(got, refDiffs) {
				t.Fatalf("tick %d %s: diff stream\ngot  %v\nwant %v", tick, names[i], got, refDiffs)
			}
		}
		prev = now
	}
	if totalDropped < total/3 || changes < ticks {
		t.Fatalf("%d of %d updates touched no watched cell, %d result changes: the stream does not exercise the filter", totalDropped, total, changes)
	}
}

// checkDiffsAgainstOracle checks one tick's diff stream: one update event
// per changed query, in id order, whose Result is the oracle's and whose
// Exited, Entered and Reranked turn the previous oracle result into it.
func checkDiffsAgainstOracle(t *testing.T, tick int, diffs []model.ResultDiff, changed []model.QueryID, prev, now map[model.QueryID][]model.Neighbor) {
	t.Helper()
	if len(diffs) != len(changed) {
		t.Fatalf("tick %d: %d diffs for %d changed queries %v", tick, len(diffs), len(changed), changed)
	}
	for i, d := range diffs {
		if d.Query != changed[i] || d.Kind != model.DiffUpdate || !neighborsEqual(d.Result, now[d.Query]) {
			t.Fatalf("tick %d: diff %d is %+v, want an update of q%d to %v", tick, i, d, changed[i], now[changed[i]])
		}
		set := map[model.ObjectID]float64{}
		for _, n := range prev[d.Query] {
			set[n.ID] = n.Dist
		}
		for _, id := range d.Exited {
			delete(set, id)
		}
		for _, n := range slices.Concat(d.Entered, d.Reranked) {
			set[n.ID] = n.Dist
		}
		replayed := make([]model.Neighbor, 0, len(set))
		for id, dist := range set {
			replayed = append(replayed, model.Neighbor{ID: id, Dist: dist})
		}
		sort.Slice(replayed, func(i, j int) bool { return replayed[i].Less(replayed[j]) })
		if !neighborsEqual(replayed, d.Result) {
			t.Fatalf("tick %d q%d: replayed %v, result %v", tick, d.Query, replayed, d.Result)
		}
	}
}
