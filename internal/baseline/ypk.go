package baseline

import (
	"fmt"

	"cpm/internal/geom"
	"cpm/internal/grid"
	"cpm/internal/model"
)

// YPK implements YPK-CNN (paper Section 2, Figure 2.1). Updates are applied
// directly to the grid as they arrive; every installed query is re-evaluated
// once per processing cycle:
//
//   - new and moving queries run the two-step search from scratch;
//   - static queries refresh within a square of side 2·d_max+δ, where d_max
//     is how far the farthest previous NN has drifted — the previous result
//     guarantees at least k objects inside.
//
// YPK-CNN keeps no influence lists: it cannot tell which queries an update
// affects, which is exactly the inefficiency CPM removes (Section 4.2).
type YPK struct {
	g       *grid.Grid
	queries map[model.QueryID]*ypkQuery
	stats   model.Stats
	invalid int64
}

type ypkQuery struct {
	id     model.QueryID
	point  geom.Point
	k      int
	result []model.Neighbor
}

// NewYPK creates a YPK-CNN monitor over a fresh grid.
func NewYPK(gridSize int, workspace geom.Rect) *YPK {
	return &YPK{
		g:       grid.New(gridSize, workspace),
		queries: make(map[model.QueryID]*ypkQuery),
	}
}

// NewUnitYPK creates a YPK-CNN monitor over the unit square.
func NewUnitYPK(gridSize int) *YPK {
	return &YPK{
		g:       grid.NewUnit(gridSize),
		queries: make(map[model.QueryID]*ypkQuery),
	}
}

// Name implements model.Monitor.
func (y *YPK) Name() string { return "YPK-CNN" }

// Grid exposes the underlying index for tests and the harness.
func (y *YPK) Grid() *grid.Grid { return y.g }

// Bootstrap implements model.Monitor.
func (y *YPK) Bootstrap(objs map[model.ObjectID]geom.Point) {
	if y.g.Count() > 0 {
		panic("baseline: Bootstrap on a non-empty YPK monitor")
	}
	for id, p := range objs {
		if err := y.g.Insert(id, p); err != nil {
			panic(fmt.Sprintf("baseline: bootstrap insert of object %d: %v", id, err))
		}
	}
}

// RegisterQuery implements model.Monitor: first-time evaluation runs the
// two-step search.
func (y *YPK) RegisterQuery(id model.QueryID, q geom.Point, k int) error {
	if k <= 0 {
		return fmt.Errorf("baseline: non-positive k %d", k)
	}
	if _, exists := y.queries[id]; exists {
		return fmt.Errorf("baseline: query %d already installed", id)
	}
	qu := &ypkQuery{id: id, point: q, k: k}
	y.stats.FullSearches++
	qu.result = twoStepSearch(y.g, q, k)
	y.queries[id] = qu
	return nil
}

// RemoveQuery implements model.Monitor.
func (y *YPK) RemoveQuery(id model.QueryID) {
	delete(y.queries, id)
}

// ProcessBatch implements model.Monitor: apply all updates to the grid,
// then re-evaluate every query (YPK-CNN has no notion of which queries an
// update influences).
func (y *YPK) ProcessBatch(b model.Batch) {
	for _, u := range b.Objects {
		if _, _, ok := applyToGrid(y.g, u); !ok {
			y.invalid++
		}
	}

	moved := map[model.QueryID]bool{}
	for _, qu := range b.Queries {
		switch qu.Kind {
		case model.QueryTerminate:
			if _, ok := y.queries[qu.ID]; !ok {
				y.invalid++
				continue
			}
			y.RemoveQuery(qu.ID)
		case model.QueryMove:
			entry, ok := y.queries[qu.ID]
			if !ok || len(qu.NewPoints) != 1 {
				y.invalid++
				continue
			}
			entry.point = qu.NewPoints[0]
			moved[qu.ID] = true
		case model.QueryInstall:
			// Installs happen through RegisterQuery.
		default:
			y.invalid++
		}
	}

	for _, qu := range y.queries {
		if moved[qu.id] || len(qu.result) < qu.k {
			// Moving queries are handled as new ones; queries that never
			// had a full result cannot bound d_max and start over too.
			y.stats.FullSearches++
			qu.result = twoStepSearch(y.g, qu.point, qu.k)
			continue
		}
		y.refresh(qu)
	}
}

// refresh is YPK-CNN's update handling for a static query (Figure 2.1b):
// d_max bounds how far the previous NNs have drifted, so the square of side
// 2·d_max+δ around c_q is guaranteed to contain at least k objects.
func (y *YPK) refresh(qu *ypkQuery) {
	dmax := 0.0
	for _, n := range qu.result {
		p, alive := y.g.Position(n.ID)
		if !alive {
			// A previous NN went off-line; YPK-CNN has no bound to search
			// within and starts from scratch.
			y.stats.FullSearches++
			qu.result = twoStepSearch(y.g, qu.point, qu.k)
			return
		}
		if d := geom.Dist(p, qu.point); d > dmax {
			dmax = d
		}
	}
	y.stats.Recomputations++
	col, row := y.g.ColRow(qu.point)
	sr := squareAroundCell(y.g, col, row, 2*dmax+y.g.Delta())
	qu.result = rectSearch(y.g, qu.point, sr, qu.k)
}

// Result implements model.Monitor.
func (y *YPK) Result(id model.QueryID) []model.Neighbor {
	qu, ok := y.queries[id]
	if !ok {
		return nil
	}
	out := make([]model.Neighbor, len(qu.result))
	copy(out, qu.result)
	return out
}

// Stats implements model.Monitor.
func (y *YPK) Stats() model.Stats {
	s := y.stats
	s.CellAccesses = y.g.CellAccesses()
	return s
}

// InvalidUpdates returns the count of dropped inconsistent updates.
func (y *YPK) InvalidUpdates() int64 { return y.invalid }

// MemoryFootprint returns the monitor's size in the abstract units of
// Section 4.1: 3·N for the grid plus, per query, 3 units for id and
// coordinates and 2·k for the result (YPK-CNN keeps no other state).
func (y *YPK) MemoryFootprint() int64 {
	units := y.g.MemoryFootprint()
	for _, qu := range y.queries {
		units += int64(3 + 2*qu.k)
	}
	return units
}

var _ model.Monitor = (*YPK)(nil)
