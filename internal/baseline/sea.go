package baseline

import (
	"fmt"
	"math"

	"cpm/internal/geom"
	"cpm/internal/grid"
	"cpm/internal/model"
)

// SEA implements SEA-CNN (paper Section 2, Figure 2.2). Each query's answer
// region is the disk of radius best_dist around it; the cells intersecting
// the region carry book-keeping (influence lists, in the monitor's own
// grid.Influence index, whose handles are the query ids) so updates can be
// routed to the queries they may affect. Update handling distinguishes:
//
//	(i)   NNs moving within the region, or outer objects entering it:
//	      search radius r = best_dist;
//	(ii)  NNs exiting the region: r = d_max, the distance of the previous
//	      NN that moved farthest;
//	(iii) the query moving to q': r = best_dist + dist(q,q'), centered at q'.
//
// SEA-CNN has no own first-time evaluation module; per the paper's
// experimental setup it borrows YPK-CNN's two-step search for initial
// results and for queries whose NNs disappear.
type SEA struct {
	g       *grid.Grid
	infl    *grid.Influence
	queries map[model.QueryID]*seaQuery
	stats   model.Stats
	invalid int64
	cycle   int64
	dirty   []*seaQuery
	log     []grid.Applied // the cycle's write log, reused
}

type seaQuery struct {
	id       model.QueryID
	point    geom.Point
	k        int
	result   []model.Neighbor
	bestDist float64
	region   []grid.CellIndex // cells currently carrying this query's book-keeping

	// Per-cycle case flags, reset lazily.
	cycleMark int64
	caseI     bool    // incoming object or NN moving within the region
	dmax      float64 // case ii: farthest drift of an outgoing NN
	nnDeleted bool    // an NN went off-line
}

// NewSEA creates a SEA-CNN monitor over a fresh grid.
func NewSEA(gridSize int, workspace geom.Rect) *SEA {
	return &SEA{
		g:       grid.New(gridSize, workspace),
		infl:    grid.NewInfluence(gridSize * gridSize),
		queries: make(map[model.QueryID]*seaQuery),
	}
}

// NewUnitSEA creates a SEA-CNN monitor over the unit square.
func NewUnitSEA(gridSize int) *SEA {
	return NewSEA(gridSize, geom.Rect{Lo: geom.Point{X: 0, Y: 0}, Hi: geom.Point{X: 1, Y: 1}})
}

// Name implements model.Monitor.
func (s *SEA) Name() string { return "SEA-CNN" }

// Grid exposes the underlying index for tests and the harness.
func (s *SEA) Grid() *grid.Grid { return s.g }

// Bootstrap implements model.Monitor.
func (s *SEA) Bootstrap(objs map[model.ObjectID]geom.Point) {
	if s.g.Count() > 0 {
		panic("baseline: Bootstrap on a non-empty SEA monitor")
	}
	for id, p := range objs {
		if err := s.g.Insert(id, p); err != nil {
			panic(fmt.Sprintf("baseline: bootstrap insert of object %d: %v", id, err))
		}
	}
}

// RegisterQuery implements model.Monitor.
func (s *SEA) RegisterQuery(id model.QueryID, q geom.Point, k int) error {
	if k <= 0 {
		return fmt.Errorf("baseline: non-positive k %d", k)
	}
	if _, exists := s.queries[id]; exists {
		return fmt.Errorf("baseline: query %d already installed", id)
	}
	qu := &seaQuery{id: id, point: q, k: k}
	s.stats.FullSearches++
	qu.result = twoStepSearch(s.g, q, k)
	qu.bestDist = kthDist(qu.result, k)
	s.queries[id] = qu
	s.rebuildRegion(qu)
	return nil
}

// RemoveQuery implements model.Monitor.
func (s *SEA) RemoveQuery(id model.QueryID) {
	qu, ok := s.queries[id]
	if !ok {
		return
	}
	s.clearRegion(qu)
	delete(s.queries, id)
}

// ProcessBatch implements model.Monitor.
func (s *SEA) ProcessBatch(b model.Batch) {
	s.cycle++
	var ignored map[model.QueryID]bool
	if len(b.Queries) > 0 {
		ignored = make(map[model.QueryID]bool, len(b.Queries))
		for _, qu := range b.Queries {
			ignored[qu.ID] = true
		}
	}

	// The object stream is applied first and classified from the write log:
	// classification reads only the logged update and the query, never the
	// grid, so this is the same lossless log-then-scan split as CPM's. The
	// log holds only updates touching a book-kept cell; any other one would
	// meet empty lists. Classification runs for every query — including
	// those with their own updates this cycle: a moving query needs its NNs'
	// drift (d_max) to size the case-iii circle correctly when objects move
	// in the same cycle. Only the resolution step is skipped for them.
	var invalid int64
	s.log, invalid = s.g.ApplyWatched(b.Objects, s.log[:0], s.infl.Occupied())
	s.invalid += invalid
	for _, a := range s.log {
		if a.Old != grid.NoCell {
			for _, h := range s.infl.List(a.Old) {
				if qu := s.queries[model.QueryID(h)]; qu != nil {
					s.classifyOld(qu, a)
				}
			}
		}
		if a.New != grid.NoCell {
			// Also when New == Old: an in-cell move can still take an outer
			// object inside the answer region.
			for _, h := range s.infl.List(a.New) {
				if qu := s.queries[model.QueryID(h)]; qu != nil {
					s.classifyNew(qu, a)
				}
			}
		}
	}

	for _, qu := range s.dirty {
		if ignored != nil && ignored[qu.id] {
			continue // re-evaluated by its own query update below
		}
		s.resolve(qu)
	}
	s.dirty = s.dirty[:0]

	for _, quq := range b.Queries {
		switch quq.Kind {
		case model.QueryTerminate:
			if _, ok := s.queries[quq.ID]; !ok {
				s.invalid++
				continue
			}
			s.RemoveQuery(quq.ID)
		case model.QueryMove:
			qu, ok := s.queries[quq.ID]
			if !ok || len(quq.NewPoints) != 1 {
				s.invalid++
				continue
			}
			s.moveQuery(qu, quq.NewPoints[0])
		case model.QueryInstall:
			// Installs happen through RegisterQuery.
		default:
			s.invalid++
		}
	}
}

func (s *SEA) touch(qu *seaQuery) {
	if qu.cycleMark == s.cycle {
		return
	}
	qu.cycleMark = s.cycle
	qu.caseI = false
	qu.dmax = 0
	qu.nnDeleted = false
	s.dirty = append(s.dirty, qu)
}

// classifyOld inspects an update leaving (or deleting from) a book-kept
// cell of qu and accumulates the update-handling case.
func (s *SEA) classifyOld(qu *seaQuery, a grid.Applied) {
	idx := resultIndex(qu.result, a.ID)
	if idx < 0 {
		// A non-NN moving out of (or dying inside) the answer region
		// cannot change the k best.
		return
	}
	s.touch(qu)
	if a.Kind == model.Delete {
		qu.nnDeleted = true
		return
	}
	d := geom.Dist(a.Pos, qu.point)
	if d > qu.bestDist {
		if d > qu.dmax {
			qu.dmax = d // case ii: outgoing NN
		}
	} else {
		qu.caseI = true // NN moved within the answer region
	}
}

// classifyNew inspects an update entering a book-kept cell of qu.
func (s *SEA) classifyNew(qu *seaQuery, a grid.Applied) {
	if resultIndex(qu.result, a.ID) >= 0 {
		return // handled by classifyOld
	}
	if geom.Dist(a.Pos, qu.point) <= qu.bestDist {
		s.touch(qu)
		qu.caseI = true // outer object entered the answer region
	}
}

// resolve re-evaluates an affected query with the case-appropriate radius
// and refreshes the answer-region book-keeping.
func (s *SEA) resolve(qu *seaQuery) {
	switch {
	case qu.nnDeleted:
		s.stats.FullSearches++
		qu.result = twoStepSearch(s.g, qu.point, qu.k)
	case qu.dmax > 0:
		s.stats.Recomputations++
		qu.result = circleSearch(s.g, qu.point, qu.dmax, qu.point, qu.k)
	case qu.caseI:
		s.stats.Recomputations++
		qu.result = circleSearch(s.g, qu.point, qu.bestDist, qu.point, qu.k)
	default:
		return
	}
	qu.bestDist = kthDist(qu.result, qu.k)
	s.rebuildRegion(qu)
}

// moveQuery is case iii: search the disk of radius best_dist + dist(q,q')
// around the new location. When objects also moved this cycle the radius
// must additionally absorb the NNs' drift (d_max) — the previous NNs are
// the only guarantee that k objects lie inside the disk, and they may have
// strayed beyond best_dist before the query's own move is processed.
func (s *SEA) moveQuery(qu *seaQuery, to geom.Point) {
	r := qu.bestDist
	nnDeleted := false
	if qu.cycleMark == s.cycle {
		nnDeleted = qu.nnDeleted
		if qu.dmax > r {
			r = qu.dmax
		}
	}
	if nnDeleted || math.IsInf(r, 1) {
		// No usable bound: an NN disappeared, or there never was a full
		// result. Start over at the new location.
		qu.point = to
		s.stats.FullSearches++
		qu.result = twoStepSearch(s.g, to, qu.k)
	} else {
		r += geom.Dist(qu.point, to)
		qu.point = to
		s.stats.Recomputations++
		qu.result = circleSearch(s.g, to, r, to, qu.k)
	}
	qu.bestDist = kthDist(qu.result, qu.k)
	s.rebuildRegion(qu)
}

// rebuildRegion re-derives the cells intersecting the answer region and
// installs the book-keeping entries. The region was just cleared and
// CellsInCircle names each cell once, so no entry can be a duplicate.
func (s *SEA) rebuildRegion(qu *seaQuery) {
	s.clearRegion(qu)
	s.g.CellsInCircle(qu.point, qu.bestDist, func(c grid.CellIndex) {
		s.infl.AddUnchecked(c, grid.Handle(uint32(qu.id)))
		qu.region = append(qu.region, c)
	})
}

func (s *SEA) clearRegion(qu *seaQuery) {
	for _, c := range qu.region {
		s.infl.Remove(c, grid.Handle(uint32(qu.id)))
	}
	qu.region = qu.region[:0]
}

// Result implements model.Monitor.
func (s *SEA) Result(id model.QueryID) []model.Neighbor {
	qu, ok := s.queries[id]
	if !ok {
		return nil
	}
	out := make([]model.Neighbor, len(qu.result))
	copy(out, qu.result)
	return out
}

// Stats implements model.Monitor.
func (s *SEA) Stats() model.Stats {
	st := s.stats
	st.CellAccesses = s.g.CellAccesses()
	return st
}

// InvalidUpdates returns the count of dropped inconsistent updates.
func (s *SEA) InvalidUpdates() int64 { return s.invalid }

// MemoryFootprint returns the monitor's size in the abstract units of
// Section 4.1: the grid term (3·N), one unit per answer-region cell entry
// and 3 + 2·k per query.
func (s *SEA) MemoryFootprint() int64 {
	units := s.g.MemoryFootprint() + s.infl.Entries()
	for _, qu := range s.queries {
		units += int64(3 + 2*qu.k)
	}
	return units
}

var _ model.Monitor = (*SEA)(nil)
