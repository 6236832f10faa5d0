// Package baseline implements the two exact competitors CPM is evaluated
// against in the paper:
//
//   - YPK-CNN (Yu, Pu, Koudas, ICDE 2005): periodic re-evaluation of every
//     query with a two-step grid search and a d_max-bounded refresh
//     (paper Section 2, Figure 2.1).
//   - SEA-CNN (Xiong, Mokbel, Aref, ICDE 2005): incremental maintenance
//     driven by answer-region book-keeping, with circular search regions
//     whose radius depends on the update case (paper Section 2, Figure 2.2).
//
// Both share the grid substrate of internal/grid and the (distance, id)
// result order of internal/model, so integration tests can assert that CPM
// and both baselines produce identical results on identical streams. Both
// support conventional single-point k-NN queries — the query type of the
// paper's experiments; neither extends to aggregate queries.
package baseline

import (
	"math"

	"cpm/internal/bruteforce"
	"cpm/internal/geom"
	"cpm/internal/grid"
	"cpm/internal/model"
)

// twoStepSearch is YPK-CNN's from-scratch NN computation (Figure 2.1a),
// which SEA-CNN borrows for first-time evaluation and for queries whose
// NNs disappear. Step one expands square rings of cells around c_q until k
// objects are found, yielding an upper bound d on the k-NN distance; step
// two scans the square SR of side 2·d+δ centered at c_q, which must contain
// the true k NNs.
func twoStepSearch(g *grid.Grid, q geom.Point, k int) []model.Neighbor {
	col, row := g.ColRow(q)
	sel := bruteforce.NewSelector(k)
	exhausted := true
	for ring := 0; ring < g.Size(); ring++ {
		g.RingCells(col, row, ring, func(c grid.CellIndex) {
			g.ScanObjects(c, func(id model.ObjectID, p geom.Point) {
				sel.Offer(id, geom.Dist(p, q))
			})
		})
		if sel.Full() {
			exhausted = false
			break
		}
	}
	if exhausted {
		// The whole grid was scanned; fewer than k objects exist and the
		// refinement step has nothing left to add.
		return sel.Sorted()
	}
	d := sel.KthDist()
	return rectSearch(g, q, squareAroundCell(g, col, row, 2*d+g.Delta()), k)
}

// squareAroundCell returns the square of the given side length centered at
// the center of cell (col, row) — YPK-CNN's search regions are anchored at
// c_q, not at q itself.
func squareAroundCell(g *grid.Grid, col, row int, side float64) geom.Rect {
	c := g.CellRect(col, row).Center()
	h := side / 2
	return geom.Rect{
		Lo: geom.Point{X: c.X - h, Y: c.Y - h},
		Hi: geom.Point{X: c.X + h, Y: c.Y + h},
	}
}

// rectSearch scans every cell intersecting sr and returns the k best
// neighbors of q among the objects found.
func rectSearch(g *grid.Grid, q geom.Point, sr geom.Rect, k int) []model.Neighbor {
	sel := bruteforce.NewSelector(k)
	g.CellsInRect(sr, func(c grid.CellIndex) {
		g.ScanObjects(c, func(id model.ObjectID, p geom.Point) {
			sel.Offer(id, geom.Dist(p, q))
		})
	})
	return sel.Sorted()
}

// circleSearch scans every cell intersecting the disk (center, r) and
// returns the k best neighbors of q among the objects found — SEA-CNN's
// search primitive.
func circleSearch(g *grid.Grid, center geom.Point, r float64, q geom.Point, k int) []model.Neighbor {
	sel := bruteforce.NewSelector(k)
	g.CellsInCircle(center, r, func(c grid.CellIndex) {
		g.ScanObjects(c, func(id model.ObjectID, p geom.Point) {
			sel.Offer(id, geom.Dist(p, q))
		})
	})
	return sel.Sorted()
}

// kthDist returns the distance of the kth neighbor of a result, or +Inf
// when the result holds fewer than k entries.
func kthDist(res []model.Neighbor, k int) float64 {
	if len(res) < k {
		return math.Inf(1)
	}
	return res[len(res)-1].Dist
}

// resultIndex returns the position of id in res, or -1.
func resultIndex(res []model.Neighbor, id model.ObjectID) int {
	for i := range res {
		if res[i].ID == id {
			return i
		}
	}
	return -1
}
