// Package analysis implements the cost and space model of the paper's
// Section 4.1: closed-form estimates — under uniformly distributed objects
// and queries in the unit square — for the radius best_dist, the cell and
// object counts of a query's influence region, the visit-list/search-heap
// size, the total memory of CPM, and the per-cycle running time. The
// benchmark harness compares these predictions against measurements on
// uniform data (internal/bench's "model" experiment).
package analysis

import (
	"fmt"
	"math"
)

// Model captures the problem parameters of Table 6.1 plus the grid cell
// side δ.
type Model struct {
	N     int     // object population
	NumQ  int     // number of queries n
	K     int     // neighbors per query
	Delta float64 // cell side δ (= 1/grid size in the unit square)
	FObj  float64 // object agility f_obj
	FQry  float64 // query agility f_qry
}

// Validate reports whether the model parameters are usable.
func (m Model) Validate() error {
	if m.N <= 0 || m.NumQ < 0 || m.K <= 0 {
		return fmt.Errorf("analysis: bad population/query/k (%d, %d, %d)", m.N, m.NumQ, m.K)
	}
	if m.Delta <= 0 || m.Delta > 1 {
		return fmt.Errorf("analysis: δ %v outside (0,1]", m.Delta)
	}
	if m.FObj < 0 || m.FObj > 1 || m.FQry < 0 || m.FQry > 1 {
		return fmt.Errorf("analysis: agility outside [0,1]")
	}
	return nil
}

// BestDist estimates the k-NN distance for uniform data: the circle Θ_q of
// radius best_dist holds k of the N objects of the unit square, so
// best_dist = sqrt(k / (π·N)).
func (m Model) BestDist() float64 {
	return math.Sqrt(float64(m.K) / (math.Pi * float64(m.N)))
}

// CInf estimates the number of cells in the influence region:
// C_inf = π·⌈best_dist/δ⌉².
func (m Model) CInf() float64 {
	r := math.Ceil(m.BestDist() / m.Delta)
	return math.Pi * r * r
}

// OInf estimates the number of objects in the influence region:
// O_inf = C_inf · N · δ² (each cell holds N·δ² objects on average).
func (m Model) OInf() float64 {
	return m.CInf() * float64(m.N) * m.Delta * m.Delta
}

// CSH estimates the combined size of the visit list and the search heap:
// the cells intersecting the circumscribed square of Θ_q,
// C_SH = 4·⌈best_dist/δ⌉².
func (m Model) CSH() float64 {
	r := math.Ceil(m.BestDist() / m.Delta)
	return 4 * r * r
}

// SpaceGrid estimates the grid index size in abstract memory units:
// 3·N for the objects plus one influence entry per query per influence
// cell: Space_G = 3·N + n·C_inf.
func (m Model) SpaceGrid() float64 {
	return 3*float64(m.N) + float64(m.NumQ)*m.CInf()
}

// SpaceQueryTable estimates the query table size:
// Space_QT = n·(15 + 2·k + 3·C_SH) — 3 units for the query point and id,
// 2·k for the result, 3 per visit/heap entry plus the four boundary boxes
// (3·(C_SH+4) = 3·C_SH + 12).
func (m Model) SpaceQueryTable() float64 {
	return float64(m.NumQ) * (15 + 2*float64(m.K) + 3*m.CSH())
}

// SpaceTotal is Space_G + Space_QT — the paper's Space_CPM.
func (m Model) SpaceTotal() float64 {
	return m.SpaceGrid() + m.SpaceQueryTable()
}

// TimeIndex estimates index-update work per cycle: 2·N·f_obj expected
// constant-time hash operations.
func (m Model) TimeIndex() float64 {
	return 2 * float64(m.N) * m.FObj
}

// TimeMovingQuery estimates the cost of one NN computation from scratch:
// C_SH·log C_SH (heap traffic) + O_inf·log k (result maintenance) +
// 2·C_inf (influence-list updates).
func (m Model) TimeMovingQuery() float64 {
	csh := m.CSH()
	logCsh := 0.0
	if csh > 1 {
		logCsh = math.Log2(csh)
	}
	return csh*logCsh + m.OInf()*log2k(m.K) + 2*m.CInf()
}

// TimeStaticQuery estimates per-cycle result maintenance for a static
// query: k·log k (re-ordering plus incomer insertion).
func (m Model) TimeStaticQuery() float64 {
	return float64(m.K) * log2k(m.K)
}

// TimeTotal is the paper's Time_CPM per processing cycle:
// 2·N·f_obj + n·f_qry·T_mq + n·(1−f_qry)·T_sq.
func (m Model) TimeTotal() float64 {
	n := float64(m.NumQ)
	return m.TimeIndex() + n*m.FQry*m.TimeMovingQuery() + n*(1-m.FQry)*m.TimeStaticQuery()
}

func log2k(k int) float64 {
	if k <= 1 {
		return 1 // a single comparison still happens
	}
	return math.Log2(float64(k))
}
