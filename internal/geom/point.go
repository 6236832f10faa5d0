// Package geom provides the small geometry kernel shared by every module of
// the CPM reproduction: points, axis-aligned rectangles, Euclidean and
// minimum distances, minimum bounding rectangles, and the aggregate distance
// functions (sum, min, max) used by aggregate nearest neighbor queries
// (Mouratidis et al., SIGMOD 2005, Section 5).
//
// All coordinates are float64 and the canonical workspace is the unit square
// [0,1)×[0,1), matching the paper's analysis (Section 4.1). Nothing in the
// package assumes the unit square, however; the grid layer decides the
// workspace extents.
package geom

import "math"

// Point is a location in the two-dimensional workspace.
type Point struct {
	X, Y float64
}

// Finite reports whether both coordinates are finite numbers. It is the one
// validity rule for points arriving from outside: the grid drops object
// updates that fail it, the engine and the cluster coordinator refuse query
// points that fail it.
func (p Point) Finite() bool {
	return !math.IsNaN(p.X) && !math.IsNaN(p.Y) && !math.IsInf(p.X, 0) && !math.IsInf(p.Y, 0)
}

// Dist returns the Euclidean distance between p and q.
//
// CPM's level stepping (Lemma 3.1: mindist(DIR_{l+1}) = mindist(DIR_l) + δ)
// and all best_dist book-keeping are additive in true distance, so the
// library works with real distances rather than squared ones throughout.
func Dist(p, q Point) float64 {
	dx := p.X - q.X
	dy := p.Y - q.Y
	return math.Sqrt(dx*dx + dy*dy)
}

// DistSq returns the squared Euclidean distance between p and q. It is used
// where only comparisons are needed and the square root would be waste.
func DistSq(p, q Point) float64 {
	dx := p.X - q.X
	dy := p.Y - q.Y
	return dx*dx + dy*dy
}

// Lerp returns the point a fraction t of the way from p to q. It is the
// motion primitive of the workload generator (objects advance along road
// segments by linear interpolation).
func Lerp(p, q Point, t float64) Point {
	return Point{
		X: p.X + (q.X-p.X)*t,
		Y: p.Y + (q.Y-p.Y)*t,
	}
}

// MBR returns the minimum bounding rectangle of pts. It panics if pts is
// empty: an MBR of nothing is a programming error, not a recoverable state.
func MBR(pts []Point) Rect {
	if len(pts) == 0 {
		panic("geom: MBR of empty point set")
	}
	r := Rect{Lo: pts[0], Hi: pts[0]}
	for _, p := range pts[1:] {
		if p.X < r.Lo.X {
			r.Lo.X = p.X
		}
		if p.Y < r.Lo.Y {
			r.Lo.Y = p.Y
		}
		if p.X > r.Hi.X {
			r.Hi.X = p.X
		}
		if p.Y > r.Hi.Y {
			r.Hi.Y = p.Y
		}
	}
	return r
}
