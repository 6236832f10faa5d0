package core

import (
	"errors"
	"fmt"

	"cpm/internal/geom"
)

// Def is the definition of a continuous query. A conventional k-NN query
// has a single point; an aggregate query (Section 5) has m points and an
// aggregate function; a constrained query (Figure 5.3) additionally limits
// results to a region of the data space. All combinations are legal: a
// constrained aggregate query works.
type Def struct {
	// Points holds the query point(s). Exactly one for conventional NN.
	Points []geom.Point
	// K is the number of neighbors to monitor.
	K int
	// Agg is the aggregate function; ignored when len(Points) == 1 (every
	// aggregate of a single distance is that distance).
	Agg geom.Agg
	// Constraint, when non-nil, restricts results to objects inside the
	// region.
	Constraint *geom.Rect
}

// PointQuery builds the definition of a conventional k-NN query.
func PointQuery(q geom.Point, k int) Def {
	return Def{Points: []geom.Point{q}, K: k}
}

// AggQuery builds the definition of an aggregate k-NN query.
func AggQuery(points []geom.Point, k int, agg geom.Agg) Def {
	return Def{Points: points, K: k, Agg: agg}
}

// Validate reports whether the definition is usable.
func (d Def) Validate() error {
	if len(d.Points) == 0 {
		return errors.New("core: query has no points")
	}
	if d.K <= 0 {
		return fmt.Errorf("core: non-positive k %d", d.K)
	}
	if !d.Agg.Valid() {
		return fmt.Errorf("core: invalid aggregate %d", d.Agg)
	}
	for _, p := range d.Points {
		if !p.Finite() {
			return fmt.Errorf("core: non-finite query point %v", p)
		}
	}
	if c := d.Constraint; c != nil && (c.Width() < 0 || c.Height() < 0) {
		return fmt.Errorf("core: inverted constraint region %v", *c)
	}
	return nil
}

// single reports whether this is a conventional single-point query, the
// fast path for distance evaluation.
func (d *Def) single() bool { return len(d.Points) == 1 }

// dist returns the (aggregate) distance of an object at p from the query.
// Constraint filtering is separate (see admits): distance remains defined
// for every point.
func (d *Def) dist(p geom.Point) float64 {
	if d.single() {
		return geom.Dist(p, d.Points[0])
	}
	return geom.AggDist(d.Agg, p, d.Points)
}

// minDist returns the (aggregate) mindist lower bound for rectangle r: for
// every object p in r, d.dist(p) >= d.minDist(r).
func (d *Def) minDist(r geom.Rect) float64 {
	if d.single() {
		return r.MinDist(d.Points[0])
	}
	return geom.AggMinDist(d.Agg, r, d.Points)
}

// admits reports whether an object at p is eligible for the result
// (constraint region check).
func (d *Def) admits(p geom.Point) bool {
	return d.Constraint == nil || d.Constraint.Contains(p)
}

// prunesRect reports whether rectangle r can be skipped entirely because it
// cannot contain an admissible object.
func (d *Def) prunesRect(r geom.Rect) bool {
	return d.Constraint != nil && !d.Constraint.Intersects(r)
}
