package geom

import (
	"math"
	"testing"
	"testing/quick"
)

func almostEq(a, b float64) bool {
	return math.Abs(a-b) <= 1e-12*(1+math.Abs(a)+math.Abs(b))
}

func TestDist(t *testing.T) {
	cases := []struct {
		p, q Point
		want float64
	}{
		{Point{0, 0}, Point{0, 0}, 0},
		{Point{0, 0}, Point{3, 4}, 5},
		{Point{1, 1}, Point{1, 2}, 1},
		{Point{-1, -1}, Point{2, 3}, 5},
		{Point{0.5, 0.5}, Point{0.5, 0.5}, 0},
	}
	for _, c := range cases {
		if got := Dist(c.p, c.q); !almostEq(got, c.want) {
			t.Errorf("Dist(%v,%v) = %v, want %v", c.p, c.q, got, c.want)
		}
		if got := Dist(c.q, c.p); !almostEq(got, c.want) {
			t.Errorf("Dist(%v,%v) = %v, want %v (symmetry)", c.q, c.p, got, c.want)
		}
	}
}

func TestDistSqConsistent(t *testing.T) {
	f := func(px, py, qx, qy float64) bool {
		// Workspace-scale inputs: squared distances of astronomically large
		// coordinates overflow float64 and are out of scope for the library.
		p := Point{clamp01(px), clamp01(py)}
		q := Point{clamp01(qx), clamp01(qy)}
		d := Dist(p, q)
		return almostEq(d*d, DistSq(p, q))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestDistTriangleInequality(t *testing.T) {
	f := func(ax, ay, bx, by, cx, cy float64) bool {
		// Constrain inputs to the workspace scale to avoid overflow noise.
		a := Point{clamp01(ax), clamp01(ay)}
		b := Point{clamp01(bx), clamp01(by)}
		c := Point{clamp01(cx), clamp01(cy)}
		return Dist(a, c) <= Dist(a, b)+Dist(b, c)+1e-12
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func clamp01(v float64) float64 {
	v = math.Mod(math.Abs(v), 1)
	if math.IsNaN(v) {
		return 0
	}
	return v
}

func TestLerp(t *testing.T) {
	p, q := Point{0, 0}, Point{2, 4}
	if got := Lerp(p, q, 0); got != p {
		t.Errorf("Lerp t=0 = %v, want %v", got, p)
	}
	if got := Lerp(p, q, 1); got != q {
		t.Errorf("Lerp t=1 = %v, want %v", got, q)
	}
	if got := Lerp(p, q, 0.5); !almostEq(got.X, 1) || !almostEq(got.Y, 2) {
		t.Errorf("Lerp t=0.5 = %v, want {1 2}", got)
	}
}

func TestMBR(t *testing.T) {
	pts := []Point{{0.5, 0.2}, {0.1, 0.9}, {0.7, 0.4}}
	r := MBR(pts)
	want := Rect{Lo: Point{0.1, 0.2}, Hi: Point{0.7, 0.9}}
	if r != want {
		t.Errorf("MBR = %v, want %v", r, want)
	}
	for _, p := range pts {
		if !r.Contains(p) {
			t.Errorf("MBR %v does not contain %v", r, p)
		}
	}
}

func TestMBRSinglePoint(t *testing.T) {
	p := Point{0.3, 0.3}
	r := MBR([]Point{p})
	if r.Lo != p || r.Hi != p {
		t.Errorf("MBR of single point = %v, want degenerate rect at %v", r, p)
	}
}

func TestMBREmptyPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("MBR(nil) did not panic")
		}
	}()
	MBR(nil)
}

func TestPointFinite(t *testing.T) {
	nan, inf := math.NaN(), math.Inf(1)
	for _, p := range []Point{{X: nan, Y: 0}, {X: 0, Y: nan}, {X: inf, Y: 0}, {X: 0, Y: -inf}} {
		if p.Finite() {
			t.Errorf("%v reported finite", p)
		}
	}
	for _, p := range []Point{{}, {X: -3, Y: 1e300}, {X: math.MaxFloat64, Y: -math.SmallestNonzeroFloat64}} {
		if !p.Finite() {
			t.Errorf("%v reported not finite", p)
		}
	}
}
