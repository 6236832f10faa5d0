package network

import (
	"math"
	"math/rand"
	"testing"

	"cpm/internal/geom"
)

func TestGraphBasics(t *testing.T) {
	g := NewGraph(4)
	a := g.AddNode(geom.Point{X: 0, Y: 0})
	b := g.AddNode(geom.Point{X: 1, Y: 0})
	c := g.AddNode(geom.Point{X: 1, Y: 1})
	if g.NumNodes() != 3 {
		t.Fatalf("NumNodes = %d", g.NumNodes())
	}
	if err := g.AddEdge(a, b); err != nil {
		t.Fatal(err)
	}
	if err := g.AddEdge(b, c); err != nil {
		t.Fatal(err)
	}
	if err := g.AddEdge(a, b); err != nil { // idempotent
		t.Fatal(err)
	}
	if g.NumEdges() != 2 {
		t.Fatalf("NumEdges = %d, want 2", g.NumEdges())
	}
	if err := g.AddEdge(a, a); err == nil {
		t.Error("self-loop accepted")
	}
	if err := g.AddEdge(a, 99); err == nil {
		t.Error("out-of-range edge accepted")
	}
	if !g.Connected() {
		t.Error("triangle path reported disconnected")
	}
	if math.Abs(g.TotalLength()-2) > 1e-12 {
		t.Errorf("TotalLength = %v, want 2", g.TotalLength())
	}
	if got := g.NearestNode(geom.Point{X: 0.9, Y: 0.9}); got != c {
		t.Errorf("NearestNode = %d, want %d", got, c)
	}
	if len(g.Neighbors(b)) != 2 {
		t.Errorf("Neighbors(b) = %v", g.Neighbors(b))
	}
}

func TestConnectedDetectsSplit(t *testing.T) {
	g := NewGraph(4)
	a := g.AddNode(geom.Point{X: 0, Y: 0})
	b := g.AddNode(geom.Point{X: 1, Y: 0})
	g.AddNode(geom.Point{X: 0.5, Y: 1}) // isolated
	if err := g.AddEdge(a, b); err != nil {
		t.Fatal(err)
	}
	if g.Connected() {
		t.Error("disconnected graph reported connected")
	}
	empty := NewGraph(0)
	if !empty.Connected() {
		t.Error("empty graph should be trivially connected")
	}
}

// floydWarshall is the independent oracle for the route table.
func floydWarshall(g *Graph) [][]float64 {
	n := g.NumNodes()
	d := make([][]float64, n)
	for i := range d {
		d[i] = make([]float64, n)
		for j := range d[i] {
			if i != j {
				d[i][j] = math.Inf(1)
			}
		}
	}
	for i := 0; i < n; i++ {
		for _, e := range g.Neighbors(NodeID(i)) {
			d[i][e.To] = e.Length
		}
	}
	for k := 0; k < n; k++ {
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				if nd := d[i][k] + d[k][j]; nd < d[i][j] {
					d[i][j] = nd
				}
			}
		}
	}
	return d
}

func TestDijkstraMatchesFloydWarshall(t *testing.T) {
	for seed := int64(0); seed < 10; seed++ {
		rng := rand.New(rand.NewSource(seed))
		g := NewGraph(20)
		n := 8 + rng.Intn(12)
		for i := 0; i < n; i++ {
			g.AddNode(geom.Point{X: rng.Float64(), Y: rng.Float64()})
		}
		// Random edges; possibly disconnected — both outcomes tested.
		for i := 0; i < 2*n; i++ {
			a := NodeID(rng.Intn(n))
			b := NodeID(rng.Intn(n))
			if a != b {
				if err := g.AddEdge(a, b); err != nil {
					t.Fatal(err)
				}
			}
		}
		want := floydWarshall(g)
		r := NewRoutes(g)
		for src := 0; src < n; src++ {
			for dst := 0; dst < n; dst++ {
				if math.IsInf(want[src][dst], 1) {
					if next := r.Next(NodeID(src), NodeID(dst)); next != -1 {
						t.Fatalf("seed %d: unreachable (%d→%d) has next hop %d", seed, src, dst, next)
					}
					continue
				}
				if length := walk(t, g, r, NodeID(src), NodeID(dst)); math.Abs(length-want[src][dst]) > 1e-9 {
					t.Fatalf("seed %d: (%d→%d) length %v, want %v", seed, src, dst, length, want[src][dst])
				}
			}
		}
	}
}

// walk follows the table from src to dst, checks that every hop is an edge
// and returns the summed edge length.
func walk(t *testing.T, g *Graph, r *Routes, src, dst NodeID) float64 {
	t.Helper()
	total := 0.0
	for at, hops := src, 0; at != dst; hops++ {
		if hops == g.NumNodes() {
			t.Fatalf("walk %d→%d does not arrive in %d hops", src, dst, hops)
		}
		next := r.Next(at, dst)
		found := false
		for _, e := range g.Neighbors(at) {
			if e.To == next {
				total += e.Length
				found = true
				break
			}
		}
		if !found {
			t.Fatalf("walk %d→%d: hop %d→%d is not an edge", src, dst, at, next)
		}
		at = next
	}
	return total
}

func TestRoutesTrivial(t *testing.T) {
	g := NewGraph(2)
	a := g.AddNode(geom.Point{X: 0, Y: 0})
	b := g.AddNode(geom.Point{X: 1, Y: 1})
	r := NewRoutes(g)
	if next := r.Next(a, a); next != a {
		t.Fatalf("Next(a, a) = %d, want %d", next, a)
	}
	if next := r.Next(a, b); next != -1 {
		t.Errorf("Next to an isolated node = %d, want -1", next)
	}
}

func TestGenerateConnectivityAndBounds(t *testing.T) {
	for _, opts := range []GenOptions{
		{Seed: 1},
		{Width: 8, Height: 8, Seed: 2},
		{Width: 16, Height: 4, Jitter: 0.9, ExtraStreets: 0.1, Seed: 3},
		{Width: 3, Height: 40, ExtraStreets: 1.0, Seed: 4},
	} {
		g, err := Generate(opts)
		if err != nil {
			t.Fatalf("%+v: %v", opts, err)
		}
		if !g.Connected() {
			t.Fatalf("%+v: generated city disconnected", opts)
		}
		unit := geom.Rect{Lo: geom.Point{X: 0, Y: 0}, Hi: geom.Point{X: 1, Y: 1}}
		for i := 0; i < g.NumNodes(); i++ {
			if p := g.Node(NodeID(i)); !unit.Contains(p) {
				t.Fatalf("%+v: node %d at %v outside unit square", opts, i, p)
			}
		}
		// Tree edges = nodes-1; extras on top.
		minEdges := g.NumNodes() - 1
		if g.NumEdges() < minEdges {
			t.Fatalf("%+v: %d edges < spanning tree %d", opts, g.NumEdges(), minEdges)
		}
	}
}

func TestGenerateDeterministic(t *testing.T) {
	a, err := Generate(GenOptions{Width: 10, Height: 10, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Generate(GenOptions{Width: 10, Height: 10, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	if a.NumNodes() != b.NumNodes() || a.NumEdges() != b.NumEdges() {
		t.Fatal("same seed produced different cities")
	}
	for i := 0; i < a.NumNodes(); i++ {
		if a.Node(NodeID(i)) != b.Node(NodeID(i)) {
			t.Fatal("same seed produced different node positions")
		}
	}
	c, err := Generate(GenOptions{Width: 10, Height: 10, Seed: 43})
	if err != nil {
		t.Fatal(err)
	}
	same := true
	for i := 0; i < a.NumNodes(); i++ {
		if a.Node(NodeID(i)) != c.Node(NodeID(i)) {
			same = false
			break
		}
	}
	if same {
		t.Error("different seeds produced identical cities")
	}
}

func TestGenerateRejectsBadOptions(t *testing.T) {
	for name, opts := range map[string]GenOptions{
		"tiny":       {Width: 1, Height: 5},
		"bad jitter": {Width: 4, Height: 4, Jitter: 1.5},
		"bad extras": {Width: 4, Height: 4, ExtraStreets: 2},
		"too large":  {Width: 65, Height: 64},
		"overflow":   {Width: 1 << 32, Height: 1 << 32},
	} {
		if _, err := Generate(opts); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

func TestRoutesOnGeneratedCity(t *testing.T) {
	g, err := Generate(GenOptions{Width: 12, Height: 12, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	r := NewRoutes(g)
	want := floydWarshall(g)
	rng := rand.New(rand.NewSource(9))
	for i := 0; i < 200; i++ {
		src := NodeID(rng.Intn(g.NumNodes()))
		dst := NodeID(rng.Intn(g.NumNodes()))
		length := walk(t, g, r, src, dst)
		if math.Abs(length-want[src][dst]) > 1e-9 {
			t.Fatalf("(%d→%d) length %v, want %v", src, dst, length, want[src][dst])
		}
		// Shortest path length is at least the straight-line distance.
		if length < geom.Dist(g.Node(src), g.Node(dst))-1e-9 {
			t.Fatalf("path shorter than Euclidean distance")
		}
	}
}
