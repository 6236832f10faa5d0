package network

import (
	"fmt"
	"math/rand"

	"cpm/internal/geom"
)

// MaxNodes caps a generated city's node count (Width×Height).
const MaxNodes = 4096

// GenOptions configure the synthetic city generator.
type GenOptions struct {
	// Width and Height give the lattice dimensions in intersections. The
	// generated city has Width×Height nodes in the unit square, at most
	// MaxNodes: a workload's route table holds one NodeID per pair of
	// nodes, 64 MB at the cap. Default 32×32.
	Width, Height int
	// Jitter displaces each intersection from its lattice position by up
	// to ±Jitter/2 lattice cells per axis, breaking the regular look.
	// 0 ≤ Jitter < 1; default 0.6.
	Jitter float64
	// ExtraStreets is the fraction of non-tree lattice edges kept in
	// addition to the random spanning tree that guarantees connectivity
	// (0 = tree city, 1 = full lattice). Default 0.6.
	ExtraStreets float64
	// Seed drives all randomness; the same options yield the same city.
	Seed int64
}

func (o *GenOptions) defaults() {
	if o.Width == 0 {
		o.Width = 32
	}
	if o.Height == 0 {
		o.Height = 32
	}
	if o.Jitter == 0 {
		o.Jitter = 0.6
	}
	if o.ExtraStreets == 0 {
		o.ExtraStreets = 0.6
	}
}

// Generate synthesizes a connected road network per the options. See the
// package comment for why this substitutes for the Oldenburg map.
func Generate(opts GenOptions) (*Graph, error) {
	opts.defaults()
	if opts.Width < 2 || opts.Height < 2 {
		return nil, fmt.Errorf("network: lattice %dx%d too small", opts.Width, opts.Height)
	}
	// With the other side at least 2, no side of a city within the cap
	// exceeds MaxNodes/2; checking the sides first keeps the product from
	// overflowing.
	if opts.Width > MaxNodes/2 || opts.Height > MaxNodes/2 || opts.Width*opts.Height > MaxNodes {
		return nil, fmt.Errorf("network: lattice %dx%d exceeds %d nodes", opts.Width, opts.Height, MaxNodes)
	}
	if opts.Jitter < 0 || opts.Jitter >= 1 {
		return nil, fmt.Errorf("network: jitter %v outside [0,1)", opts.Jitter)
	}
	if opts.ExtraStreets < 0 || opts.ExtraStreets > 1 {
		return nil, fmt.Errorf("network: extra streets %v outside [0,1]", opts.ExtraStreets)
	}
	rng := rand.New(rand.NewSource(opts.Seed))
	w, h := opts.Width, opts.Height
	g := NewGraph(w * h)

	// Jittered lattice nodes, kept inside the unit square with a half-cell
	// margin so trajectories stay in the workspace.
	dx, dy := 1.0/float64(w), 1.0/float64(h)
	for row := 0; row < h; row++ {
		for col := 0; col < w; col++ {
			jx := (rng.Float64() - 0.5) * opts.Jitter * dx
			jy := (rng.Float64() - 0.5) * opts.Jitter * dy
			g.AddNode(geom.Point{
				X: (float64(col)+0.5)*dx + jx,
				Y: (float64(row)+0.5)*dy + jy,
			})
		}
	}

	node := func(col, row int) NodeID { return NodeID(row*w + col) }

	// Candidate streets: the lattice's horizontal and vertical segments.
	type street struct{ a, b NodeID }
	var candidates []street
	for row := 0; row < h; row++ {
		for col := 0; col < w; col++ {
			if col+1 < w {
				candidates = append(candidates, street{node(col, row), node(col+1, row)})
			}
			if row+1 < h {
				candidates = append(candidates, street{node(col, row), node(col, row+1)})
			}
		}
	}
	rng.Shuffle(len(candidates), func(i, j int) {
		candidates[i], candidates[j] = candidates[j], candidates[i]
	})

	// Random spanning tree first (Kruskal over the shuffled streets with a
	// union-find), then a fraction of the remaining streets.
	uf := newUnionFind(w * h)
	var extras []street
	for _, s := range candidates {
		if uf.union(int(s.a), int(s.b)) {
			if err := g.AddEdge(s.a, s.b); err != nil {
				return nil, err
			}
		} else {
			extras = append(extras, s)
		}
	}
	keep := int(opts.ExtraStreets * float64(len(extras)))
	for _, s := range extras[:keep] {
		if err := g.AddEdge(s.a, s.b); err != nil {
			return nil, err
		}
	}
	return g, nil
}

// unionFind is a standard disjoint-set with path halving and union by size.
type unionFind struct {
	parent []int
	size   []int
}

func newUnionFind(n int) *unionFind {
	uf := &unionFind{parent: make([]int, n), size: make([]int, n)}
	for i := range uf.parent {
		uf.parent[i] = i
		uf.size[i] = 1
	}
	return uf
}

func (u *unionFind) find(x int) int {
	for u.parent[x] != x {
		u.parent[x] = u.parent[u.parent[x]]
		x = u.parent[x]
	}
	return x
}

// union merges the sets of a and b, reporting whether they were distinct.
func (u *unionFind) union(a, b int) bool {
	ra, rb := u.find(a), u.find(b)
	if ra == rb {
		return false
	}
	if u.size[ra] < u.size[rb] {
		ra, rb = rb, ra
	}
	u.parent[rb] = ra
	u.size[ra] += u.size[rb]
	return true
}
