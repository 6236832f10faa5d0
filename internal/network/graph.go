// Package network provides the road-network substrate for the workload
// generator. The paper's evaluation (Section 6) uses the spatiotemporal
// generator of Brinkhoff [B02] on the road map of Oldenburg; that map is
// not redistributable, so this package synthesizes a comparable city
// network: a jittered lattice of
// intersections connected by a random spanning tree plus a tunable fraction
// of extra streets, yielding an irregular but connected planar-ish graph in
// the unit square. Shortest paths, walked through an all-pairs next-hop
// table (Routes), give objects the piecewise linear, network-constrained
// trajectories that the monitoring algorithms observe through the update
// stream.
package network

import (
	"fmt"
	"math"

	"cpm/internal/geom"
)

// NodeID indexes a network node.
type NodeID int32

// Edge is a directed half-edge stored in a node's adjacency list.
type Edge struct {
	To     NodeID
	Length float64
}

// Graph is an undirected road network embedded in the unit square.
type Graph struct {
	nodes []geom.Point
	adj   [][]Edge
	edges int // undirected edge count
}

// NewGraph creates an empty graph with capacity hints.
func NewGraph(nodeHint int) *Graph {
	return &Graph{
		nodes: make([]geom.Point, 0, nodeHint),
		adj:   make([][]Edge, 0, nodeHint),
	}
}

// AddNode appends a node and returns its id.
func (g *Graph) AddNode(p geom.Point) NodeID {
	g.nodes = append(g.nodes, p)
	g.adj = append(g.adj, nil)
	return NodeID(len(g.nodes) - 1)
}

// AddEdge connects a and b bidirectionally with Euclidean length.
// Self-loops and out-of-range ids are rejected.
func (g *Graph) AddEdge(a, b NodeID) error {
	if a == b {
		return fmt.Errorf("network: self-loop on node %d", a)
	}
	if !g.valid(a) || !g.valid(b) {
		return fmt.Errorf("network: edge (%d,%d) out of range", a, b)
	}
	for _, e := range g.adj[a] {
		if e.To == b {
			return nil // already connected; idempotent
		}
	}
	length := geom.Dist(g.nodes[a], g.nodes[b])
	g.adj[a] = append(g.adj[a], Edge{To: b, Length: length})
	g.adj[b] = append(g.adj[b], Edge{To: a, Length: length})
	g.edges++
	return nil
}

func (g *Graph) valid(n NodeID) bool { return n >= 0 && int(n) < len(g.nodes) }

// NumNodes returns the node count.
func (g *Graph) NumNodes() int { return len(g.nodes) }

// NumEdges returns the undirected edge count.
func (g *Graph) NumEdges() int { return g.edges }

// Node returns the location of node n.
func (g *Graph) Node(n NodeID) geom.Point { return g.nodes[n] }

// Neighbors returns the adjacency list of n. Callers must not modify it.
func (g *Graph) Neighbors(n NodeID) []Edge { return g.adj[n] }

// Connected reports whether the graph is a single connected component.
func (g *Graph) Connected() bool {
	if len(g.nodes) == 0 {
		return true
	}
	seen := make([]bool, len(g.nodes))
	stack := []NodeID{0}
	seen[0] = true
	count := 1
	for len(stack) > 0 {
		n := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, e := range g.adj[n] {
			if !seen[e.To] {
				seen[e.To] = true
				count++
				stack = append(stack, e.To)
			}
		}
	}
	return count == len(g.nodes)
}

// TotalLength returns the summed length of all edges — the "road kilometers"
// of the synthetic city, useful for sanity checks on generated networks.
func (g *Graph) TotalLength() float64 {
	total := 0.0
	for n := range g.adj {
		for _, e := range g.adj[n] {
			total += e.Length
		}
	}
	return total / 2
}

// NearestNode returns the node closest to p (linear scan; used only during
// setup, never on the monitoring fast path).
func (g *Graph) NearestNode(p geom.Point) NodeID {
	best := NodeID(-1)
	bestD := math.Inf(1)
	for i, np := range g.nodes {
		if d := geom.DistSq(np, p); d < bestD {
			bestD = d
			best = NodeID(i)
		}
	}
	return best
}
