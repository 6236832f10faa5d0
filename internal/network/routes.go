package network

import (
	"math"

	"cpm/internal/qheap"
)

// Routes is an all-pairs next-hop table over a Graph: Next(at, dst) is the
// neighbour of at on a shortest path to dst, so a shortest path is a walk
// through the table with no search. The workload generator routes every
// spawned object, hundreds of thousands a simulation, over one city; one
// table per workload replaces one path search per object.
//
// The table holds n² NodeIDs (4 MB for the 32×32 default city), which is
// why GenOptions caps the city's size.
type Routes struct {
	n    int
	next []NodeID // next[dst*n+at]
}

// NewRoutes builds the table with one Dijkstra per destination over the
// undirected graph: settling node u from dst makes u the next hop of every
// neighbour it improves.
func NewRoutes(g *Graph) *Routes {
	n := g.NumNodes()
	r := &Routes{n: n, next: make([]NodeID, n*n)}
	dist := make([]float64, n)
	h := qheap.New(n)
	for dst := 0; dst < n; dst++ {
		row := r.next[dst*n : (dst+1)*n]
		for i := range row {
			row[i] = -1
			dist[i] = math.Inf(1)
		}
		row[dst] = NodeID(dst)
		dist[dst] = 0
		h.Reset()
		h.Push(0, uint64(dst))
		for {
			top, ok := h.Pop()
			if !ok {
				break
			}
			u := NodeID(top.Payload)
			if top.Key > dist[u] {
				continue // stale heap entry
			}
			for _, e := range g.adj[u] {
				if nd := dist[u] + e.Length; nd < dist[e.To] {
					dist[e.To] = nd
					row[e.To] = u
					h.Push(nd, uint64(e.To))
				}
			}
		}
	}
	return r
}

// Next returns the node after at on a shortest path from at to dst: dst
// itself when at == dst, and -1 when dst is unreachable from at.
func (r *Routes) Next(at, dst NodeID) NodeID { return r.next[int(dst)*r.n+int(at)] }
