// Package generator reproduces the workload of the paper's evaluation
// (Section 6): objects and queries moving on a road network, in the style
// of Brinkhoff's spatiotemporal generator [B02].
//
// An object appears on a network node, follows the shortest path to a
// random destination and disappears on arrival, upon which a replacement
// object spawns — keeping the population at N. Queries move the same way
// but stay in the system for the whole simulation, picking a fresh
// destination whenever they arrive. Per timestamp, a fraction f_obj of the
// objects and f_qry of the queries issue location updates (the paper's
// object/query agility); the distance covered per timestamp is the paper's
// speed classes: slow = 1/250 of the summed workspace extents, medium 5×,
// fast 25× that.
//
// Everything is driven by one seeded RNG over slice-ordered state, so a
// workload is a pure function of (network, Params): two monitors fed the
// same workload observe byte-identical update streams — the property the
// cross-method integration tests and the benchmark harness rely on.
package generator

import (
	"fmt"
	"math/rand"

	"cpm/internal/geom"
	"cpm/internal/model"
	"cpm/internal/network"
)

// Speed is one of the paper's three speed classes.
type Speed uint8

// The speed classes of Table 6.1.
const (
	Slow Speed = iota
	Medium
	Fast
)

// String returns the paper's name for the class.
func (s Speed) String() string {
	switch s {
	case Slow:
		return "slow"
	case Medium:
		return "medium"
	case Fast:
		return "fast"
	default:
		return fmt.Sprintf("speed(%d)", uint8(s))
	}
}

// PerTimestamp returns the distance an object of this class covers per
// timestamp in the unit-square workspace. Slow covers 1/250 of the summed
// workspace extents (2.0 for the unit square); medium and fast are 5× and
// 25× that (Section 6).
func (s Speed) PerTimestamp() float64 {
	base := 2.0 / 250.0
	switch s {
	case Slow:
		return base
	case Medium:
		return 5 * base
	case Fast:
		return 25 * base
	default:
		return base
	}
}

// Params configure a workload. The zero value is not usable; see Defaults.
type Params struct {
	N             int     // object population (kept constant under churn)
	NumQueries    int     // number of continuous queries
	ObjectSpeed   Speed   // speed class of objects
	QuerySpeed    Speed   // speed class of queries
	ObjectAgility float64 // f_obj: fraction of objects updating per timestamp
	QueryAgility  float64 // f_qry: fraction of queries updating per timestamp
	Seed          int64   // RNG seed
}

// Defaults returns the paper's default parameters (Table 6.1): N=100K
// objects, n=5K queries, medium speeds, f_obj=50%, f_qry=30%. Scale shrinks
// N and NumQueries proportionally (scale 1 = paper scale).
func Defaults(scale float64) Params {
	if scale <= 0 {
		scale = 1
	}
	n := int(100_000 * scale)
	if n < 1 {
		n = 1
	}
	q := int(5_000 * scale)
	if q < 1 {
		q = 1
	}
	return Params{
		N:             n,
		NumQueries:    q,
		ObjectSpeed:   Medium,
		QuerySpeed:    Medium,
		ObjectAgility: 0.5,
		QueryAgility:  0.3,
		Seed:          1,
	}
}

// Validate reports whether the parameters are usable.
func (p Params) Validate() error {
	if p.N <= 0 {
		return fmt.Errorf("generator: non-positive N %d", p.N)
	}
	if p.NumQueries < 0 {
		return fmt.Errorf("generator: negative NumQueries %d", p.NumQueries)
	}
	if p.ObjectAgility < 0 || p.ObjectAgility > 1 {
		return fmt.Errorf("generator: object agility %v outside [0,1]", p.ObjectAgility)
	}
	if p.QueryAgility < 0 || p.QueryAgility > 1 {
		return fmt.Errorf("generator: query agility %v outside [0,1]", p.QueryAgility)
	}
	return nil
}

// mover is an entity walking a shortest path across the network: it is
// offset along the edge from node at to the table's next hop toward dst.
type mover struct {
	id      model.ObjectID
	pos     geom.Point
	at, dst network.NodeID
	offset  float64
}

// Workload generates one update batch per timestamp.
type Workload struct {
	rng     *rand.Rand
	g       *network.Graph
	routes  *network.Routes
	params  Params
	objects []mover // slice-ordered for determinism
	queries []mover // query ids are 0..NumQueries-1 in model.QueryID space
	nextID  model.ObjectID
	booted  bool
}

// New creates a workload over the given network.
func New(g *network.Graph, params Params) (*Workload, error) {
	if err := params.Validate(); err != nil {
		return nil, err
	}
	if g.NumNodes() < 2 {
		return nil, fmt.Errorf("generator: network needs at least 2 nodes, has %d", g.NumNodes())
	}
	if !g.Connected() {
		return nil, fmt.Errorf("generator: network is disconnected")
	}
	return &Workload{
		rng:    rand.New(rand.NewSource(params.Seed)),
		g:      g,
		routes: network.NewRoutes(g),
		params: params,
	}, nil
}

// Params returns the workload's parameters.
func (w *Workload) Params() Params { return w.params }

// InitialObjects spawns the initial population and returns its positions,
// for bootstrapping monitors. It must be called exactly once, before the
// first Advance.
func (w *Workload) InitialObjects() map[model.ObjectID]geom.Point {
	if w.booted {
		panic("generator: InitialObjects called twice")
	}
	w.booted = true
	out := make(map[model.ObjectID]geom.Point, w.params.N)
	w.objects = make([]mover, 0, w.params.N)
	for i := 0; i < w.params.N; i++ {
		m := w.spawn(w.nextID)
		w.nextID++
		w.objects = append(w.objects, m)
		out[m.id] = m.pos
	}
	for i := 0; i < w.params.NumQueries; i++ {
		w.queries = append(w.queries, w.spawn(model.ObjectID(i)))
	}
	return out
}

// InitialQueries returns the starting location of every query; query i in
// the returned slice corresponds to model.QueryID(i).
func (w *Workload) InitialQueries() []geom.Point {
	if !w.booted {
		panic("generator: InitialQueries before InitialObjects")
	}
	pts := make([]geom.Point, len(w.queries))
	for i, m := range w.queries {
		pts[i] = m.pos
	}
	return pts
}

// ObjectCount returns the current population (constant by construction).
func (w *Workload) ObjectCount() int { return len(w.objects) }

// Advance simulates one timestamp and returns the update batch: at most one
// update per object (the stream model of Section 3) plus the query moves.
func (w *Workload) Advance() model.Batch {
	if !w.booted {
		panic("generator: Advance before InitialObjects")
	}
	var b model.Batch
	objStep := w.params.ObjectSpeed.PerTimestamp()
	for i := range w.objects {
		if w.rng.Float64() >= w.params.ObjectAgility {
			continue
		}
		m := &w.objects[i]
		old := m.pos
		if arrived := w.advance(m, objStep); arrived {
			// The object disappears at its destination and a fresh one
			// spawns to keep the population constant.
			b.Objects = append(b.Objects, model.DeleteUpdate(m.id, old))
			*m = w.spawn(w.nextID)
			w.nextID++
			b.Objects = append(b.Objects, model.InsertUpdate(m.id, m.pos))
			continue
		}
		b.Objects = append(b.Objects, model.MoveUpdate(m.id, old, m.pos))
	}
	qryStep := w.params.QuerySpeed.PerTimestamp()
	for i := range w.queries {
		if w.rng.Float64() >= w.params.QueryAgility {
			continue
		}
		m := &w.queries[i]
		if arrived := w.advance(m, qryStep); arrived {
			w.retarget(m) // queries persist: pick a new destination
		}
		b.Queries = append(b.Queries, model.QueryUpdate{
			ID:        model.QueryID(i),
			Kind:      model.QueryMove,
			NewPoints: []geom.Point{m.pos},
		})
	}
	return b
}

// spawn creates a mover at a random node heading to a random destination.
func (w *Workload) spawn(id model.ObjectID) mover {
	m := mover{id: id, at: network.NodeID(w.rng.Intn(w.g.NumNodes()))}
	w.retarget(&m)
	return m
}

// retarget sends m, standing on node m.at, to a fresh random destination.
func (w *Workload) retarget(m *mover) {
	dst := m.at
	for dst == m.at {
		dst = network.NodeID(w.rng.Intn(w.g.NumNodes()))
	}
	m.dst = dst
	m.offset = 0
	m.pos = w.g.Node(m.at)
}

// advance walks m dist units along its route, updating its position. It
// reports whether the destination was reached (position = destination).
func (w *Workload) advance(m *mover, dist float64) bool {
	for {
		if m.at == m.dst {
			m.pos = w.g.Node(m.dst)
			return true
		}
		next := w.routes.Next(m.at, m.dst)
		a := w.g.Node(m.at)
		b := w.g.Node(next)
		segLen := geom.Dist(a, b)
		if segLen <= 0 {
			m.at = next
			m.offset = 0
			continue
		}
		remain := segLen - m.offset
		if dist < remain {
			m.offset += dist
			m.pos = geom.Lerp(a, b, m.offset/segLen)
			return false
		}
		dist -= remain
		m.at = next
		m.offset = 0
		m.pos = b
	}
}
