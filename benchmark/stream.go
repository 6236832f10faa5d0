package main

import (
	"math"
	"math/rand"

	"cpm"
	"cpm/workload"
)

// The streams below make every input of a run from the seed. A stream owns a
// mirror of what the system under test must hold once it has processed
// everything generated so far — object positions and query definitions — and
// the oracle answers from that mirror alone. Streams are generated in chunks
// outside timed regions; the chunk buffers are reused, so a chunk is valid
// only until the next call of next, unless the stream is told to retain.

// Probe: object 0 hops in and out of a small range query that is registered
// last, under the highest query id. Diffs are published in query-id order, so
// the probe query's diff is the last one of its tick: a subscriber that has
// received it has received every diff of the tick.
const (
	probeObject cpm.ObjectID = 0
	probeRadius              = 0.002
)

var (
	probeIn  = cpm.Point{X: 0.5, Y: 0.5}
	probeOut = cpm.Point{X: 0.5 + 2*probeRadius, Y: 0.5}
)

// qkind is the kind of a continuous query.
type qkind uint8

const (
	kindPoint qkind = iota
	kindAgg
	kindConstrained
	kindRange
)

// qdef is one continuous query as the benchmark registers it, moves it and
// answers it by brute force.
type qdef struct {
	id     cpm.QueryID
	kind   qkind
	pts    []cpm.Point // one point, or three for an aggregate query
	k      int
	agg    cpm.Agg
	region cpm.Rect // kindConstrained
	radius float64  // kindRange
}

// tickInput is everything one tick feeds the system: first the queries to
// remove and register again under the same id — one per tick, in turn, on
// every workload, so that registration is timed all through a run; a tenth
// of them on query-churn — then the batch.
type tickInput struct {
	churn []qdef
	batch cpm.Batch
}

// mirror is the benchmark's own copy of the state the oracle answers from.
type mirror struct {
	pos   []cpm.Point // indexed by object id
	alive []bool
	defs  []qdef // indexed by query id; pts are owned by the mirror
}

func (m *mirror) set(id cpm.ObjectID, p cpm.Point) {
	for int(id) >= len(m.pos) {
		m.pos = append(m.pos, cpm.Point{})
		m.alive = append(m.alive, false)
	}
	m.pos[id], m.alive[id] = p, true
}

// apply folds one batch into the mirror.
func (m *mirror) apply(b cpm.Batch) {
	for _, u := range b.Objects {
		if u.Kind == cpm.Delete {
			m.alive[u.ID] = false
		} else {
			m.set(u.ID, u.New)
		}
	}
	for _, qu := range b.Queries {
		copy(m.defs[qu.ID].pts, qu.NewPoints)
	}
}

// clone returns a copy that shares nothing with m.
func (m *mirror) clone() *mirror {
	c := &mirror{
		pos:   append([]cpm.Point(nil), m.pos...),
		alive: append([]bool(nil), m.alive...),
		defs:  append([]qdef(nil), m.defs...),
	}
	for i := range c.defs {
		c.defs[i].pts = append([]cpm.Point(nil), c.defs[i].pts...)
	}
	return c
}

// stream is a seeded source of ticks.
type stream interface {
	objects() map[cpm.ObjectID]cpm.Point // initial population, probe included
	queries() []qdef                     // initial queries, probe query last
	next(n int) []tickInput              // the next n ticks; advances the mirror
	retain(on bool)                      // while on, chunks stay valid: their buffers are not reused
	state() *mirror                      // the state after everything generated
	sum() uint64                         // hash of everything generated
}

// hasher is a running FNV-1a over 64-bit words.
type hasher uint64

func (h *hasher) word(v uint64) { *h = (*h ^ hasher(v)) * 1099511628211 }

func (h *hasher) batch(b cpm.Batch) {
	for _, u := range b.Objects {
		h.word(uint64(u.ID)<<8 | uint64(u.Kind))
		h.word(math.Float64bits(u.New.X))
		h.word(math.Float64bits(u.New.Y))
	}
	for _, qu := range b.Queries {
		h.word(uint64(qu.ID))
		for _, p := range qu.NewPoints {
			h.word(math.Float64bits(p.X))
			h.word(math.Float64bits(p.Y))
		}
	}
}

// base holds what every stream shares: the mirror, the hash, the probe and
// the reused chunk.
type base struct {
	m       mirror
	h       hasher
	probeAt bool // whether the probe object is inside the probe range
	chunk   []tickInput
	keep    bool // a chunk takes its buffers with it instead of leaving them to the next
}

func (b *base) retain(on bool) { b.keep = on }

func (b *base) state() *mirror { return &b.m }
func (b *base) sum() uint64    { return uint64(b.h) }

func (b *base) queries() []qdef { return b.m.defs }

// addProbe appends the probe query to the definitions and places the probe
// object outside it.
func (b *base) addProbe(objs map[cpm.ObjectID]cpm.Point) {
	objs[probeObject] = probeOut
	b.m.set(probeObject, probeOut)
	b.m.defs = append(b.m.defs, qdef{
		id: cpm.QueryID(len(b.m.defs)), kind: kindRange,
		pts: []cpm.Point{probeIn}, radius: probeRadius,
	})
}

// probeMove returns this tick's hop of the probe object.
func (b *base) probeMove() cpm.Update {
	from, to := probeOut, probeIn
	if b.probeAt {
		from, to = to, from
	}
	b.probeAt = !b.probeAt
	return cpm.MoveUpdate(probeObject, from, to)
}

// take returns the reused chunk, resized to n ticks.
func (b *base) take(n int) []tickInput {
	if cap(b.chunk) < n {
		b.chunk = make([]tickInput, n)
	}
	chunk := b.chunk[:n]
	if b.keep {
		b.chunk = nil
	}
	return chunk
}

// roadSpec sizes a road-network stream.
type roadSpec struct {
	n       int     // objects
	queries int     // continuous queries, probe excluded
	k       int     // neighbours of the point queries
	fObj    float64 // share of objects that move in a tick
	fQry    float64 // share of queries that move in a tick (ignored with churn)
	churn   bool    // mixed query kinds, every query moves every tick, 10% re-register
}

// roadStream is the paper's workload: objects on the shortest paths of a
// generated 32x32 city (workload.New). Generator ids are shifted up by one to
// make room for the probe object. With churn the generator moves the objects
// only and the stream moves the queries itself.
type roadStream struct {
	base
	spec roadSpec
	w    *workload.Workload
	rng  *rand.Rand
	tick int
	pts  []cpm.Point // arena of the chunk's query points
}

func newRoadStream(spec roadSpec, seed int64) (*roadStream, error) {
	p := workload.DefaultParams(1)
	p.N, p.NumQueries, p.Seed = spec.n, spec.queries, seed
	p.ObjectAgility, p.QueryAgility = spec.fObj, spec.fQry
	if spec.churn {
		p.NumQueries = 0
	}
	// One city for every seed: the seed moves the objects and the queries,
	// not the streets, so that runs on different seeds do the same work.
	w, err := workload.New(workload.CityOptions{Seed: 1}, p)
	if err != nil {
		return nil, err
	}
	return &roadStream{spec: spec, w: w, rng: rand.New(rand.NewSource(seed ^ 0x5eed))}, nil
}

func (s *roadStream) objects() map[cpm.ObjectID]cpm.Point {
	initial := s.w.InitialObjects()
	objs := make(map[cpm.ObjectID]cpm.Point, len(initial)+1)
	for id, p := range initial {
		objs[id+1] = p
		s.m.set(id+1, p)
	}
	if s.spec.churn {
		for i := 0; i < s.spec.queries; i++ {
			s.m.defs = append(s.m.defs, s.churnDef(cpm.QueryID(i)))
		}
	} else {
		for i, q := range s.w.InitialQueries() {
			s.m.defs = append(s.m.defs, qdef{id: cpm.QueryID(i), kind: kindPoint, pts: []cpm.Point{q}, k: s.spec.k})
		}
	}
	s.addProbe(objs)
	return objs
}

// churnDef makes query id of the fixed mix: of every ten ids seven are point
// k-NN queries with k=64, one an aggregate (3 points, sum, k=16), one
// constrained to a square of side 0.3 (k=16) and one a range of radius 0.03.
func (s *roadStream) churnDef(id cpm.QueryID) qdef {
	d := qdef{id: id, k: 16}
	switch id % 10 {
	case 7:
		d.kind, d.agg, d.pts = kindAgg, cpm.AggSum, make([]cpm.Point, 3)
	case 8:
		c := s.uniform()
		lo := cpm.Point{X: math.Min(math.Max(c.X-0.15, 0), 0.7), Y: math.Min(math.Max(c.Y-0.15, 0), 0.7)}
		d.kind, d.pts = kindConstrained, make([]cpm.Point, 1)
		d.region = cpm.Rect{Lo: lo, Hi: cpm.Point{X: lo.X + 0.3, Y: lo.Y + 0.3}}
	case 9:
		d.kind, d.radius, d.pts = kindRange, 0.03, make([]cpm.Point, 1)
	default:
		d.kind, d.k, d.pts = kindPoint, 64, make([]cpm.Point, 1)
	}
	s.place(d, d.pts)
	return d
}

func (s *roadStream) uniform() cpm.Point {
	return cpm.Point{X: s.rng.Float64(), Y: s.rng.Float64()}
}

// place draws a fresh position for query d into pts: anywhere in the unit
// square, inside the region for a constrained query, and for an aggregate
// query three points within 0.05 of each other.
func (s *roadStream) place(d qdef, pts []cpm.Point) {
	switch d.kind {
	case kindConstrained:
		pts[0] = cpm.Point{
			X: d.region.Lo.X + 0.3*s.rng.Float64(),
			Y: d.region.Lo.Y + 0.3*s.rng.Float64(),
		}
	case kindAgg:
		c := s.uniform()
		for i := range pts {
			pts[i] = cpm.Point{
				X: math.Min(math.Max(c.X+0.1*s.rng.Float64()-0.05, 0), 1),
				Y: math.Min(math.Max(c.Y+0.1*s.rng.Float64()-0.05, 0), 1),
			}
		}
	default:
		pts[0] = s.uniform()
	}
}

// alloc takes n points from the chunk's arena.
func (s *roadStream) alloc(n int) []cpm.Point {
	if len(s.pts)+n > cap(s.pts) {
		// A full arena is left to the slices that point into it.
		s.pts = make([]cpm.Point, 0, max(2*cap(s.pts), 4096))
	}
	s.pts = s.pts[:len(s.pts)+n]
	return s.pts[len(s.pts)-n:]
}

func (s *roadStream) next(n int) []tickInput {
	chunk := s.take(n)
	s.pts = s.pts[:0]
	for i := range chunk {
		in := &chunk[i]
		in.churn = in.churn[:0]
		b := s.w.Advance()
		for j := range b.Objects {
			b.Objects[j].ID++
		}
		b.Objects = append(b.Objects, s.probeMove())
		q, again := s.spec.queries, 1
		if s.spec.churn {
			again = q / 10
		}
		for j := 0; j < again; j++ {
			d := s.m.defs[(s.tick*again+j)%q]
			at := s.alloc(len(d.pts)) // the mirror's points move on
			copy(at, d.pts)
			d.pts = at
			in.churn = append(in.churn, d)
		}
		if s.spec.churn {
			for _, d := range s.m.defs[:q] {
				to := s.alloc(len(d.pts))
				s.place(d, to)
				b.Queries = append(b.Queries, cpm.QueryUpdate{ID: d.id, Kind: cpm.QueryMove, NewPoints: to})
			}
		}
		in.batch = b
		s.m.apply(b)
		s.h.batch(b)
		s.tick++
	}
	if s.keep {
		s.pts = nil
	}
	return chunk
}

// driftStream is the update-heavy workload's generator: every object keeps a
// velocity of length 1.5 cell sides and reflects at the border, so an update
// costs a few nanoseconds to make — the road generator's two microseconds per
// move would be twenty times the work of the system under test. Every object
// moves in every tick; the queries are static k=1 point queries.
type driftStream struct {
	base
	vel     []cpm.Point // indexed by object id
	nQuery  int
	rng     *rand.Rand
	updates []cpm.Update // arena of the chunk's updates
	tick    int
}

func newDriftStream(n, queries, gridSize int, seed int64) *driftStream {
	s := &driftStream{nQuery: queries, rng: rand.New(rand.NewSource(seed))}
	step := 1.5 / float64(gridSize)
	s.vel = make([]cpm.Point, n+1)
	for id := 1; id <= n; id++ {
		a := 2 * math.Pi * s.rng.Float64()
		s.vel[id] = cpm.Point{X: step * math.Cos(a), Y: step * math.Sin(a)}
		s.m.set(cpm.ObjectID(id), cpm.Point{X: s.rng.Float64(), Y: s.rng.Float64()})
	}
	return s
}

func (s *driftStream) objects() map[cpm.ObjectID]cpm.Point {
	objs := make(map[cpm.ObjectID]cpm.Point, len(s.m.pos)+1)
	for id := 1; id < len(s.m.pos); id++ {
		objs[cpm.ObjectID(id)] = s.m.pos[id]
	}
	for i := 0; i < s.nQuery; i++ {
		q := cpm.Point{X: s.rng.Float64(), Y: s.rng.Float64()}
		s.m.defs = append(s.m.defs, qdef{id: cpm.QueryID(i), kind: kindPoint, pts: []cpm.Point{q}, k: 1})
	}
	s.addProbe(objs)
	return objs
}

// reflect folds x back into [0,1] and turns the velocity component around.
func reflect(x, v float64) (float64, float64) {
	if x < 0 {
		return -x, -v
	}
	if x > 1 {
		return 2 - x, -v
	}
	return x, v
}

func (s *driftStream) next(n int) []tickInput {
	chunk := s.take(n)
	per := len(s.vel) // the moving objects and the probe
	if cap(s.updates) < n*per {
		s.updates = make([]cpm.Update, n*per)
	}
	for i := range chunk {
		ups := s.updates[i*per : i*per : (i+1)*per]
		for id := 1; id < len(s.vel); id++ {
			old, v := s.m.pos[id], &s.vel[id]
			var to cpm.Point
			to.X, v.X = reflect(old.X+v.X, v.X)
			to.Y, v.Y = reflect(old.Y+v.Y, v.Y)
			ups = append(ups, cpm.MoveUpdate(cpm.ObjectID(id), old, to))
		}
		ups = append(ups, s.probeMove())
		// The queries stand still, so the mirror's definition serves as is.
		chunk[i].churn = append(chunk[i].churn[:0], s.m.defs[s.tick%s.nQuery])
		s.tick++
		chunk[i].batch = cpm.Batch{Objects: ups}
		s.m.apply(chunk[i].batch)
		s.h.batch(chunk[i].batch)
	}
	if s.keep {
		s.updates = nil
	}
	return chunk
}
