package main

// layers.go holds every import of an internal package, and calls only the
// functions the per-layer metrics are defined on. A refactor of the program
// finds here, in one file, everything the benchmark pins.
//
//	grid     New, SetShared, BeginWrites, Insert, EndWrites, ApplyBatch, MeanOccupancy
//	core     NewSharedEngine, EnableDiffs, Register, RegisterRange, RemoveQuery,
//	         BeginCycle, ScanApplied, ApplyQueryUpdates, TakeDiffs, Result,
//	         RangeResult, IsRange, BestDist, Stats, MemoryFootprint
//	notify   NewHub, Subscribe, Publish
//	conc     NewPartition, CellBlock, InGrid, Cells
//	qheap    New, Push, Pop
//	wire     AppendTick, DecodeTick, AppendEvent, DecodeEvent, ParseFrame
//	server   New, Serve, Close, Metrics, the Backend interface
//	cluster  New, Close, Metrics

import (
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"cpm"
	"cpm/client"
	"cpm/internal/cluster"
	"cpm/internal/conc"
	"cpm/internal/core"
	"cpm/internal/grid"
	"cpm/internal/notify"
	"cpm/internal/qheap"
	"cpm/internal/server"
	"cpm/internal/wire"
)

// stagedTarget is the staged rig: it runs by hand, one span per call, the
// pipeline a one-shard monitor runs inside Tick — apply the object stream to
// the grid, open the engine's cycle, scan the write log, apply the query
// updates, take the diffs, publish them.
type stagedTarget struct {
	g   *grid.Grid
	e   *core.Engine
	hub *notify.Hub
	rec *recorder
	log []grid.Applied

	published int32 // the latest notify.publish span
	invalid   int64 // updates the grid refused
	applied   int64 // updates the grid applied
	moves     int64 // moves applied
	crossed   int64 // moves that changed cell
	diffs     int64 // diffs published
}

func newStaged(gridSize int, rec *recorder) *stagedTarget {
	g := grid.New(gridSize, cpm.UnitSquare)
	g.SetShared(true)
	e := core.NewSharedEngine(g, core.Options{})
	e.EnableDiffs(true)
	return &stagedTarget{g: g, e: e, hub: notify.NewHub(), rec: rec}
}

func (s *stagedTarget) bootstrap(objs map[cpm.ObjectID]cpm.Point) error {
	s.g.BeginWrites()
	defer s.g.EndWrites()
	for id, p := range objs {
		if err := s.g.Insert(id, p); err != nil {
			return err
		}
	}
	return nil
}

// publish is what a monitor does after every mutating call.
func (s *stagedTarget) publish(parent int32) {
	sp := s.rec.begin("core.takediffs", parent)
	diffs := s.e.TakeDiffs()
	s.rec.end(sp)
	s.published = s.rec.begin("notify.publish", parent)
	s.hub.Publish(diffs)
	s.rec.end(s.published)
	s.diffs += int64(len(diffs))
}

func (s *stagedTarget) register(d qdef) error {
	root := s.rec.begin("register", -1)
	sp := s.rec.begin("core.register", root)
	var err error
	if d.kind == kindRange {
		err = s.e.RegisterRange(d.id, d.pts[0], d.radius)
	} else {
		def := core.Def{Points: d.pts, K: d.k, Agg: d.agg}
		if d.kind == kindConstrained {
			def.Constraint = &d.region
		}
		err = s.e.Register(d.id, def)
	}
	s.rec.end(sp)
	s.publish(root)
	s.rec.end(root)
	return err
}

func (s *stagedTarget) remove(id cpm.QueryID) error {
	root := s.rec.begin("remove", -1)
	sp := s.rec.begin("core.remove", root)
	s.e.RemoveQuery(id)
	s.rec.end(sp)
	s.publish(root)
	s.rec.end(root)
	return nil
}

func (s *stagedTarget) tick(b cpm.Batch) error {
	root := s.rec.begin("tick", -1)
	sp := s.rec.begin("grid.apply", root)
	var invalid int64
	s.log, invalid = s.g.ApplyBatch(b.Objects, s.log[:0])
	s.rec.end(sp)
	sp = s.rec.begin("core.begin", root)
	s.e.BeginCycle(b.Queries)
	s.rec.end(sp)
	sp = s.rec.begin("core.scan", root)
	s.e.ScanApplied(s.log)
	s.rec.end(sp)
	sp = s.rec.begin("core.queryupd", root)
	s.e.ApplyQueryUpdates(b.Queries)
	s.rec.end(sp)
	s.publish(root)
	s.rec.end(root)
	s.invalid += invalid
	return nil
}

// settle counts, outside the timed call, what the tick's write log shows.
func (s *stagedTarget) settle() {
	s.applied += int64(len(s.log))
	for i := range s.log {
		if a := &s.log[i]; a.Kind == cpm.Move {
			s.moves++
			if a.Old != a.New {
				s.crossed++
			}
		}
	}
}

// delivered records the wait between the end of publishing and the arrival
// of the tick's last diff at the subscriber.
func (s *stagedTarget) delivered(at time.Time) {
	s.rec.mu.Lock()
	pub := s.rec.spans[s.published]
	s.rec.mu.Unlock()
	s.rec.add(span{Name: "notify.deliver", Start: pub.End, End: s.rec.since(at), Parent: pub.Parent, Tick: pub.Tick})
}

func (s *stagedTarget) result(id cpm.QueryID) ([]cpm.Neighbor, error) {
	if s.e.IsRange(id) {
		return s.e.RangeResult(id), nil
	}
	return s.e.Result(id), nil
}

func (s *stagedTarget) watch(q cpm.QueryID) (*probe, error) {
	return watchLocal(s.hub.Subscribe(notify.Options{Buffer: subBuffer}), q), nil
}

func (s *stagedTarget) close() { s.hub.Close() }

// spanBackend is the decorator rig: it wraps the backend a server is given
// and records a span around every mutating call. The coordinator's span is
// caused by the driver's round trip, a worker's by the coordinator's.
type spanBackend struct {
	server.Backend
	rec   *recorder
	layer string // "cluster" or "worker"
}

func (b *spanBackend) begin(op string) int32 {
	if b.layer == "cluster" {
		id := b.rec.begin("cluster."+op, b.rec.root.Load())
		b.rec.coord.Store(id)
		return id
	}
	return b.rec.begin("worker."+op, b.rec.coord.Load())
}

func (b *spanBackend) Tick(batch cpm.Batch) {
	defer b.rec.end(b.begin("tick"))
	b.Backend.Tick(batch)
}

func (b *spanBackend) RegisterQuery(id cpm.QueryID, q cpm.Point, k int) error {
	defer b.rec.end(b.begin("register"))
	return b.Backend.RegisterQuery(id, q, k)
}

func (b *spanBackend) RegisterAggQuery(id cpm.QueryID, pts []cpm.Point, k int, agg cpm.Agg) error {
	defer b.rec.end(b.begin("register"))
	return b.Backend.RegisterAggQuery(id, pts, k, agg)
}

func (b *spanBackend) RegisterConstrainedQuery(id cpm.QueryID, q cpm.Point, k int, region cpm.Rect) error {
	defer b.rec.end(b.begin("register"))
	return b.Backend.RegisterConstrainedQuery(id, q, k, region)
}

func (b *spanBackend) RegisterRangeQuery(id cpm.QueryID, center cpm.Point, radius float64) error {
	defer b.rec.end(b.begin("register"))
	return b.Backend.RegisterRangeQuery(id, center, radius)
}

func (b *spanBackend) MoveQuery(id cpm.QueryID, to ...cpm.Point) error {
	defer b.rec.end(b.begin("move"))
	return b.Backend.MoveQuery(id, to...)
}

func (b *spanBackend) RemoveQuery(id cpm.QueryID) {
	defer b.rec.end(b.begin("remove"))
	b.Backend.RemoveQuery(id)
}

// countConn counts the bytes a client connection moves.
type countConn struct {
	net.Conn
	up, down *atomic.Int64
}

func (c countConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	c.down.Add(int64(n))
	return n, err
}

func (c countConn) Write(p []byte) (int, error) {
	n, err := c.Conn.Write(p)
	c.up.Add(int64(n))
	return n, err
}

// stack is the served cluster, built in process over loopback TCP the way
// cmd/cpmserver and cmd/cpmcoord wire it: worker servers around monitors, a
// coordinator that dials them, and a front server around the coordinator.
type stack struct {
	mons     []*cpm.Monitor
	workers  []*server.Server
	coord    *cluster.Coordinator
	front    *server.Server
	addr     string
	serving  sync.WaitGroup
	up, down atomic.Int64 // bytes written and read by the client connections of a recorded stack
}

// wrapBackend, when set, wraps the backend of every server a stack makes; a
// test injects a fault with it.
var wrapBackend func(server.Backend) server.Backend

// newStack builds the stack with the given number of workers. With a
// recorder every server's backend is decorated and the clients' bytes are
// counted.
func newStack(gridSize, workers int, rec *recorder) (_ *stack, err error) {
	s := &stack{}
	defer func() {
		if err != nil {
			s.close()
		}
	}()
	serve := func(b server.Backend, layer string) (*server.Server, string, error) {
		if rec != nil {
			b = &spanBackend{Backend: b, rec: rec, layer: layer}
		}
		if wrapBackend != nil {
			b = wrapBackend(b)
		}
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, "", err
		}
		srv := server.New(b, server.Options{})
		s.serving.Add(1)
		go func() {
			defer s.serving.Done()
			srv.Serve(ln) // returns once the server is closed
		}()
		return srv, ln.Addr().String(), nil
	}
	addrs := make([]string, workers)
	for i := range addrs {
		mon := cpm.NewMonitor(cpm.Options{GridSize: gridSize})
		s.mons = append(s.mons, mon)
		srv, addr, err := serve(mon, "worker")
		if err != nil {
			return nil, err
		}
		s.workers = append(s.workers, srv)
		addrs[i] = addr
	}
	if s.coord, err = cluster.New(cluster.Options{Workers: addrs}); err != nil {
		return nil, err
	}
	s.front, s.addr, err = serve(s.coord, "cluster")
	return s, err
}

// dial connects a driver to the stack's front server.
func (s *stack) dial(count bool) (*clientTarget, error) {
	var opts client.Options
	if count {
		opts.Dialer = func(addr string, timeout time.Duration) (net.Conn, error) {
			c, err := net.DialTimeout("tcp", addr, timeout)
			if err != nil {
				return nil, err
			}
			return countConn{Conn: c, up: &s.up, down: &s.down}, nil
		}
	}
	return dialTarget(s.addr, opts)
}

// close stops every server and waits for their accept loops.
func (s *stack) close() {
	if s.front != nil {
		s.front.Close()
	}
	if s.coord != nil {
		s.coord.Close()
	}
	for _, w := range s.workers {
		w.Close()
	}
	for _, m := range s.mons {
		m.Close()
	}
	s.serving.Wait()
}

// counter reads one of the stack's existing counters by name: the front
// server's cpm_server_* or the coordinator's cpm_coord_*.
func (s *stack) counter(name string) float64 {
	for _, st := range s.front.Metrics().Snapshot() {
		if st.Name == name {
			return float64(st.Value)
		}
	}
	for _, st := range s.coord.Metrics().Snapshot() {
		if st.Name == name {
			return float64(st.Value)
		}
	}
	panic(fmt.Sprintf("no counter %q", name))
}

// micro repeats f, which does n operations, until 20 ms have passed and
// returns the nanoseconds per operation.
func micro(n int, f func()) float64 {
	if n == 0 {
		return 0
	}
	start, reps := time.Now(), 0
	for time.Since(start) < 20*time.Millisecond {
		f()
		reps++
	}
	return float64(time.Since(start)) / float64(reps*n)
}

// concWalkNs times the conceptual-partition walk alone: around each k-NN
// query's cell, the cells of every strip that lies within the query's
// best_dist. It returns nanoseconds per cell.
func concWalkNs(gridSize int, defs []qdef, bestDist func(cpm.QueryID) float64) float64 {
	delta := 1 / float64(gridSize)
	cellOf := func(x float64) int { return min(max(int(x*float64(gridSize)), 0), gridSize-1) }
	cells := 0
	walk := func() {
		cells = 0
		for _, d := range defs {
			if d.kind == kindRange {
				continue
			}
			part := conc.NewPartition(gridSize, delta, cpm.Point{}, conc.CellBlock(cellOf(d.pts[0].X), cellOf(d.pts[0].Y)))
			levels := int32(bestDist(d.id)/delta) + 1
			for _, dir := range conc.Dirs {
				for l := int32(0); l < levels; l++ {
					s := conc.Strip{Dir: dir, Level: l}
					if !part.InGrid(s) {
						break
					}
					part.Cells(s, func(col, row int) { cells++ })
				}
			}
		}
	}
	walk()
	return micro(cells, walk)
}

// heapOpNs times the search heap alone: n/2 pushes, then n/2 pops.
func heapOpNs(n int) float64 {
	n = max(n/2, 16)
	h := qheap.New(16)
	return micro(2*n, func() {
		key := uint64(88172645463325252)
		for i := 0; i < n; i++ {
			key ^= key << 13
			key ^= key >> 7
			key ^= key << 17
			h.Push(float64(key>>11), uint64(i))
		}
		for i := 0; i < n; i++ {
			h.Pop()
		}
	})
}

// wireTickNs times the Tick frame alone on recorded batches and returns the
// nanoseconds per update to encode and to decode.
func wireTickNs(chunk []tickInput) (enc, dec float64) {
	updates := 0
	for _, in := range chunk {
		updates += len(in.batch.Objects) + len(in.batch.Queries)
	}
	var buf []byte
	enc = micro(updates, func() {
		buf = buf[:0]
		for i, in := range chunk {
			buf = wire.AppendTick(buf, uint64(i), in.batch)
		}
	})
	dec = micro(updates, func() { eachFrame(buf, func(p []byte) error { _, _, err := wire.DecodeTick(p); return err }) })
	return enc, dec
}

// wireEventNs times the Event frame alone on recorded diffs and returns the
// nanoseconds per event to encode and to decode.
func wireEventNs(diffs []cpm.ResultDiff) (enc, dec float64) {
	var buf []byte
	enc = micro(len(diffs), func() {
		buf = buf[:0]
		for i, d := range diffs {
			buf = wire.AppendEvent(buf, 1, uint64(i), d)
		}
	})
	dec = micro(len(diffs), func() { eachFrame(buf, func(p []byte) error { _, err := wire.DecodeEvent(p); return err }) })
	return enc, dec
}

// eachFrame decodes every frame of buf.
func eachFrame(buf []byte, decode func(payload []byte) error) {
	for len(buf) > 0 {
		_, payload, rest, err := wire.ParseFrame(buf)
		if err == nil {
			err = decode(payload)
		}
		if err != nil {
			panic(fmt.Sprintf("the wire layer cannot read its own frame: %v", err))
		}
		buf = rest
	}
}
