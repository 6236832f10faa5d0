package server

import (
	"net"
	"reflect"
	"testing"
	"time"

	"cpm"
	"cpm/internal/geom"
	"cpm/internal/wire"
)

// startServer serves a fresh monitor on a loopback listener.
func startServer(t *testing.T, opts cpm.Options) (*Server, string) {
	return startServerOpts(t, opts, Options{})
}

// startServerOpts is startServer with explicit server options.
func startServerOpts(t *testing.T, opts cpm.Options, sopts Options) (*Server, string) {
	t.Helper()
	mon := cpm.NewMonitor(opts)
	s := New(mon, sopts)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go s.Serve(ln)
	t.Cleanup(func() {
		s.Close()
		mon.Close()
	})
	return s, ln.Addr().String()
}

// testConn is a raw protocol client for server tests: it speaks wire
// frames directly, so the server is exercised independently of the client
// package.
type testConn struct {
	t  *testing.T
	nc net.Conn
	r  *wire.Reader
}

func dialRaw(t *testing.T, addr string) *testConn {
	t.Helper()
	nc, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { nc.Close() })
	tc := &testConn{t: t, nc: nc, r: wire.NewReader(nc)}
	tc.write(wire.AppendHello(nil, 0))
	typ, _, _ := tc.next()
	if typ != wire.FrameWelcome {
		t.Fatalf("handshake answered with %v", typ)
	}
	return tc
}

func (tc *testConn) write(frame []byte) {
	tc.t.Helper()
	if _, err := tc.nc.Write(frame); err != nil {
		tc.t.Fatal(err)
	}
}

func (tc *testConn) next() (wire.FrameType, []byte, error) {
	tc.t.Helper()
	tc.nc.SetReadDeadline(time.Now().Add(10 * time.Second))
	typ, payload, err := tc.r.Next()
	if err != nil {
		return 0, nil, err
	}
	cp := append([]byte(nil), payload...)
	return typ, cp, nil
}

// expectAck reads frames until the ack for reqID arrives (events may be
// interleaved); it fails on an error ack unless wantErr.
func (tc *testConn) expectAck(reqID uint64, wantErr bool) string {
	tc.t.Helper()
	for {
		typ, payload, err := tc.next()
		if err != nil {
			tc.t.Fatalf("waiting for ack %d: %v", reqID, err)
		}
		if typ != wire.FrameAck {
			continue
		}
		got, msg, err := wire.DecodeAck(payload)
		if err != nil {
			tc.t.Fatal(err)
		}
		if got != reqID {
			tc.t.Fatalf("ack for %d, want %d", got, reqID)
		}
		if (msg != "") != wantErr {
			tc.t.Fatalf("ack %d error %q, wantErr=%v", reqID, msg, wantErr)
		}
		return msg
	}
}

// equalNeighbors compares results treating nil and empty as equal (the
// wire layer canonicalizes empty slices to nil).
func equalNeighbors(a, b []cpm.Neighbor) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestServerRoundTrip drives the full request surface over one raw
// connection: bootstrap, registrations of every kind, ticks, result polls,
// move and remove — checking results against an identically driven
// in-process monitor.
func TestServerRoundTrip(t *testing.T) {
	_, addr := startServer(t, cpm.Options{GridSize: 16})
	tc := dialRaw(t, addr)
	local := cpm.NewMonitor(cpm.Options{GridSize: 16})

	objs := map[cpm.ObjectID]cpm.Point{
		1: {X: 0.10, Y: 0.10}, 2: {X: 0.15, Y: 0.12}, 3: {X: 0.80, Y: 0.80},
		4: {X: 0.85, Y: 0.82}, 5: {X: 0.50, Y: 0.50},
	}
	local.Bootstrap(objs)
	wobjs := make([]wire.BootstrapObject, 0, len(objs))
	for id, p := range objs {
		wobjs = append(wobjs, wire.BootstrapObject{ID: id, Pos: p})
	}
	tc.write(wire.AppendBootstrap(nil, 1, wobjs))
	tc.expectAck(1, false)

	// A second bootstrap must come back as an error ack, not kill the
	// server.
	tc.write(wire.AppendBootstrap(nil, 2, wobjs))
	tc.expectAck(2, true)

	regs := []wire.Register{
		{ID: 10, Kind: wire.KindPoint, K: 2, Points: []geom.Point{{X: 0.12, Y: 0.11}}},
		{ID: 11, Kind: wire.KindAgg, K: 2, Agg: geom.AggSum, Points: []geom.Point{{X: 0.1, Y: 0.1}, {X: 0.2, Y: 0.2}}},
		{ID: 12, Kind: wire.KindConstrained, K: 1, Points: []geom.Point{{X: 0.5, Y: 0.5}}, Region: geom.Rect{Lo: geom.Point{X: 0.4, Y: 0.4}, Hi: geom.Point{X: 0.6, Y: 0.6}}},
		{ID: 13, Kind: wire.KindRange, Points: []geom.Point{{X: 0.82, Y: 0.81}}, Radius: 0.1},
	}
	if err := local.RegisterQuery(10, regs[0].Points[0], 2); err != nil {
		t.Fatal(err)
	}
	if err := local.RegisterAggQuery(11, regs[1].Points, 2, cpm.AggSum); err != nil {
		t.Fatal(err)
	}
	if err := local.RegisterConstrainedQuery(12, regs[2].Points[0], 1, regs[2].Region); err != nil {
		t.Fatal(err)
	}
	if err := local.RegisterRangeQuery(13, regs[3].Points[0], 0.1); err != nil {
		t.Fatal(err)
	}
	for i, r := range regs {
		tc.write(wire.AppendRegister(nil, uint64(10+i), r))
		tc.expectAck(uint64(10+i), false)
	}
	// Invalid registration (k <= 0) errors without killing the stream.
	tc.write(wire.AppendRegister(nil, 14, wire.Register{ID: 20, Kind: wire.KindPoint, K: 0, Points: []geom.Point{{X: 0.5, Y: 0.5}}}))
	tc.expectAck(14, true)

	checkResult := func(reqID uint64, q cpm.QueryID) {
		t.Helper()
		tc.write(wire.AppendResultReq(nil, reqID, q))
		for {
			typ, payload, err := tc.next()
			if err != nil {
				t.Fatal(err)
			}
			if typ != wire.FrameResult {
				continue
			}
			got, id, _, res, err := wire.DecodeResult(payload)
			if err != nil {
				t.Fatal(err)
			}
			if got != reqID || id != q {
				t.Fatalf("result for (%d, %d), want (%d, %d)", got, id, reqID, q)
			}
			want := local.Result(q)
			if !equalNeighbors(res, want) {
				t.Fatalf("q%d remote %v, local %v", q, res, want)
			}
			return
		}
	}

	batch := cpm.Batch{Objects: []cpm.Update{
		cpm.MoveUpdate(5, cpm.Point{X: 0.50, Y: 0.50}, cpm.Point{X: 0.13, Y: 0.12}),
		cpm.InsertUpdate(6, cpm.Point{X: 0.81, Y: 0.83}),
		cpm.DeleteUpdate(3, cpm.Point{X: 0.80, Y: 0.80}),
	}}
	local.Tick(batch)
	tc.write(wire.AppendTick(nil, 20, batch))
	tc.expectAck(20, false)
	for i, q := range []cpm.QueryID{10, 11, 12, 13, 99} {
		checkResult(uint64(30+i), q)
	}

	if err := local.MoveQuery(10, cpm.Point{X: 0.82, Y: 0.80}); err != nil {
		t.Fatal(err)
	}
	tc.write(wire.AppendMoveQuery(nil, 40, 10, []geom.Point{{X: 0.82, Y: 0.80}}))
	tc.expectAck(40, false)
	checkResult(41, 10)

	local.RemoveQuery(11)
	tc.write(wire.AppendRemoveQuery(nil, 42, 11))
	tc.expectAck(42, false)
	checkResult(43, 11)
}

// TestServerSubscribeStream subscribes over the raw protocol and checks
// the pushed install + update events against the monitor, including the
// snapshot-on-subscribe path.
func TestServerSubscribeStream(t *testing.T) {
	srv, addr := startServer(t, cpm.Options{GridSize: 16})
	tc := dialRaw(t, addr)

	objs := []wire.BootstrapObject{
		{ID: 1, Pos: geom.Point{X: 0.1, Y: 0.1}},
		{ID: 2, Pos: geom.Point{X: 0.2, Y: 0.2}},
		{ID: 3, Pos: geom.Point{X: 0.9, Y: 0.9}},
	}
	tc.write(wire.AppendBootstrap(nil, 1, objs))
	tc.expectAck(1, false)
	tc.write(wire.AppendRegister(nil, 2, wire.Register{ID: 5, Kind: wire.KindPoint, K: 2, Points: []geom.Point{{X: 0.15, Y: 0.15}}}))
	tc.expectAck(2, false)

	// Subscribe with snapshot: the stream must open with the full current
	// state of query 5.
	tc.write(wire.AppendSubscribe(nil, 3, wire.Subscribe{SubID: 7, Buffer: 64, Snapshot: true}))
	tc.expectAck(3, false)
	typ, payload, err := tc.next()
	if err != nil {
		t.Fatal(err)
	}
	if typ != wire.FrameSnapshot {
		t.Fatalf("first stream frame %v, want snapshot", typ)
	}
	snap, err := wire.DecodeSnapshot(payload)
	if err != nil {
		t.Fatal(err)
	}
	var want []cpm.Neighbor
	srv.Locked(func(m Backend) { want = m.Result(5) })
	if snap.SubID != 7 || snap.Query != 5 || !snap.Live || !reflect.DeepEqual(snap.Result, want) {
		t.Fatalf("snapshot = %+v, want result %v", snap, want)
	}

	// A tick that changes the result must push exactly one event.
	tc.write(wire.AppendTick(nil, 4, cpm.Batch{Objects: []cpm.Update{
		cpm.MoveUpdate(3, cpm.Point{X: 0.9, Y: 0.9}, cpm.Point{X: 0.14, Y: 0.15}),
	}}))
	// The tick's ack and its event may arrive in either order; read until
	// both are in.
	var ev wire.Event
	gotEvent, gotAck := false, false
	for !gotEvent || !gotAck {
		typ, payload, err := tc.next()
		if err != nil {
			t.Fatal(err)
		}
		switch {
		case typ == wire.FrameEvent && !gotEvent:
			if ev, err = wire.DecodeEvent(payload); err != nil {
				t.Fatal(err)
			}
			gotEvent = true
		case typ == wire.FrameAck && !gotAck:
			id, msg, err := wire.DecodeAck(payload)
			if err != nil {
				t.Fatal(err)
			}
			if id != 4 || msg != "" {
				t.Fatalf("ack (%d, %q), want a clean ack for 4", id, msg)
			}
			gotAck = true
		default:
			t.Fatalf("unexpected %v frame", typ)
		}
	}
	if ev.SubID != 7 || ev.Seq != 1 || ev.Diff.Query != 5 || ev.Diff.Kind != cpm.DiffUpdate {
		t.Fatalf("event = %+v", ev)
	}
	srv.Locked(func(m Backend) { want = m.Result(5) })
	if !reflect.DeepEqual(ev.Diff.Result, want) {
		t.Fatalf("event result %v, want %v", ev.Diff.Result, want)
	}

	// Unsubscribe: stream stops, later ticks push nothing.
	tc.write(wire.AppendUnsubscribe(nil, 5, 7))
	tc.expectAck(5, false)
	tc.write(wire.AppendTick(nil, 6, cpm.Batch{Objects: []cpm.Update{
		cpm.MoveUpdate(3, cpm.Point{X: 0.14, Y: 0.15}, cpm.Point{X: 0.9, Y: 0.9}),
	}}))
	tc.expectAck(6, false)
	tc.write(wire.AppendResultReq(nil, 7, 5))
	typ, _, err = tc.next()
	if err != nil {
		t.Fatal(err)
	}
	if typ != wire.FrameResult {
		t.Fatalf("after unsubscribe got %v frame, want the result poll only", typ)
	}
}

// TestServerProtocolErrors checks that garbage kills only the offending
// connection and duplicate subscription ids are rejected.
func TestServerProtocolErrors(t *testing.T) {
	_, addr := startServer(t, cpm.Options{GridSize: 16})

	// No hello: the connection dies.
	nc, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	nc.Write(wire.AppendGap(nil, wire.Gap{SubID: 1}))
	nc.SetReadDeadline(time.Now().Add(5 * time.Second))
	if _, _, err := wire.NewReader(nc).Next(); err == nil {
		t.Fatal("server answered a connection that skipped the handshake")
	}
	nc.Close()

	// A healthy connection still works (the bad one did not hurt the
	// server), and a duplicate sub id is refused via error ack.
	tc := dialRaw(t, addr)
	tc.write(wire.AppendSubscribe(nil, 1, wire.Subscribe{SubID: 3, Buffer: 8}))
	tc.expectAck(1, false)
	tc.write(wire.AppendSubscribe(nil, 2, wire.Subscribe{SubID: 3, Buffer: 8}))
	if msg := tc.expectAck(2, true); msg == "" {
		t.Fatal("duplicate sub id accepted")
	}
}
