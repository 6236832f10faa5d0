package server

import (
	"encoding/json"
	"errors"
	"io"
	"net"
	"sync"
	"time"

	"cpm"
	"cpm/internal/model"
	"cpm/internal/tracing"
	"cpm/internal/wire"
)

// outKind discriminates the frames a connection's writer can emit.
type outKind uint8

const (
	outWelcome outKind = iota
	outAck
	outResult
	outEvent
	outSnapshot
	outGap
	outStats
	outDiffs
	outTraces
)

// outFrame is one queued outbound frame. A single struct (instead of
// per-kind types) keeps the writer queue allocation-free: frames travel by
// value through the channel.
type outFrame struct {
	kind  outKind
	reqID uint64
	subID uint32
	seq   uint64 // event seq; server instance for outWelcome
	from  uint64
	to    uint64
	query model.QueryID
	live  bool
	errs  string
	diff  model.ResultDiff
	diffs []model.ResultDiff // outDiffs: a sync-diffs response
	res   []model.Neighbor
	stats []wire.Stat
	// phases is the tick-phase trailer an outDiffs frame carries on a
	// trace-negotiated connection (zero for non-Tick operations).
	phases model.PhaseNanos
	// raw is a pre-encoded payload document (outTraces).
	raw []byte
}

// conn is one client connection: a reader goroutine executing requests, a
// writer goroutine owning the send side, and one forwarder per
// subscription.
type conn struct {
	srv *Server
	nc  net.Conn

	out  chan outFrame
	done chan struct{}

	closeOnce sync.Once

	// sync is set during the handshake when the peer's Hello carried
	// HelloSyncDiffs: successful mutating requests are answered with the
	// operation's diffs instead of a bare ack.
	sync bool
	// checksum is set when the Hello carried HelloChecksum: inbound frames
	// are verified and every outbound frame after the Welcome is sealed
	// with a CRC32-C trailer. Written before the Welcome is queued, so the
	// writer observes it through the channel's happens-before edge.
	checksum bool
	// trace is set when the Hello carried HelloTrace: the Welcome grows a
	// flags byte echoing WelcomeTrace, TraceCtx/TracesReq frames are
	// accepted, and Diffs replies carry the tick-phase trailer. Written
	// before the Welcome is queued (same happens-before as checksum).
	trace bool
	// pendTraceID/pendSpanID hold the context of the last TraceCtx frame,
	// consumed by the next request. Reader-goroutine only: TraceCtx and
	// the request it annotates arrive on the same readLoop.
	pendTraceID uint64
	pendSpanID  uint64

	mu   sync.Mutex
	subs map[uint32]*cpm.Subscription
}

func newConn(s *Server, nc net.Conn) *conn {
	return &conn{
		srv:  s,
		nc:   nc,
		out:  make(chan outFrame, s.opts.WriteQueue),
		done: make(chan struct{}),
		subs: make(map[uint32]*cpm.Subscription),
	}
}

// close tears the connection down from any goroutine: the socket unblocks
// the reader, done unblocks the writer and the forwarders, and closing the
// subscriptions unblocks their hub pumps.
func (c *conn) close() {
	c.closeOnce.Do(func() {
		close(c.done)
		c.nc.Close()
		c.mu.Lock()
		subs := c.subs
		c.subs = nil
		c.mu.Unlock()
		for _, sub := range subs {
			sub.Close()
		}
		c.srv.met.subsActive.Add(-int64(len(subs)))
	})
}

// send queues one outbound frame, blocking while the writer drains —
// that blocking is the backpressure path described in the package comment.
// It reports false once the connection is closing.
func (c *conn) send(f outFrame) bool {
	select {
	case c.out <- f:
		return true
	case <-c.done:
		return false
	}
}

// serve runs the connection to completion.
func (c *conn) serve() {
	defer c.srv.removeConn(c)

	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		c.writeLoop()
	}()

	err := c.readLoop()
	// Close before waiting: the writer (and the forwarders) exit via done.
	c.close()
	wg.Wait()
	c.srv.met.connsActive.Add(-1)
	c.srv.met.connsClosed.Inc()
	if err != nil && !errors.Is(err, io.EOF) && !errors.Is(err, net.ErrClosed) {
		var nerr net.Error
		if !errors.As(err, &nerr) || !nerr.Timeout() {
			c.srv.met.protocolErrors.Inc()
		}
		c.srv.logf("server: %s: %v", c.nc.RemoteAddr(), err)
	}
}

// readLoop decodes and executes request frames until the connection dies.
// The slices of the Tick frames it decodes are carved from its own arena.
func (c *conn) readLoop() error {
	var a wire.Arena
	r := wire.NewReader(c.nc)

	// The handshake comes first: exactly one Hello, which must arrive
	// within HandshakeTimeout — a connection that never speaks would
	// otherwise pin this goroutine (and its socket) forever.
	if d := c.srv.opts.HandshakeTimeout; d > 0 {
		c.nc.SetReadDeadline(time.Now().Add(d))
	}
	t, payload, err := r.Next()
	if err != nil {
		var nerr net.Error
		if errors.As(err, &nerr) && nerr.Timeout() {
			c.srv.met.handshakeTimeouts.Inc()
		}
		return err
	}
	c.srv.met.framesIn.Inc()
	if t != wire.FrameHello {
		return errors.New("first frame is not hello")
	}
	flags, err := wire.DecodeHello(payload)
	if err != nil {
		return err
	}
	if flags&wire.HelloSyncDiffs != 0 {
		c.sync = true
		// Flip the whole server into sync mode: the monitor buffers every
		// operation's diffs from here on, and every mutating handler
		// drains that buffer (see handle), so it never grows unbounded.
		c.srv.monMu.Lock()
		c.srv.syncMode = true
		c.srv.mon.KeepDiffs(true)
		c.srv.mon.TakeDiffs() // discard anything predating this connection
		c.srv.monMu.Unlock()
	}
	if flags&wire.HelloChecksum != 0 {
		c.checksum = true
		r.EnableChecksum()
	}
	if flags&wire.HelloTrace != 0 {
		c.trace = true
	}
	// Handshake done: established connections may idle indefinitely —
	// but a frame whose header arrived must finish within the handshake
	// bound. The CRC trailer cannot cover the length prefix, so a
	// corrupted length overstating the body would otherwise pin this
	// reader on bytes that never come.
	c.nc.SetReadDeadline(time.Time{})
	if d := c.srv.opts.HandshakeTimeout; d > 0 {
		r.ArmBody(func(owed bool) {
			if owed {
				c.nc.SetReadDeadline(time.Now().Add(d))
			} else {
				c.nc.SetReadDeadline(time.Time{})
			}
		})
	}
	if !c.send(outFrame{kind: outWelcome, seq: c.srv.instance}) {
		return nil
	}
	c.srv.logf("server: %s: connected", c.nc.RemoteAddr())

	for {
		t, payload, err := r.Next()
		if err != nil {
			return err
		}
		c.srv.met.framesIn.Inc()
		if err := c.handle(&a, t, payload); err != nil {
			return err
		}
	}
}

// handle executes one request frame, decoding a Tick's slices into a.
// Monitor errors become error acks (the stream stays up); protocol errors
// are returned and kill the connection.
func (c *conn) handle(a *wire.Arena, t wire.FrameType, payload []byte) error {
	s := c.srv
	switch t {
	case wire.FrameBootstrap:
		reqID, objs, err := wire.DecodeBootstrap(payload)
		if err != nil {
			return err
		}
		m := make(map[model.ObjectID]cpm.Point, len(objs))
		for _, o := range objs {
			m[o.ID] = o.Pos
		}
		errMsg := ""
		var diffs []model.ResultDiff
		sp := c.opSpan("bootstrap")
		start := time.Now()
		func() {
			// Bootstrap panics on a second call by contract; a remote
			// client must not be able to crash the server with it.
			defer func() {
				if r := recover(); r != nil {
					errMsg = "bootstrap rejected: population already loaded"
				}
			}()
			s.monMu.Lock()
			defer s.monMu.Unlock()
			defer func() { diffs = c.drainDiffs() }()
			s.mon.Bootstrap(m)
		}()
		s.met.handleBootstrap.ObserveSince(start)
		sp.Finish()
		c.mutReply(reqID, errMsg, diffs)

	case wire.FrameTick:
		reqID, b, err := a.DecodeTick(payload)
		if err != nil {
			return err
		}
		sp := c.opSpan("tick")
		start := time.Now()
		s.monMu.Lock()
		opStart := time.Now() // tick proper: lock wait excluded
		s.setOpSpan(sp)
		s.mon.Tick(b)
		s.setOpSpan(nil)
		cycleNs := s.mon.LastCycleNanos()
		ph := s.mon.LastPhases()
		diffs := c.drainDiffs()
		s.monMu.Unlock()
		s.met.handleTick.ObserveSince(start)
		s.met.cycle.Observe(time.Duration(cycleNs))
		s.met.observePhases(ph)
		tickSpans(sp, opStart, ph)
		sp.Finish()
		c.mutReplyPhases(reqID, "", diffs, ph)

	case wire.FrameRegister:
		reqID, reg, err := wire.DecodeRegister(payload)
		if err != nil {
			return err
		}
		sp := c.opSpan("register")
		start := time.Now()
		s.monMu.Lock()
		s.setOpSpan(sp)
		rerr := s.register(reg)
		s.setOpSpan(nil)
		diffs := c.drainDiffs()
		s.monMu.Unlock()
		s.met.handleRegister.ObserveSince(start)
		sp.Finish()
		c.mutReplyErr(reqID, rerr, diffs)

	case wire.FrameMoveQuery:
		reqID, id, pts, err := wire.DecodeMoveQuery(payload)
		if err != nil {
			return err
		}
		sp := c.opSpan("movequery")
		s.monMu.Lock()
		s.setOpSpan(sp)
		rerr := s.mon.MoveQuery(id, pts...)
		s.setOpSpan(nil)
		diffs := c.drainDiffs()
		s.monMu.Unlock()
		sp.Finish()
		c.mutReplyErr(reqID, rerr, diffs)

	case wire.FrameRemoveQuery:
		reqID, id, err := wire.DecodeRemoveQuery(payload)
		if err != nil {
			return err
		}
		sp := c.opSpan("removequery")
		s.monMu.Lock()
		s.setOpSpan(sp)
		s.mon.RemoveQuery(id)
		s.setOpSpan(nil)
		diffs := c.drainDiffs()
		s.monMu.Unlock()
		sp.Finish()
		c.mutReply(reqID, "", diffs)

	case wire.FrameReset:
		reqID, err := wire.DecodeReset(payload)
		if err != nil {
			return err
		}
		s.monMu.Lock()
		s.mon.Reset()
		c.drainDiffs() // discard the terminal removal diffs
		s.monMu.Unlock()
		c.ack(reqID, "")

	case wire.FrameResultReq:
		reqID, id, err := wire.DecodeResultReq(payload)
		if err != nil {
			return err
		}
		sp := c.opSpan("result")
		start := time.Now()
		s.monMu.Lock()
		snap := s.mon.Snapshot(id)
		s.monMu.Unlock()
		s.met.handleResult.ObserveSince(start)
		sp.Finish()
		c.send(outFrame{kind: outResult, reqID: reqID, query: id, live: snap[0].Live, res: snap[0].Result})

	case wire.FrameSubscribe:
		reqID, sub, err := wire.DecodeSubscribe(payload)
		if err != nil {
			return err
		}
		start := time.Now()
		serr := c.subscribe(reqID, sub)
		s.met.handleSubscribe.ObserveSince(start)
		return serr

	case wire.FrameStatsReq:
		reqID, err := wire.DecodeStatsReq(payload)
		if err != nil {
			return err
		}
		c.send(outFrame{kind: outStats, reqID: reqID, stats: s.met.snapshotWire()})

	case wire.FrameUnsubscribe:
		reqID, subID, err := wire.DecodeUnsubscribe(payload)
		if err != nil {
			return err
		}
		c.mu.Lock()
		sub := c.subs[subID]
		delete(c.subs, subID)
		c.mu.Unlock()
		if sub == nil {
			c.ack(reqID, "unknown subscription")
			break
		}
		sub.Close() // the forwarder exits when the events channel closes
		s.met.subsActive.Add(-1)
		c.ack(reqID, "")

	case wire.FrameTraceCtx:
		if !c.trace {
			return errors.New("tracectx on a connection without the tracing extension")
		}
		tid, sid, err := wire.DecodeTraceCtx(payload)
		if err != nil {
			return err
		}
		c.pendTraceID, c.pendSpanID = tid, sid

	case wire.FrameTracesReq:
		if !c.trace {
			return errors.New("tracesreq on a connection without the tracing extension")
		}
		reqID, tid, err := wire.DecodeTracesReq(payload)
		if err != nil {
			return err
		}
		var doc []byte
		if tid == 0 {
			doc = s.tracer.MarshalTraces()
		} else if tr, ok := s.tracer.Trace(tid); ok {
			doc, _ = json.Marshal(tr)
		} else {
			doc = []byte("null")
		}
		c.send(outFrame{kind: outTraces, reqID: reqID, raw: doc})

	default:
		return errors.New("unexpected frame " + t.String())
	}
	return nil
}

// opSpan opens the server-side span for one request: joining the
// client's trace when a TraceCtx frame preceded the request, or making a
// fresh head-sampling decision otherwise. Pending context is consumed
// either way (it applies to exactly one request). Returns nil when
// tracing is off or the op is unsampled — every span method no-ops on
// nil, so handlers use the result unconditionally.
func (c *conn) opSpan(name string) *tracing.Span {
	tid, sid := c.pendTraceID, c.pendSpanID
	c.pendTraceID, c.pendSpanID = 0, 0
	t := c.srv.tracer
	if tid != 0 {
		return t.StartRemote(name, tracing.Context{TraceID: tid, SpanID: sid})
	}
	return t.StartRoot(name)
}

// tickSpans attaches the engine's phase decomposition to a tick span as
// child spans. The phases are durations, not timestamps: relocate, re-eval
// and query-update ran back to back from opStart, and diff derivation
// overlapped them, so the children are laid out sequentially with diff
// anchored at the start.
func tickSpans(sp *tracing.Span, opStart time.Time, ph model.PhaseNanos) {
	if sp == nil {
		return
	}
	at := opStart
	for _, c := range []struct {
		name string
		ns   int64
	}{{"relocate", ph.Relocate}, {"reeval", ph.Reeval}, {"queryupd", ph.QueryUpd}} {
		d := time.Duration(c.ns)
		sp.ChildAt(c.name, at, d)
		at = at.Add(d)
	}
	if ph.Diff > 0 {
		sp.ChildAt("diff", opStart, time.Duration(ph.Diff))
	}
}

// subscribe opens a subscription: under one monitor lock it subscribes to
// the hub and captures the re-sync snapshots, so no processing cycle can
// slip between snapshot state and the first live event. The queue order —
// ack, reset gap, snapshots, live events — is the client's resume
// contract.
func (c *conn) subscribe(reqID uint64, sub wire.Subscribe) error {
	s := c.srv
	c.mu.Lock()
	taken := c.subs != nil && c.subs[sub.SubID] != nil
	c.mu.Unlock()
	if taken {
		c.ack(reqID, "subscription id in use")
		return nil
	}

	reset := sub.Reset || len(sub.Resume) > 0
	opts := cpm.SubscribeOptions{Buffer: int(sub.Buffer), Policy: subscribePolicy(sub.Policy)}
	var (
		nsub  *cpm.Subscription
		snaps []cpm.QuerySnapshot
	)
	s.monMu.Lock()
	nsub = s.mon.SubscribeWith(opts, sub.Queries...)
	if reset || sub.Snapshot {
		snaps = s.resyncSnapshots(sub)
	}
	s.monMu.Unlock()

	c.mu.Lock()
	if c.subs == nil { // connection already closing
		c.mu.Unlock()
		nsub.Close()
		return nil
	}
	c.subs[sub.SubID] = nsub
	c.mu.Unlock()
	s.met.subscribes.Inc()
	s.met.subsActive.Add(1)

	c.ack(reqID, "")
	if reset {
		// The reset marker: sequence numbering restarts, snapshots follow.
		var from uint64
		resumeAt := make(map[model.QueryID]uint64, len(sub.Resume))
		for _, rp := range sub.Resume {
			resumeAt[rp.Query] = rp.Seq
			if rp.Seq > from {
				from = rp.Seq
			}
		}
		c.send(outFrame{kind: outGap, subID: sub.SubID, from: from, to: 0})
		for _, qs := range snaps {
			c.send(outFrame{kind: outSnapshot, subID: sub.SubID, query: qs.Query,
				live: qs.Live, seq: resumeAt[qs.Query], res: qs.Result})
		}
	} else {
		for _, qs := range snaps {
			c.send(outFrame{kind: outSnapshot, subID: sub.SubID, query: qs.Query,
				live: qs.Live, res: qs.Result})
		}
	}
	go c.forward(sub.SubID, nsub)
	return nil
}

// forward pumps one subscription's events into the writer queue, marking
// sequence gaps (the hub dropped or coalesced events past this consumer)
// with an explicit Gap frame.
func (c *conn) forward(subID uint32, sub *cpm.Subscription) {
	var last uint64
	for {
		select {
		case ev, ok := <-sub.Events():
			if !ok {
				return
			}
			if ev.Seq != last+1 {
				// The hub shed events past this consumer: the sequence
				// jump is exactly how many were lost.
				if ev.Seq > last+1 {
					c.srv.met.hubDropped.Add(int64(ev.Seq - last - 1))
				}
				if !c.send(outFrame{kind: outGap, subID: subID, from: last, to: ev.Seq}) {
					return
				}
			}
			last = ev.Seq
			if !c.send(outFrame{kind: outEvent, subID: subID, seq: ev.Seq, diff: ev.ResultDiff}) {
				return
			}
		case <-c.done:
			return
		}
	}
}

// ack queues a response ack; empty msg means success.
func (c *conn) ack(reqID uint64, msg string) { c.send(outFrame{kind: outAck, reqID: reqID, errs: msg}) }

// drainDiffs empties the monitor's sync-diffs buffer (caller holds monMu).
// It drains on every mutating operation once the server is in sync mode —
// whichever connection the operation came from — so the buffer stays
// bounded; the result is only sent back on sync connections.
func (c *conn) drainDiffs() []model.ResultDiff {
	if !c.srv.syncMode {
		return nil
	}
	return c.srv.mon.TakeDiffs()
}

// mutReply answers a mutating request: the operation's diffs on a
// successful sync connection, a plain ack otherwise.
func (c *conn) mutReply(reqID uint64, errMsg string, diffs []model.ResultDiff) {
	c.mutReplyPhases(reqID, errMsg, diffs, model.PhaseNanos{})
}

// mutReplyPhases is mutReply carrying a tick-phase trailer; the trailer
// reaches the wire only on trace-negotiated connections (appendSealed).
func (c *conn) mutReplyPhases(reqID uint64, errMsg string, diffs []model.ResultDiff, ph model.PhaseNanos) {
	if c.sync && errMsg == "" {
		c.send(outFrame{kind: outDiffs, reqID: reqID, diffs: diffs, phases: ph})
		return
	}
	c.ack(reqID, errMsg)
}

func (c *conn) mutReplyErr(reqID uint64, err error, diffs []model.ResultDiff) {
	if err != nil {
		c.mutReply(reqID, err.Error(), diffs)
		return
	}
	c.mutReply(reqID, "", diffs)
}

// writeLoop owns the socket's send side: it encodes queued frames into one
// reused buffer — so steady-state event delivery allocates nothing — and
// coalesces bursts into single writes. Every flush runs under
// WriteTimeout: a peer with a full TCP window (stalled reader) would
// otherwise block Write forever, and the send backpressure behind it would
// wedge the forwarders and the request handler too. On expiry the deferred
// close tears the whole connection down.
func (c *conn) writeLoop() {
	defer c.close()
	met := c.srv.met
	var buf []byte
	for {
		select {
		case f := <-c.out:
			c.countOut(f)
			buf = c.appendSealed(buf[:0], f)
			// Coalesce whatever else is already queued into this write.
		coalesce:
			for len(buf) < 1<<16 {
				select {
				case g := <-c.out:
					c.countOut(g)
					buf = c.appendSealed(buf, g)
				default:
					break coalesce
				}
			}
			if d := c.srv.opts.WriteTimeout; d > 0 {
				c.nc.SetWriteDeadline(time.Now().Add(d))
			}
			if _, err := c.nc.Write(buf); err != nil {
				var nerr net.Error
				if errors.As(err, &nerr) && nerr.Timeout() {
					met.writeTimeouts.Inc()
				}
				return
			}
		case <-c.done:
			return
		}
	}
}

// countOut attributes one outbound frame to the frame/event/gap counters.
func (c *conn) countOut(f outFrame) {
	met := c.srv.met
	met.framesOut.Inc()
	switch f.kind {
	case outEvent:
		met.eventsOut.Inc()
	case outGap:
		met.gapFrames.Inc()
	}
}

// appendSealed encodes one queued frame, adding the CRC trailer on
// checksum connections. The Welcome is exempt: it completes the handshake
// that negotiates the mode.
func (c *conn) appendSealed(buf []byte, f outFrame) []byte {
	mark := len(buf)
	switch {
	case f.kind == outWelcome && c.trace:
		// The flags byte is version-negotiated: only clients that sent
		// HelloTrace get it (an old client would reject trailing bytes).
		buf = wire.AppendWelcomeFlags(buf, f.seq, wire.WelcomeTrace)
	case f.kind == outDiffs && c.trace:
		buf = wire.AppendDiffsPhases(buf, f.reqID, f.diffs, f.phases)
	default:
		buf = appendOut(buf, f)
	}
	if c.checksum && f.kind != outWelcome {
		buf = wire.Seal(buf, mark)
	}
	return buf
}

// appendOut encodes one queued frame.
func appendOut(buf []byte, f outFrame) []byte {
	switch f.kind {
	case outWelcome:
		return wire.AppendWelcome(buf, f.seq)
	case outAck:
		return wire.AppendAck(buf, f.reqID, f.errs)
	case outResult:
		return wire.AppendResult(buf, f.reqID, f.query, f.live, f.res)
	case outEvent:
		return wire.AppendEvent(buf, f.subID, f.seq, f.diff)
	case outSnapshot:
		return wire.AppendSnapshot(buf, wire.Snapshot{
			SubID: f.subID, Query: f.query, Live: f.live, ResumeSeq: f.seq, Result: f.res,
		})
	case outGap:
		return wire.AppendGap(buf, wire.Gap{SubID: f.subID, From: f.from, To: f.to})
	case outStats:
		return wire.AppendStats(buf, f.reqID, f.stats)
	case outDiffs:
		return wire.AppendDiffs(buf, f.reqID, f.diffs)
	case outTraces:
		return wire.AppendTraces(buf, f.reqID, f.raw)
	default:
		return buf
	}
}
