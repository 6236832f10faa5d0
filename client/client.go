// Package client is the Go client of the CPM network serving layer: it
// dials a server (internal/server, hosted by cmd/cpmserver), mirrors the
// cpm.Monitor API over the wire — Bootstrap, Register*, MoveQuery,
// RemoveQuery, Tick, Result — and consumes the push-based result-diff
// stream through Subscribe, surviving connection loss transparently.
//
// # Reconnect and resume
//
// When the connection drops, the client reconnects with exponential
// backoff and re-establishes every open subscription, presenting the last
// event sequence number it saw per query. The server answers with an
// explicit reset marker (EventGap with Seq 0) followed by one
// EventSnapshot per query carrying the full current result — terminated
// queries come back with Kind DiffRemove — and then resumes the live diff
// stream. A consumer that folds snapshots in as state replacements
// therefore never silently misses a transition, even across crashes of the
// link (the paper's monitoring guarantee, extended over the network).
//
// Requests issued while the link is down wait for the reconnect (bounded
// by Options.ReconnectWait). A request whose connection dies mid-flight
// returns ErrDisconnected without an automatic retry: the client cannot
// know whether the server applied it, and replaying a Tick would
// double-apply the batch. Idempotent callers can simply retry themselves.
//
// # Concurrency
//
// All methods are safe for concurrent use. Events are delivered per
// subscription, in order, through a buffer of Options.Buffer events (a
// ring that starts small and doubles on demand); a consumer that stops
// reading eventually backpressures the socket, at which point the
// server-side policy (DropOldest or CoalesceLatest) sheds events and the
// stream carries an explicit gap marker instead.
//
// # Ownership of delivered diffs
//
// The read loop decodes Event frames, and the sync-diffs answers of the
// *Diffs methods, into an arena of its own: the slices of a delivered
// diff — Entered, Exited, Reranked, Result — are carved from chunks
// shared with the diffs around it, never reused. They are read-only; each
// has cap == len, so an append reallocates instead of writing into a
// neighbour; and holding one keeps its whole chunk alive, so a consumer
// that retains results indefinitely copies what it keeps — the contract
// of the in-process cpm.ResultEvent.
//
// A request's call record is recycled once its response has been copied
// out, so a warm round trip allocates nothing of its own. The recycling
// covers the record only: the slices of a response keep the arena
// ownership above.
package client

import (
	"errors"
	"fmt"
	"math/rand"
	"net"
	"sync"
	"time"

	"cpm"
	"cpm/internal/wire"
)

var (
	// ErrClosed is returned by every method after Close.
	ErrClosed = errors.New("client: closed")
	// ErrDisconnected is returned by a request whose connection died
	// mid-flight (the server may or may not have applied it), or that
	// found no connection within Options.ReconnectWait.
	ErrDisconnected = errors.New("client: disconnected")
)

// ErrUnsent refines ErrDisconnected for requests that provably never
// reached the wire: no connection came up within ReconnectWait, or the
// connection turned over before the request was written. Unlike a
// mid-flight ErrDisconnected, the server definitely did not apply the
// operation, so retrying cannot double-apply it — the cluster coordinator
// relies on this to decide between replaying a batch and resetting a
// worker. errors.Is(err, ErrDisconnected) remains true.
var ErrUnsent = fmt.Errorf("%w (request never sent)", ErrDisconnected)

// Options tune a Client. The zero value is ready for use.
type Options struct {
	// DialTimeout bounds each connection attempt (default 5s).
	DialTimeout time.Duration
	// Dialer, when set, replaces net.DialTimeout("tcp", …) for every
	// connection attempt — the hook a fault-injection harness (or a
	// custom transport) uses to interpose on the client's links.
	Dialer func(addr string, timeout time.Duration) (net.Conn, error)
	// ReconnectWait bounds how long a request waits for a live connection
	// before failing with ErrDisconnected (default 30s).
	ReconnectWait time.Duration
	// Backoff scales the reconnect delay: attempt n sleeps a uniformly
	// random ("full jitter") duration in (0, min(Backoff·2ⁿ, MaxBackoff)],
	// so the coordinator and a crowd of subscribers redialing a restarted
	// server spread out instead of arriving in synchronized waves.
	// Defaults: Backoff 50ms, MaxBackoff 2s.
	Backoff    time.Duration
	MaxBackoff time.Duration
	// Buffer is the client-side per-subscription delivery buffer in events
	// (default 256). It is allocated on demand: a consumer that keeps up
	// never holds more than a few dozen slots.
	Buffer int
	// SocketReadBuffer, when positive, sets the connection's kernel
	// receive-buffer size (SetReadBuffer). Shrinking it makes
	// slow-consumer backpressure reproducible in tests; leave 0 for the
	// OS default in production.
	SocketReadBuffer int
	// SyncDiffs requests sync-diffs mode in the handshake: the server
	// answers every successful mutating request with the result diffs it
	// produced, surfaced through the *Diffs method variants
	// (TickDiffsPhases, RegisterDefDiffs, …). The cluster coordinator runs
	// its worker connections in this mode.
	SyncDiffs bool
	// Checksum negotiates CRC32-C frame trailers in the handshake: every
	// post-handshake frame in both directions carries a checksum the
	// receiver verifies, so a link that corrupts bytes produces an
	// explicit connection error instead of silently wrong decoded values.
	// The cluster coordinator runs its worker connections in this mode;
	// trusted LAN/localhost links can leave it off.
	Checksum bool
	// Trace negotiates the distributed-tracing extension in the
	// handshake: SetTrace stamps the next request with trace context, the
	// server's Diffs replies carry the tick-phase trailer (surfaced by
	// TickDiffsPhases), and ServerTraces polls the server's trace flight
	// recorder. Against an old server the Welcome carries no flags byte
	// and the client silently degrades: context is not sent, phases come
	// back zero.
	Trace bool
	// FrameTimeout bounds how long a frame body may take to arrive once
	// its header has been read (default 10s, negative disables). An idle
	// connection may wait forever between frames, but a started frame
	// must finish: the CRC trailer cannot protect the length prefix
	// itself, and a corrupted length that overstates the body would
	// otherwise leave the read loop blocked on bytes that never come —
	// wedging every in-flight request without ever surfacing an error.
	FrameTimeout time.Duration
	// OnConnect, when set, is called after every completed handshake —
	// the first dial and every reconnect — with the server's instance
	// identifier from the Welcome frame. A changed instance means the
	// server restarted and lost its state. The callback runs on the
	// dialing goroutine before any request is released; keep it fast.
	OnConnect func(instance uint64)
	// Logf, when set, receives reconnect diagnostics.
	Logf func(format string, args ...any)
}

func (o *Options) defaults() {
	if o.DialTimeout <= 0 {
		o.DialTimeout = 5 * time.Second
	}
	if o.ReconnectWait <= 0 {
		o.ReconnectWait = 30 * time.Second
	}
	if o.Backoff <= 0 {
		o.Backoff = 50 * time.Millisecond
	}
	if o.MaxBackoff <= 0 {
		o.MaxBackoff = 2 * time.Second
	}
	if o.Buffer <= 0 {
		o.Buffer = 256
	}
	if o.FrameTimeout == 0 {
		o.FrameTimeout = 10 * time.Second
	}
}

// call is one in-flight request: the record the read loop fills and
// signals. Records are recycled through Client.free; done is 1-buffered
// and sent on exactly once per use, by whoever takes the record off
// pending.
type call struct {
	done chan struct{}
	response
}

// response is what a round trip hands back, by value: the record it came
// in is recycled before the caller reads it.
type response struct {
	err error
	// Result response (ResultReq only).
	live bool
	res  []cpm.Neighbor
	// Stats response (StatsReq only).
	stats []wire.Stat
	// Diffs response (mutating requests on a SyncDiffs connection).
	diffs []cpm.ResultDiff
	// Tick-phase trailer of a Diffs response (Trace connections only).
	phases cpm.PhaseNanos
	// Traces response (TracesReq only): the recorder's JSON document.
	traces []byte
}

// Client is a connection to a CPM server. Create one with Dial.
type Client struct {
	addr string
	opts Options

	mu      sync.Mutex
	nc      net.Conn      // current connection; nil while down
	up      chan struct{} // closed when a connection is (re-)established
	closed  bool
	nextReq uint64
	nextSub uint32
	pending map[uint64]*call
	free    []*call // recycled call records
	subs    map[uint32]*Subscription
	// instance is the server identifier from the latest Welcome.
	instance uint64
	// traceOK records whether the latest handshake negotiated the
	// tracing extension (the server echoed WelcomeTrace).
	traceOK bool
	// pendTraceID/pendSpanID hold trace context set by SetTrace, consumed
	// by the next request sent (prepended as a TraceCtx frame).
	pendTraceID uint64
	pendSpanID  uint64

	wbuf []byte // reused encode buffer; guarded by mu

	// Reconnect-schedule hooks: rng draws the jittered delays (guarded by
	// mu), sleep pauses between attempts. Tests substitute both to verify
	// the schedule against a fake clock.
	rng   *rand.Rand
	sleep func(time.Duration)
}

// Dial connects to a server. The first connection is established
// synchronously, so a bad address fails here rather than on first use;
// afterwards the client heals connection loss by itself.
func Dial(addr string, opts Options) (*Client, error) {
	opts.defaults()
	c := &Client{
		addr:    addr,
		opts:    opts,
		up:      make(chan struct{}),
		pending: make(map[uint64]*call),
		subs:    make(map[uint32]*Subscription),
		rng:     rand.New(rand.NewSource(time.Now().UnixNano())),
		sleep:   time.Sleep,
	}
	nc, err := c.dialOnce()
	if err != nil {
		return nil, err
	}
	c.mu.Lock()
	c.install(nc)
	c.mu.Unlock()
	return c, nil
}

// dialOnce establishes and handshakes one connection.
func (c *Client) dialOnce() (net.Conn, error) {
	dial := c.opts.Dialer
	if dial == nil {
		dial = func(addr string, timeout time.Duration) (net.Conn, error) {
			return net.DialTimeout("tcp", addr, timeout)
		}
	}
	nc, err := dial(c.addr, c.opts.DialTimeout)
	if err != nil {
		return nil, err
	}
	if tc, ok := nc.(*net.TCPConn); ok {
		tc.SetNoDelay(true)
		if c.opts.SocketReadBuffer > 0 {
			tc.SetReadBuffer(c.opts.SocketReadBuffer)
		}
	}
	var flags uint8
	if c.opts.SyncDiffs {
		flags |= wire.HelloSyncDiffs
	}
	if c.opts.Checksum {
		flags |= wire.HelloChecksum
	}
	if c.opts.Trace {
		flags |= wire.HelloTrace
	}
	if _, err := nc.Write(wire.AppendHello(nil, flags)); err != nil {
		nc.Close()
		return nil, err
	}
	r := wire.NewReader(nc)
	nc.SetReadDeadline(time.Now().Add(c.opts.DialTimeout))
	t, payload, err := r.Next()
	if err != nil {
		nc.Close()
		return nil, err
	}
	nc.SetReadDeadline(time.Time{})
	if t != wire.FrameWelcome {
		nc.Close()
		return nil, fmt.Errorf("client: handshake got %v", t)
	}
	instance, wflags, err := wire.DecodeWelcome(payload)
	if err != nil {
		nc.Close()
		return nil, err
	}
	c.mu.Lock()
	c.instance = instance
	c.traceOK = wflags&wire.WelcomeTrace != 0
	c.mu.Unlock()
	if c.opts.OnConnect != nil {
		c.opts.OnConnect(instance)
	}
	return nc, nil
}

// InstanceID returns the server instance identifier from the most recent
// handshake (0 before the first, or against a server that predates the
// field). A change between reconnects means the server restarted.
func (c *Client) InstanceID() uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.instance
}

// Connected reports whether a connection is up right now. Unlike a
// request, it never waits for the reconnect loop.
func (c *Client) Connected() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.nc != nil
}

// install adopts a fresh connection (caller holds mu): it becomes current,
// waiters are released and its read loop starts.
func (c *Client) install(nc net.Conn) {
	c.nc = nc
	close(c.up)
	go c.readLoop(nc)
}

// logf logs through Options.Logf when set.
func (c *Client) logf(format string, args ...any) {
	if c.opts.Logf != nil {
		c.opts.Logf(format, args...)
	}
}

// Close shuts the client down: the connection closes, every subscription's
// Events channel closes, and every blocked request fails.
func (c *Client) Close() error {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil
	}
	c.closed = true
	nc := c.nc
	c.nc = nil
	c.failPendingLocked(ErrClosed)
	subs := c.subs
	c.subs = nil
	c.mu.Unlock()
	if nc != nil {
		nc.Close()
	}
	for _, s := range subs {
		s.shutdown()
	}
	return nil
}

// failPendingLocked fails every in-flight request (caller holds mu).
func (c *Client) failPendingLocked(err error) {
	for id, cl := range c.pending {
		cl.err = err
		cl.done <- struct{}{}
		delete(c.pending, id)
	}
}

// connLost reacts to a dead connection: if nc is still current, in-flight
// requests fail, the up gate rearms and the reconnect loop starts.
func (c *Client) connLost(nc net.Conn, err error) {
	nc.Close()
	c.mu.Lock()
	if c.closed || c.nc != nc {
		c.mu.Unlock()
		return
	}
	c.nc = nil
	c.up = make(chan struct{})
	c.failPendingLocked(ErrDisconnected)
	c.mu.Unlock()
	c.logf("client: connection lost: %v; reconnecting", err)
	go c.reconnect()
}

// backoffDelay computes the delay before reconnect attempt (attempt ≥ 1,
// i.e. after attempt failures) under full jitter: uniform in
// (0, min(base·2^(attempt-1), max)]. Randomizing the whole interval — not
// just a fringe around the exponential — is what desynchronizes a
// thundering herd of clients that all lost the same server at the same
// moment, while the exponential ceiling still bounds the aggregate dial
// rate.
func backoffDelay(rng *rand.Rand, base, max time.Duration, attempt int) time.Duration {
	ceil := base
	for i := 1; i < attempt && ceil < max; i++ {
		ceil *= 2
	}
	if ceil > max {
		ceil = max
	}
	if ceil <= 0 {
		return 0
	}
	return 1 + time.Duration(rng.Int63n(int64(ceil)))
}

// nextDelay draws the jittered delay for the given failed-attempt count.
func (c *Client) nextDelay(attempt int) time.Duration {
	c.mu.Lock()
	defer c.mu.Unlock()
	return backoffDelay(c.rng, c.opts.Backoff, c.opts.MaxBackoff, attempt)
}

// reconnect dials with jittered exponential backoff until it succeeds (or
// the client closes), then re-establishes every open subscription with
// its resume points before releasing waiting requests.
func (c *Client) reconnect() {
	for attempt := 1; ; attempt++ {
		c.mu.Lock()
		if c.closed {
			c.mu.Unlock()
			return
		}
		c.mu.Unlock()

		nc, err := c.dialOnce()
		if err != nil {
			delay := c.nextDelay(attempt)
			c.logf("client: reconnect failed: %v (retrying in %v)", err, delay)
			c.sleep(delay)
			continue
		}

		// Re-subscribe before releasing requests: once a waiter's Tick
		// runs, the resumed streams must already be in place, or its
		// events would fall into the gap.
		c.mu.Lock()
		if c.closed {
			c.mu.Unlock()
			nc.Close()
			return
		}
		var frames []byte
		for id, s := range c.subs {
			// Only established subscriptions are resumed here; one whose
			// initial SubscribeWith is still in flight sends its own frame
			// once the connection is back.
			if s.established {
				mark := len(frames)
				frames = wire.AppendSubscribe(frames, 0, s.resumeFrame(id))
				if c.opts.Checksum {
					frames = wire.Seal(frames, mark)
				}
			}
		}
		c.mu.Unlock()
		if len(frames) > 0 {
			if _, err := nc.Write(frames); err != nil {
				nc.Close()
				c.logf("client: resubscribe failed: %v", err)
				continue
			}
		}
		c.mu.Lock()
		if c.closed {
			c.mu.Unlock()
			nc.Close()
			return
		}
		c.install(nc)
		c.mu.Unlock()
		c.logf("client: reconnected to %s", c.addr)
		return
	}
}

// await returns the current connection, waiting up to ReconnectWait for
// the reconnect loop if the link is down.
func (c *Client) await() (net.Conn, error) {
	deadline := time.Now().Add(c.opts.ReconnectWait)
	for {
		c.mu.Lock()
		if c.closed {
			c.mu.Unlock()
			return nil, ErrClosed
		}
		if c.nc != nil {
			nc := c.nc
			c.mu.Unlock()
			return nc, nil
		}
		up := c.up
		c.mu.Unlock()
		wait := time.Until(deadline)
		if wait <= 0 {
			return nil, ErrDisconnected
		}
		select {
		case <-up:
		case <-time.After(wait):
			return nil, ErrDisconnected
		}
	}
}

// roundTrip sends one request frame (built by build with the assigned
// request id) and waits for its response. Failures before the write
// return ErrUnsent (the request never reached the wire); failures after
// it return plain ErrDisconnected (outcome unknown).
//
// The call record comes off the client's free list and goes back on it
// before roundTrip returns, with the response copied out by value. The
// response's decoded slices are not part of the record: they keep their
// arena ownership (package doc).
func (c *Client) roundTrip(build func(dst []byte, reqID uint64) []byte) (response, error) {
	nc, err := c.await()
	if err != nil {
		if errors.Is(err, ErrDisconnected) {
			return response{}, ErrUnsent
		}
		return response{}, err
	}
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return response{}, ErrClosed
	}
	if c.nc != nc {
		// The connection turned over while we were acquiring the lock.
		c.mu.Unlock()
		return response{}, ErrUnsent
	}
	c.nextReq++
	reqID := c.nextReq
	var cl *call
	if n := len(c.free); n > 0 {
		cl = c.free[n-1]
		c.free = c.free[:n-1]
	} else {
		cl = &call{done: make(chan struct{}, 1)}
	}
	c.pending[reqID] = cl
	c.wbuf = c.wbuf[:0]
	// Pending trace context rides ahead of the request as its own frame
	// (each frame sealed at its own mark); one Write keeps the pair
	// adjacent on the wire. Context set against a server that did not
	// negotiate tracing is dropped, not sent.
	if c.pendTraceID != 0 {
		if c.traceOK {
			c.wbuf = wire.AppendTraceCtx(c.wbuf, c.pendTraceID, c.pendSpanID)
			if c.opts.Checksum {
				c.wbuf = wire.Seal(c.wbuf, 0)
			}
		}
		c.pendTraceID, c.pendSpanID = 0, 0
	}
	mark := len(c.wbuf)
	c.wbuf = build(c.wbuf, reqID)
	if c.opts.Checksum {
		c.wbuf = wire.Seal(c.wbuf, mark)
	}
	// Write under mu: requests on one connection are serialized, which
	// keeps frame boundaries intact and request order deterministic.
	_, werr := nc.Write(c.wbuf)
	c.mu.Unlock()
	if werr != nil {
		// connLost signals cl along with every other pending call; the
		// record is left to the collector rather than recycled with a
		// signal in its channel.
		c.connLost(nc, werr)
		return response{}, ErrDisconnected
	}
	<-cl.done
	resp := cl.response
	cl.response = response{}
	c.mu.Lock()
	c.free = append(c.free, cl)
	c.mu.Unlock()
	return resp, resp.err
}

// ack performs a round trip whose response is a bare ack.
func (c *Client) ack(build func(dst []byte, reqID uint64) []byte) error {
	_, err := c.roundTrip(build)
	return err
}

// readLoop dispatches inbound frames of one connection until it dies. The
// slices of the Event and Diffs frames it decodes are carved from its own
// arena, a local: after a reconnect the next connection's loop starts a
// fresh one while this loop may still be inside dispatch.
func (c *Client) readLoop(nc net.Conn) {
	var a wire.Arena
	r := wire.NewReader(nc)
	if c.opts.Checksum {
		r.EnableChecksum()
	}
	if d := c.opts.FrameTimeout; d > 0 {
		r.ArmBody(func(owed bool) {
			if owed {
				nc.SetReadDeadline(time.Now().Add(d))
			} else {
				nc.SetReadDeadline(time.Time{})
			}
		})
	}
	for {
		t, payload, err := r.Next()
		if err != nil {
			c.connLost(nc, err)
			return
		}
		if err := c.dispatch(&a, t, payload); err != nil {
			c.connLost(nc, err)
			return
		}
	}
}

// dispatch routes one inbound frame: responses to their pending call,
// stream frames to their subscription. Diff slices are carved from a.
func (c *Client) dispatch(a *wire.Arena, t wire.FrameType, payload []byte) error {
	switch t {
	case wire.FrameAck:
		reqID, msg, err := wire.DecodeAck(payload)
		if err != nil {
			return err
		}
		if reqID == 0 {
			return nil // resubscribe acks carry request id 0: nobody waits
		}
		cl := c.takeCall(reqID)
		if cl == nil {
			return nil
		}
		if msg != "" {
			cl.err = errors.New(msg)
		}
		cl.done <- struct{}{}

	case wire.FrameResult:
		reqID, _, live, res, err := wire.DecodeResult(payload)
		if err != nil {
			return err
		}
		cl := c.takeCall(reqID)
		if cl == nil {
			return nil
		}
		cl.live = live
		cl.res = res
		cl.done <- struct{}{}

	case wire.FrameStats:
		reqID, stats, err := wire.DecodeStats(payload)
		if err != nil {
			return err
		}
		cl := c.takeCall(reqID)
		if cl == nil {
			return nil
		}
		cl.stats = stats
		cl.done <- struct{}{}

	case wire.FrameDiffs:
		reqID, diffs, phases, err := a.DecodeDiffsPhases(payload)
		if err != nil {
			return err
		}
		cl := c.takeCall(reqID)
		if cl == nil {
			return nil
		}
		cl.diffs = diffs
		cl.phases = phases
		cl.done <- struct{}{}

	case wire.FrameTraces:
		reqID, doc, err := wire.DecodeTraces(payload)
		if err != nil {
			return err
		}
		cl := c.takeCall(reqID)
		if cl == nil {
			return nil
		}
		cl.traces = append([]byte(nil), doc...) // doc aliases the read buffer
		cl.done <- struct{}{}

	case wire.FrameEvent:
		ev, err := a.DecodeEvent(payload)
		if err != nil {
			return err
		}
		if s := c.sub(ev.SubID); s != nil {
			s.deliver(Event{Type: EventDiff, Seq: ev.Seq, ResultDiff: ev.Diff})
		}

	case wire.FrameSnapshot:
		snap, err := wire.DecodeSnapshot(payload)
		if err != nil {
			return err
		}
		if s := c.sub(snap.SubID); s != nil {
			d := cpm.ResultDiff{Query: snap.Query, Kind: cpm.DiffUpdate, Result: snap.Result}
			if !snap.Live {
				d.Kind = cpm.DiffRemove
				d.Result = nil
			}
			s.deliver(Event{Type: EventSnapshot, ResultDiff: d})
		}

	case wire.FrameGap:
		gap, err := wire.DecodeGap(payload)
		if err != nil {
			return err
		}
		if s := c.sub(gap.SubID); s != nil {
			var lost uint64
			if gap.To > gap.From {
				lost = gap.To - gap.From - 1
			}
			s.deliver(Event{Type: EventGap, Seq: gap.To, Lost: lost})
		}

	default:
		return fmt.Errorf("client: unexpected frame %v", t)
	}
	return nil
}

// takeCall claims a pending request by id.
func (c *Client) takeCall(reqID uint64) *call {
	c.mu.Lock()
	defer c.mu.Unlock()
	cl := c.pending[reqID]
	delete(c.pending, reqID)
	return cl
}

// sub looks a subscription up by wire id.
func (c *Client) sub(id uint32) *Subscription {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.subs[id]
}

// Bootstrap loads the server monitor's initial object population. Call
// once, before registering queries or ticking.
func (c *Client) Bootstrap(objs map[cpm.ObjectID]cpm.Point) error {
	wireObjs := make([]wire.BootstrapObject, 0, len(objs))
	for id, p := range objs {
		wireObjs = append(wireObjs, wire.BootstrapObject{ID: id, Pos: p})
	}
	return c.ack(func(dst []byte, reqID uint64) []byte {
		return wire.AppendBootstrap(dst, reqID, wireObjs)
	})
}

// Tick runs one processing cycle on the server with the given update
// batch. It returns after the cycle completed (and its result diffs were
// published), so alternating Tick and Result observes the same
// cycle-consistent states an in-process monitor would.
func (c *Client) Tick(b cpm.Batch) error {
	return c.ack(func(dst []byte, reqID uint64) []byte {
		return wire.AppendTick(dst, reqID, b)
	})
}

// RegisterQuery installs a conventional k-NN query on the server.
func (c *Client) RegisterQuery(id cpm.QueryID, q cpm.Point, k int) error {
	return c.register(wire.Register{ID: id, Kind: wire.KindPoint, K: k, Points: []cpm.Point{q}})
}

// RegisterAggQuery installs an aggregate k-NN query on the server.
func (c *Client) RegisterAggQuery(id cpm.QueryID, pts []cpm.Point, k int, agg cpm.Agg) error {
	return c.register(wire.Register{ID: id, Kind: wire.KindAgg, K: k, Agg: agg, Points: pts})
}

// RegisterConstrainedQuery installs a constrained k-NN query on the
// server.
func (c *Client) RegisterConstrainedQuery(id cpm.QueryID, q cpm.Point, k int, region cpm.Rect) error {
	return c.register(wire.Register{ID: id, Kind: wire.KindConstrained, K: k, Points: []cpm.Point{q}, Region: region})
}

// RegisterRangeQuery installs a continuous range query on the server.
func (c *Client) RegisterRangeQuery(id cpm.QueryID, center cpm.Point, radius float64) error {
	return c.register(wire.Register{ID: id, Kind: wire.KindRange, Points: []cpm.Point{center}, Radius: radius})
}

func (c *Client) register(r wire.Register) error {
	return c.ack(func(dst []byte, reqID uint64) []byte {
		return wire.AppendRegister(dst, reqID, r)
	})
}

// MoveQuery relocates an installed query; pass one point per original
// query point, like cpm.Monitor.MoveQuery.
func (c *Client) MoveQuery(id cpm.QueryID, to ...cpm.Point) error {
	return c.ack(func(dst []byte, reqID uint64) []byte {
		return wire.AppendMoveQuery(dst, reqID, id, to)
	})
}

// RemoveQuery terminates a query. Unknown ids are a no-op.
func (c *Client) RemoveQuery(id cpm.QueryID) error {
	return c.ack(func(dst []byte, reqID uint64) []byte {
		return wire.AppendRemoveQuery(dst, reqID, id)
	})
}

// QueryDef is a query registration in its wire form — the generic
// definition RegisterDefDiffs accepts, covering all four query kinds. The
// cluster coordinator stores these to replay registrations onto workers.
type QueryDef = wire.Register

// diffsCall performs a round trip whose response carries the operation's
// result diffs (requires Options.SyncDiffs; on a plain connection the
// server acks and the diffs come back nil).
func (c *Client) diffsCall(build func(dst []byte, reqID uint64) []byte) ([]cpm.ResultDiff, error) {
	resp, err := c.roundTrip(build)
	return resp.diffs, err
}

// SetTrace stamps the next request this client sends with distributed-
// trace context: the request rides behind a TraceCtx frame carrying the
// ids, so the server's span for that op joins the caller's trace. The
// context applies to exactly one request and is dropped (not queued) if
// the server did not negotiate tracing. With concurrent callers, pair
// each SetTrace with its request under external serialization — the
// coordinator's per-worker mutex, or cpmload's trace token.
func (c *Client) SetTrace(traceID, spanID uint64) {
	if traceID == 0 {
		return
	}
	c.mu.Lock()
	c.pendTraceID, c.pendSpanID = traceID, spanID
	c.mu.Unlock()
}

// TickDiffsPhases is Tick returning the result diffs the cycle produced, in
// query-id order (requires Options.SyncDiffs), and the server engine's
// tick-phase decomposition (requires Options.Trace as well; zero phases
// against a server without the tracing extension).
func (c *Client) TickDiffsPhases(b cpm.Batch) ([]cpm.ResultDiff, cpm.PhaseNanos, error) {
	resp, err := c.roundTrip(func(dst []byte, reqID uint64) []byte {
		return wire.AppendTick(dst, reqID, b)
	})
	return resp.diffs, resp.phases, err
}

// ServerTraces polls the server's trace flight recorder and returns its
// contents as the JSON document /debug/traces serves (parse it with
// tracing.ParseTraces). Requires Options.Trace; a server without the
// extension rejects the request.
func (c *Client) ServerTraces() ([]byte, error) {
	resp, err := c.roundTrip(func(dst []byte, reqID uint64) []byte {
		return wire.AppendTracesReq(dst, reqID, 0)
	})
	return resp.traces, err
}

// RegisterDefDiffs installs a query from its generic wire definition and
// returns the installation diff (requires Options.SyncDiffs).
func (c *Client) RegisterDefDiffs(r QueryDef) ([]cpm.ResultDiff, error) {
	return c.diffsCall(func(dst []byte, reqID uint64) []byte {
		return wire.AppendRegister(dst, reqID, r)
	})
}

// MoveQueryDiffs is MoveQuery returning the resulting diffs (requires
// Options.SyncDiffs).
func (c *Client) MoveQueryDiffs(id cpm.QueryID, to ...cpm.Point) ([]cpm.ResultDiff, error) {
	return c.diffsCall(func(dst []byte, reqID uint64) []byte {
		return wire.AppendMoveQuery(dst, reqID, id, to)
	})
}

// RemoveQueryDiffs is RemoveQuery returning the terminal DiffRemove
// (requires Options.SyncDiffs).
func (c *Client) RemoveQueryDiffs(id cpm.QueryID) ([]cpm.ResultDiff, error) {
	return c.diffsCall(func(dst []byte, reqID uint64) []byte {
		return wire.AppendRemoveQuery(dst, reqID, id)
	})
}

// Reset wipes the server monitor back to its just-constructed state:
// every query removed, the object population discarded, Bootstrap
// allowed again. The cluster coordinator uses it to re-sync a worker
// whose state is unknown.
func (c *Client) Reset() error {
	return c.ack(func(dst []byte, reqID uint64) []byte {
		return wire.AppendReset(dst, reqID)
	})
}

// Result polls a query's full current result, ordered by (distance, id).
// Unknown ids yield nil, like cpm.Monitor.Result.
func (c *Client) Result(id cpm.QueryID) ([]cpm.Neighbor, error) {
	resp, err := c.roundTrip(func(dst []byte, reqID uint64) []byte {
		return wire.AppendResultReq(dst, reqID, id)
	})
	return resp.res, err
}

// Stat is one named metric reading returned by ServerStats.
type Stat = wire.Stat

// ServerStats polls the server's metrics registry: every counter, gauge
// and histogram percentile the /metrics endpoint exposes, as flat
// (name, value) pairs in registration order. See docs/METRICS.md for the
// meaning of each name.
func (c *Client) ServerStats() ([]Stat, error) {
	resp, err := c.roundTrip(func(dst []byte, reqID uint64) []byte {
		return wire.AppendStatsReq(dst, reqID)
	})
	return resp.stats, err
}

// Redial drops the current connection, letting the automatic reconnect
// re-establish it — a failover drill: in-flight requests fail with
// ErrDisconnected and every subscription resumes with its last-seen
// sequence numbers, exactly as after a real network failure. The
// connection is retired before Redial returns, so a request issued next
// waits for the reconnect (up to ReconnectWait) rather than writing to
// the closed socket; the read loop's own connLost is then a no-op.
func (c *Client) Redial() {
	c.mu.Lock()
	nc := c.nc
	c.mu.Unlock()
	if nc != nil {
		c.connLost(nc, errors.New("redial requested"))
	}
}

// breakConn is Redial under its test-hook name.
func (c *Client) breakConn() { c.Redial() }
