package client

import (
	"errors"
	"sync"

	"cpm"
	"cpm/internal/wire"
)

// EventType classifies the events a remote subscription delivers.
type EventType uint8

const (
	// EventDiff is a live pushed result diff, identical in content to the
	// in-process cpm.ResultEvent: entered / exited / re-ranked neighbors
	// plus the full new result.
	EventDiff EventType = iota
	// EventSnapshot carries one query's full current result during
	// (re-)sync — after Subscribe with SubscribeOptions.Snapshot, or after
	// a reconnect. Treat Result as the authoritative new state (the deltas
	// are empty); Kind is DiffRemove for a query that was terminated while
	// the client was away.
	EventSnapshot
	// EventGap marks lost events: the server dropped events past this
	// consumer (slow consumption) or the stream restarted (reconnect; Seq
	// 0). Re-sync from the next event — every diff and snapshot carries
	// the full result.
	EventGap
)

// String returns a short name for the event type.
func (t EventType) String() string {
	switch t {
	case EventDiff:
		return "diff"
	case EventSnapshot:
		return "snapshot"
	case EventGap:
		return "gap"
	default:
		return "eventtype(?)"
	}
}

// Event is one delivered stream element. For EventDiff, Seq is the
// server-side subscription sequence number (contiguous unless events were
// lost — losses are always announced by a preceding EventGap). For
// EventGap, Seq is the sequence number of the next live event (0 when the
// stream restarted after a reconnect) and Lost counts the dropped events
// when known. The embedded ResultDiff is meaningful for EventDiff and
// EventSnapshot.
type Event struct {
	Type EventType
	Seq  uint64
	Lost uint64
	cpm.ResultDiff
}

// SubscribeOptions configure a remote subscription.
type SubscribeOptions struct {
	// Buffer is the server-side per-subscription buffer in events (default
	// cpm.DefaultBuffer). The client adds its own delivery buffer
	// (Options.Buffer).
	Buffer int
	// Policy is the server-side slow-consumer policy (default
	// cpm.DropOldest).
	Policy cpm.SlowConsumerPolicy
	// Snapshot requests the full current result of every subscribed query
	// (every installed query for an unfiltered subscription) as
	// EventSnapshot events at the head of the stream, so consumers start
	// from complete state instead of polling.
	Snapshot bool
}

// Subscription is a remote diff stream. Consume Events from any goroutine;
// Close to unsubscribe. The subscription survives reconnects: the client
// re-subscribes with resume points automatically and the stream carries an
// EventGap + EventSnapshot re-sync sequence instead of silent loss.
type Subscription struct {
	c    *Client
	id   uint32
	opts SubscribeOptions
	ids  []cpm.QueryID

	out  chan Event // consumer side; closed by the pump on shutdown
	done chan struct{}
	once sync.Once

	mu sync.Mutex
	// ring is the client-side delivery buffer between the read loop and
	// the pump: a circular queue of count events starting at head, grown by
	// doubling up to limit (Options.Buffer) slots. moved wakes the pump
	// when it goes non-empty and deliver when it has room again (or the
	// subscription stops).
	ring        []Event
	head, count int
	limit       int
	stopped     bool
	moved       sync.Cond
	lastSeen    map[cpm.QueryID]uint64 // per-query last diff seq, for resume
	gaps        uint64

	// established is set (under the client's mu) once the server
	// acknowledged the initial Subscribe; the reconnect loop resubscribes
	// only established subscriptions — an in-flight SubscribeWith sends
	// its own frame when the link is back, and resubscribing it too would
	// collide on the subscription id.
	established bool
}

// Subscribe opens a diff stream for the given queries (none = every
// query) with default options.
func (c *Client) Subscribe(ids ...cpm.QueryID) (*Subscription, error) {
	return c.SubscribeWith(SubscribeOptions{}, ids...)
}

// SubscribeWith opens a diff stream with explicit options. It returns
// once the server acknowledged the subscription: events published after
// the call are in the stream.
func (c *Client) SubscribeWith(opts SubscribeOptions, ids ...cpm.QueryID) (*Subscription, error) {
	if opts.Buffer <= 0 {
		opts.Buffer = cpm.DefaultBuffer
	}
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil, ErrClosed
	}
	c.nextSub++
	s := newSubscription(c, c.nextSub, opts, ids)
	// Register before sending the frame: the server starts streaming the
	// moment it processes the subscribe, and those first events must find
	// the subscription in the dispatch table.
	c.subs[s.id] = s
	c.mu.Unlock()

	err := c.ack(func(dst []byte, reqID uint64) []byte {
		return wire.AppendSubscribe(dst, reqID, s.frame())
	})
	if err != nil {
		c.mu.Lock()
		if c.subs != nil {
			delete(c.subs, s.id)
		}
		c.mu.Unlock()
		s.shutdown()
		return nil, err
	}
	c.mu.Lock()
	s.established = true
	c.mu.Unlock()
	go s.pump()
	return s, nil
}

// initialRing is the slot count a subscription's ring starts with; a
// consumer that keeps up never needs more, whatever Options.Buffer allows.
const initialRing = 16

// newSubscription builds a subscription of client c; SubscribeWith
// registers it and starts its pump.
func newSubscription(c *Client, id uint32, opts SubscribeOptions, ids []cpm.QueryID) *Subscription {
	s := &Subscription{
		c:        c,
		id:       id,
		opts:     opts,
		ids:      append([]cpm.QueryID(nil), ids...),
		out:      make(chan Event),
		done:     make(chan struct{}),
		ring:     make([]Event, min(c.opts.Buffer, initialRing)),
		limit:    c.opts.Buffer,
		lastSeen: make(map[cpm.QueryID]uint64),
	}
	s.moved.L = &s.mu
	return s
}

// frame builds the initial Subscribe frame.
func (s *Subscription) frame() wire.Subscribe {
	return wire.Subscribe{
		SubID:    s.id,
		Buffer:   uint32(s.opts.Buffer),
		Policy:   uint8(s.opts.Policy),
		Snapshot: s.opts.Snapshot,
		Queries:  s.ids,
	}
}

// resumeFrame builds the re-subscribe frame after a reconnect: the same
// subscription with the Reset flag (the server announces the restart with
// a reset gap and re-syncs via snapshots) plus one resume point per query
// the consumer has seen. Caller holds the client's mu; takes s.mu only
// (lock order: c.mu → s.mu).
func (s *Subscription) resumeFrame(id uint32) wire.Subscribe {
	f := s.frame()
	f.SubID = id
	f.Reset = true
	f.Snapshot = true // a resumed stream always re-syncs from snapshots
	s.mu.Lock()
	f.Resume = make([]wire.ResumePoint, 0, len(s.lastSeen))
	for q, seq := range s.lastSeen {
		f.Resume = append(f.Resume, wire.ResumePoint{Query: q, Seq: seq})
	}
	s.mu.Unlock()
	return f
}

// Events returns the delivery channel. It yields events in stream order
// and closes after Close (or the client's Close).
func (s *Subscription) Events() <-chan Event { return s.out }

// Gaps returns how many gap markers this subscription has seen — loss or
// reconnect re-syncs. A monitoring dashboard reading 0 here knows it never
// missed a transition.
func (s *Subscription) Gaps() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.gaps
}

// Close unsubscribes: the server stops streaming (best effort — on a dead
// connection the server-side cleanup happens via the connection teardown),
// pending events are discarded and the Events channel closes.
func (s *Subscription) Close() error {
	c := s.c
	c.mu.Lock()
	if c.subs != nil {
		delete(c.subs, s.id)
	}
	up := !c.closed && c.nc != nil
	c.mu.Unlock()
	s.shutdown()
	if !up {
		// No live connection: the server-side subscription died (or will
		// die) with the connection, and it cannot be resubscribed — it is
		// out of the dispatch table. Nothing to tell the server.
		return nil
	}
	// Best-effort unsubscribe; lifecycle errors just mean the connection
	// teardown already cleaned up server-side.
	err := c.ack(func(dst []byte, reqID uint64) []byte {
		return wire.AppendUnsubscribe(dst, reqID, s.id)
	})
	if err != nil && !errors.Is(err, ErrClosed) && !errors.Is(err, ErrDisconnected) {
		return err
	}
	return nil
}

// shutdown stops delivery locally: buffered events are discarded, a
// blocked deliver returns and the pump closes the Events channel.
func (s *Subscription) shutdown() {
	s.once.Do(func() {
		s.mu.Lock()
		s.stopped = true
		clear(s.ring)
		s.count = 0
		s.mu.Unlock()
		s.moved.Broadcast()
		close(s.done)
	})
}

// deliver hands one event to the pump. It blocks while the client-side
// buffer holds Options.Buffer events — backpressure that eventually stalls
// the socket and triggers the server-side policy — and records stream
// position for resume.
func (s *Subscription) deliver(ev Event) {
	s.mu.Lock()
	defer s.mu.Unlock()
	switch ev.Type {
	case EventDiff:
		s.lastSeen[ev.Query] = ev.Seq
	case EventGap:
		s.gaps++
	case EventSnapshot:
		if ev.Kind == cpm.DiffRemove {
			delete(s.lastSeen, ev.Query)
		}
	}
	for s.count == s.limit && !s.stopped {
		s.moved.Wait()
	}
	if s.stopped {
		return
	}
	if s.count == len(s.ring) {
		s.grow()
	}
	s.ring[(s.head+s.count)%len(s.ring)] = ev
	s.count++
	s.moved.Broadcast()
}

// grow doubles a full ring, up to limit slots (caller holds mu).
func (s *Subscription) grow() {
	old := s.ring
	s.ring = make([]Event, min(2*len(old), s.limit))
	for i := 0; i < s.count; i++ {
		s.ring[i] = old[(s.head+i)%len(old)]
	}
	s.head = 0
}

// pump moves events from the ring to the consumer channel, in order, and
// closes it on shutdown — the only goroutine that sends on out, so the
// close is race-free. Vacated slots are zeroed so the ring does not pin
// delivered results.
func (s *Subscription) pump() {
	defer close(s.out)
	for {
		s.mu.Lock()
		for s.count == 0 && !s.stopped {
			s.moved.Wait()
		}
		if s.stopped {
			s.mu.Unlock()
			return
		}
		ev := s.ring[s.head]
		s.ring[s.head] = Event{}
		s.head = (s.head + 1) % len(s.ring)
		s.count--
		s.mu.Unlock()
		s.moved.Broadcast()
		select {
		case s.out <- ev:
		case <-s.done:
			return
		}
	}
}
