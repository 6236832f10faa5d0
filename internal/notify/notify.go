// Package notify turns the per-cycle result diffs of a CPM monitor into
// push-based delivery: subscribers register interest in some or all queries
// and receive typed events over a channel, decoupled from the processing
// loop by per-subscriber buffers with an explicit slow-consumer policy.
//
// The Hub bridges the two worlds. On the pull side the monitor's
// processing loop calls Publish once after every mutating operation with
// that operation's diffs; Publish never blocks, whatever the subscribers
// are doing. On the push side each subscription owns a pump goroutine that
// moves buffered events to its channel in order. When a subscriber falls
// behind and its buffer fills, its policy decides: DropOldest discards the
// oldest pending event (counted in Dropped, detectable via Event.Seq
// gaps), CoalesceLatest keeps only the newest pending event per query.
// Every event carries the full current result alongside the delta, so a
// subscriber can re-sync from any single event after a loss.
//
// Unsubscribe and shutdown are clean on both paths: Subscription.Close
// discards pending events and closes the stream immediately (safe during
// delivery, safe to call twice), while Hub.Close stops intake and lets
// every pump drain its buffer before closing its stream.
package notify

import (
	"sync"

	"cpm/internal/model"
)

// Policy selects what happens to new events when a subscriber's buffer is
// full.
type Policy uint8

const (
	// DropOldest discards the oldest buffered event to admit the new one.
	// Consumers detect the gap via Event.Seq (and the Dropped counter) and
	// re-sync from the next event's Result, which is always the full
	// current result set.
	DropOldest Policy = iota
	// CoalesceLatest keeps at most one pending event per query: a new
	// event replaces the buffered one for the same query, so a slow
	// consumer always sees the newest state of every query at the price of
	// skipping intermediate steps. A coalesced event's Entered/Exited/
	// Reranked delta describes only the final step (Result remains the
	// exact current set); consumers needing every delta should use
	// DropOldest with an adequate buffer. If the buffer fills with
	// distinct queries, the oldest pending event is dropped as a fallback.
	CoalesceLatest
)

// Event is one delivered result diff. Seq is the subscription's own
// sequence number, assigned after filtering: it increases by exactly one
// per event accepted for this subscriber, so a gap between consecutively
// delivered events means events were dropped or coalesced away — for
// filtered subscriptions just as for full ones. Events are shared between
// subscribers: treat every slice as read-only (model.ResultDiff has the
// full ownership rule).
type Event struct {
	Seq uint64
	model.ResultDiff
}

// DefaultBuffer is the per-subscriber buffer capacity when Options.Buffer
// is unset.
const DefaultBuffer = 64

// initialRing is the slot count a subscription's ring starts with; a
// consumer that keeps up never needs more, whatever its Buffer allows.
const initialRing = 16

// Options configure a subscription.
type Options struct {
	// Buffer is the per-subscriber buffer capacity in events (default
	// DefaultBuffer). One further event may be in flight inside the pump.
	Buffer int
	// Policy is the slow-consumer policy (default DropOldest).
	Policy Policy
}

// Hub fans result diffs out to subscribers. All methods are safe for
// concurrent use, though the intended publisher is a single processing
// loop.
type Hub struct {
	mu     sync.Mutex
	subs   []*Subscription
	closed bool
}

// NewHub creates an empty hub.
func NewHub() *Hub { return &Hub{} }

// Subscribe registers a subscriber for the given query ids (none means
// every query) and starts its delivery pump. On a closed hub the returned
// subscription is already closed.
func (h *Hub) Subscribe(opts Options, ids ...model.QueryID) *Subscription {
	s := newSubscription(h, opts, ids)
	h.mu.Lock()
	closed := h.closed
	if !closed {
		h.subs = append(h.subs, s)
	}
	h.mu.Unlock()
	go s.pump()
	if closed {
		s.close()
	}
	return s
}

// newSubscription builds a subscription's buffer and filter; Subscribe
// attaches it to the hub and starts its pump.
func newSubscription(h *Hub, opts Options, ids []model.QueryID) *Subscription {
	if opts.Buffer <= 0 {
		opts.Buffer = DefaultBuffer
	}
	s := &Subscription{
		hub:    h,
		policy: opts.Policy,
		limit:  opts.Buffer,
		ring:   make([]Event, min(opts.Buffer, initialRing)),
		kick:   make(chan struct{}, 1),
		fin:    make(chan struct{}),
		done:   make(chan struct{}),
		out:    make(chan Event),
	}
	if len(ids) > 0 {
		s.filter = make(map[model.QueryID]struct{}, len(ids))
		for _, id := range ids {
			s.filter[id] = struct{}{}
		}
	}
	if s.policy == CoalesceLatest {
		s.pending = make(map[model.QueryID]uint64, 16)
	}
	return s
}

// Closed returns a subscription that is already closed: its Events channel
// is closed, it accepts no events and Close is a no-op. Monitors hand one
// out when Subscribe is called after Close, so late subscribers observe a
// cleanly terminated stream instead of racing the draining hub.
func Closed() *Subscription {
	s := &Subscription{
		kick:   make(chan struct{}, 1),
		fin:    make(chan struct{}),
		done:   make(chan struct{}),
		out:    make(chan Event),
		closed: true,
	}
	close(s.out)
	s.finOnce.Do(func() { s.finishing = true; close(s.fin) })
	s.doneOnce.Do(func() { close(s.done) })
	return s
}

// SubscriberCount returns the number of open subscriptions.
func (h *Hub) SubscriberCount() int {
	h.mu.Lock()
	defer h.mu.Unlock()
	return len(h.subs)
}

// Publish offers one batch of diffs to every subscriber. It never blocks
// on a slow consumer: full buffers are resolved by each subscription's
// policy. Each subscription takes the whole batch under one lock and one
// wake-up of its pump; the hub's lock is held throughout, so a concurrent
// Subscribe or Close waits out the batch (microseconds — nothing in here
// waits on a consumer).
func (h *Hub) Publish(diffs []model.ResultDiff) {
	if len(diffs) == 0 {
		return
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	for _, s := range h.subs { // nil once closed
		s.offer(diffs)
	}
}

// Gap advances the sequence number of every subscription interested in
// any of the given query ids (none means every subscription) without
// delivering an event. The next event each affected subscriber receives
// therefore arrives with a Seq jump — the same signal as a buffer-full
// drop — so downstream consumers (the server's per-subscription
// forwarders) surface the loss as a Gap and re-sync. The cluster
// coordinator uses this when a worker misses a tick: the subscribers of
// that worker's queries must not silently skip the lost diffs.
func (h *Hub) Gap(ids ...model.QueryID) {
	h.mu.Lock()
	defer h.mu.Unlock()
	for _, s := range h.subs {
		s.skip(ids)
	}
}

// skip bumps the sequence number once if this subscription is interested
// in any of ids (nil = unconditionally), recording a hole in the stream.
func (s *Subscription) skip(ids []model.QueryID) {
	if s.filter != nil {
		hit := len(ids) == 0
		for _, id := range ids {
			if _, ok := s.filter[id]; ok {
				hit = true
				break
			}
		}
		if !hit {
			return
		}
	}
	s.mu.Lock()
	if !s.closed {
		s.seq++
		s.dropped++
	}
	s.mu.Unlock()
}

// Close shuts the hub down: further Publish calls are no-ops and every
// subscription finishes — its pump delivers the events already buffered,
// then closes its Events channel. Close does not wait for the draining; a
// consumer that stops reading mid-drain must Close its subscription.
func (h *Hub) Close() {
	h.mu.Lock()
	subs := h.subs
	h.subs = nil
	h.closed = true
	h.mu.Unlock()
	for _, s := range subs {
		s.finish()
	}
}

// remove detaches a subscription from the hub's fan-out set.
func (h *Hub) remove(target *Subscription) {
	h.mu.Lock()
	for i, s := range h.subs {
		if s == target {
			h.subs = append(h.subs[:i], h.subs[i+1:]...)
			break
		}
	}
	h.mu.Unlock()
}

// Subscription is one subscriber's handle: a buffered, policy-governed
// event stream fed by the hub and consumed via Events.
type Subscription struct {
	hub    *Hub
	filter map[model.QueryID]struct{} // nil = all queries
	policy Policy
	limit  int

	mu sync.Mutex
	// ring is the buffer: a circular queue of count events starting at
	// head, grown by doubling up to limit slots and then fixed.
	ring        []Event
	head, count int
	seq         uint64 // events ever accepted past the filter
	// pending (CoalesceLatest only) holds the Seq of the one live event per
	// query; an older event of that query still in the ring is stale — it
	// is skipped on the way out and squeezed out when the ring fills.
	pending   map[model.QueryID]uint64
	dropped   uint64
	closed    bool
	finishing bool

	kick chan struct{} // wakes the pump when the queue goes non-empty
	fin  chan struct{} // closed by finish: drain the queue, then stop
	done chan struct{} // closed by Close: stop immediately

	finOnce  sync.Once
	doneOnce sync.Once
	out      chan Event
}

// Events returns the delivery channel. It yields events in publish order
// and is closed after Close (immediately) or the hub's Close (once the
// buffered events have drained).
func (s *Subscription) Events() <-chan Event { return s.out }

// Dropped returns how many events were discarded because the subscriber
// fell behind its buffer (under either policy; coalesced replacements are
// not counted as drops).
func (s *Subscription) Dropped() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.dropped
}

// Close unsubscribes: no further events are accepted, pending undelivered
// events are discarded, and the Events channel is closed. Safe to call
// during delivery and more than once.
func (s *Subscription) Close() {
	if s.hub != nil {
		s.hub.remove(s)
	}
	s.close()
}

func (s *Subscription) close() {
	s.doneOnce.Do(func() {
		s.mu.Lock()
		s.closed = true
		s.mu.Unlock()
		close(s.done)
	})
}

// finish puts the subscription in draining mode: buffered events are still
// delivered, then the stream closes.
func (s *Subscription) finish() {
	s.finOnce.Do(func() {
		s.mu.Lock()
		s.finishing = true
		s.mu.Unlock()
		close(s.fin)
	})
}

// offer enqueues one batch of diffs under one lock, applying the filter,
// assigning this subscription's sequence numbers and applying the
// slow-consumer policy, then wakes the pump once. It never blocks: moving
// events to the channel is the pump's job.
func (s *Subscription) offer(diffs []model.ResultDiff) {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	before := s.seq
	for i := range diffs {
		if s.filter != nil {
			if _, ok := s.filter[diffs[i].Query]; !ok {
				continue
			}
		}
		s.push(diffs[i])
	}
	accepted := s.seq != before
	s.mu.Unlock()
	if accepted {
		select {
		case s.kick <- struct{}{}:
		default:
		}
	}
}

// push appends one event at the tail (caller holds mu). Under
// CoalesceLatest a pending event of the same query goes stale, which keeps
// delivery in publish order with monotonic Seq (an in-place replace would
// reorder); otherwise a buffer already holding limit live events drops its
// oldest.
func (s *Subscription) push(d model.ResultDiff) {
	s.seq++
	live := s.count
	if s.pending != nil {
		live = len(s.pending)
	}
	_, coalesced := s.pending[d.Query]
	if !coalesced && live >= s.limit {
		s.pop()
		s.dropped++
	}
	if s.pending != nil {
		s.pending[d.Query] = s.seq
	}
	if s.count == len(s.ring) {
		s.makeRoom()
	}
	s.ring[(s.head+s.count)%len(s.ring)] = Event{Seq: s.seq, ResultDiff: d}
	s.count++
}

// pop removes and returns the oldest live event, discarding stale ones on
// the way (caller holds mu). Vacated slots are zeroed so the ring does not
// pin delivered results.
func (s *Subscription) pop() (Event, bool) {
	for s.count > 0 {
		ev := s.ring[s.head]
		s.ring[s.head] = Event{}
		s.head = (s.head + 1) % len(s.ring)
		s.count--
		if s.pending == nil || s.pending[ev.Query] == ev.Seq {
			delete(s.pending, ev.Query)
			return ev, true
		}
	}
	return Event{}, false
}

// makeRoom frees a slot of a full ring (caller holds mu): it squeezes out
// stale events in place and, when every slot is live, doubles the ring.
// push keeps the live events under limit, so a ring of limit slots always
// has a stale event to lose and never grows further.
func (s *Subscription) makeRoom() {
	old, size, kept := s.ring, len(s.ring), 0
	for i := 0; i < s.count; i++ {
		ev := old[(s.head+i)%size]
		if s.pending == nil || s.pending[ev.Query] == ev.Seq {
			old[(s.head+kept)%size] = ev
			kept++
		}
	}
	if kept < s.count {
		for i := kept; i < s.count; i++ {
			old[(s.head+i)%size] = Event{}
		}
		s.count = kept
		return
	}
	s.ring = make([]Event, min(2*size, s.limit))
	for i := 0; i < s.count; i++ {
		s.ring[i] = old[(s.head+i)%size]
	}
	s.head = 0
}

// pump is the delivery goroutine: it moves events from the buffer to the
// out channel in order, blocking on the consumer, never on the publisher.
// It exits — closing the channel — when the subscription is closed, or
// when it is finishing and the buffer has drained.
func (s *Subscription) pump() {
	defer close(s.out)
	for {
		s.mu.Lock()
		ev, ok := s.pop()
		for !ok {
			fin := s.finishing
			s.mu.Unlock()
			if fin {
				return
			}
			select {
			case <-s.kick:
			case <-s.fin:
			case <-s.done:
				return
			}
			s.mu.Lock()
			ev, ok = s.pop()
		}
		s.mu.Unlock()
		select {
		case s.out <- ev:
		case <-s.done:
			return
		}
	}
}
