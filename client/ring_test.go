package client

import (
	"math/rand"
	"sync/atomic"
	"testing"
	"time"

	"cpm"
)

// ringSub builds a bare subscription with a client-side buffer of n events
// and starts its pump, with no connection behind it.
func ringSub(n int) *Subscription {
	s := newSubscription(&Client{opts: Options{Buffer: n}}, 1, SubscribeOptions{}, nil)
	go s.pump()
	return s
}

// chanModel is the delivery path the ring replaced: a channel of n events
// drained by a pump into an unbuffered consumer channel, until stop closes.
type chanModel struct {
	in, out chan Event
	stop    chan struct{}
}

func newChanModel(n int) *chanModel {
	m := &chanModel{in: make(chan Event, n), out: make(chan Event), stop: make(chan struct{})}
	go func() {
		for {
			select {
			case ev := <-m.in:
				select {
				case m.out <- ev:
				case <-m.stop:
					return
				}
			case <-m.stop:
				return
			}
		}
	}()
	return m
}

func (m *chanModel) deliver(ev Event) {
	select {
	case m.in <- ev:
	case <-m.stop:
	}
}

// fill delivers events numbered from 1 on its own goroutine, until stop
// closes, and returns a probe that waits for the delivery to block and
// reports how many events went through before it did.
func fill(deliver func(Event), stop <-chan struct{}) (accepted func() int64) {
	var n atomic.Int64
	go func() {
		for seq := uint64(1); ; seq++ {
			select {
			case <-stop:
				return
			default:
			}
			deliver(Event{Type: EventDiff, Seq: seq})
			n.Add(1)
		}
	}()
	return func() int64 {
		// A blocked producer stops counting; wait until the count settles.
		last := int64(-1)
		for last != n.Load() {
			last = n.Load()
			time.Sleep(20 * time.Millisecond)
		}
		return last
	}
}

// TestRingMatchesChannelModel checks the subscription ring against the
// channel it replaced: both accept the same number of events before
// delivery blocks on a consumer that does not read, and both hand every
// event to the consumer once, in delivery order, whether the consumer keeps
// up or lags — across buffer sizes below, at and above the ring's first
// size, so the ring wraps and grows.
func TestRingMatchesChannelModel(t *testing.T) {
	for _, buffer := range []int{1, 2, initialRing - 1, initialRing, initialRing + 1, 100} {
		s, m := ringSub(buffer), newChanModel(buffer)
		ringN, modelN := fill(s.deliver, s.done)(), fill(m.deliver, m.stop)()
		if ringN != modelN {
			t.Fatalf("buffer %d: the ring takes %d events before blocking, the channel model %d", buffer, ringN, modelN)
		}
		s.shutdown()
		close(m.stop)

		rng := rand.New(rand.NewSource(int64(buffer)))
		s = ringSub(buffer)
		const total = 2000
		go func() {
			for seq := uint64(1); seq <= total; seq++ {
				s.deliver(Event{Type: EventDiff, Seq: seq, ResultDiff: cpm.ResultDiff{Query: cpm.QueryID(seq % 7)}})
				if rng.Intn(50) == 0 {
					time.Sleep(time.Microsecond)
				}
			}
		}()
		for want := uint64(1); want <= total; want++ {
			ev := <-s.Events()
			if ev.Seq != want || ev.Query != cpm.QueryID(want%7) {
				t.Fatalf("buffer %d: event %d arrived as %+v", buffer, want, ev)
			}
			if want%97 == 0 {
				time.Sleep(200 * time.Microsecond) // lag: the ring fills and delivery blocks
			}
		}
		s.mu.Lock()
		size := len(s.ring)
		s.mu.Unlock()
		if size > buffer {
			t.Fatalf("buffer %d: the ring grew to %d slots", buffer, size)
		}
		s.shutdown()
	}
}

// TestRingCloseWhileDeliverBlocked: closing a subscription whose consumer
// stopped reading releases a deliver blocked on the full ring, discards the
// buffered events and closes the Events channel.
func TestRingCloseWhileDeliverBlocked(t *testing.T) {
	s := ringSub(4)
	accepted := fill(s.deliver, s.done)
	if n := accepted(); n != 5 { // four in the ring, one in the pump
		t.Fatalf("%d events accepted before blocking, want 5", n)
	}
	blocked := make(chan struct{})
	go func() {
		s.deliver(Event{Type: EventDiff, Seq: 1000})
		close(blocked)
	}()
	select {
	case <-blocked:
		t.Fatal("deliver on a full ring returned")
	case <-time.After(20 * time.Millisecond):
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	select {
	case <-blocked:
	case <-time.After(5 * time.Second):
		t.Fatal("Close left deliver blocked")
	}
	deadline := time.After(5 * time.Second)
	for {
		select {
		case _, ok := <-s.Events():
			if !ok {
				return
			}
		case <-deadline:
			t.Fatal("Events channel not closed after Close")
		}
	}
}
