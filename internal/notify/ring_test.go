package notify

import (
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"testing"

	"cpm/internal/model"
)

// refQueue is the slice-sliding queue the ring replaced, kept as the model
// the ring is checked against: same filter, Seq, drop and coalesce rules.
type refQueue struct {
	limit    int
	coalesce bool
	filter   map[model.QueryID]struct{}
	queue    []Event
	seq      uint64
	dropped  uint64
}

func (r *refQueue) offer(diffs []model.ResultDiff) {
	for _, d := range diffs {
		if r.filter != nil {
			if _, ok := r.filter[d.Query]; !ok {
				continue
			}
		}
		r.seq++
		if r.coalesce {
			r.queue = slices.DeleteFunc(r.queue, func(ev Event) bool { return ev.Query == d.Query })
		}
		if len(r.queue) >= r.limit {
			r.queue = r.queue[1:]
			r.dropped++
		}
		r.queue = append(r.queue, Event{Seq: r.seq, ResultDiff: d})
	}
}

func (r *refQueue) pop() (Event, bool) {
	if len(r.queue) == 0 {
		return Event{}, false
	}
	ev := r.queue[0]
	r.queue = r.queue[1:]
	return ev, true
}

// TestRingMatchesQueueModel drives a pump-less subscription and the model
// through the same random batches and reads — limits below, at and past the
// ring's first size, so the run wraps the ring many times, grows it, and
// under CoalesceLatest fills it with stale events to squeeze — and demands
// the same events in the same order with the same Seq and Dropped.
func TestRingMatchesQueueModel(t *testing.T) {
	for _, policy := range []Policy{DropOldest, CoalesceLatest} {
		for _, limit := range []int{1, 2, 3, initialRing, initialRing + 1, 5 * initialRing} {
			for _, filtered := range []bool{false, true} {
				t.Run(fmt.Sprintf("policy=%d/limit=%d/filtered=%v", policy, limit, filtered), func(t *testing.T) {
					var ids []model.QueryID
					if filtered {
						for q := model.QueryID(0); q < 40; q += 2 {
							ids = append(ids, q)
						}
					}
					s := newSubscription(nil, Options{Buffer: limit, Policy: policy}, ids)
					ref := &refQueue{limit: limit, coalesce: policy == CoalesceLatest, filter: s.filter}
					rng := rand.New(rand.NewSource(int64(limit)))
					next := model.ObjectID(0)
					for round := 0; round < 2000; round++ {
						batch := make([]model.ResultDiff, rng.Intn(limit+3))
						for i := range batch {
							batch[i] = diff(model.QueryID(rng.Intn(40)), next)
							next++
						}
						s.offer(batch)
						ref.offer(batch)
						for reads := rng.Intn(limit + 3); reads > 0; reads-- {
							got, ok := s.pop()
							want, wantOK := ref.pop()
							if ok != wantOK || got.Seq != want.Seq || got.Query != want.Query ||
								(ok && got.Result[0] != want.Result[0]) {
								t.Fatalf("round %d: popped %+v (%v), model %+v (%v)", round, got, ok, want, wantOK)
							}
						}
						if s.dropped != ref.dropped {
							t.Fatalf("round %d: dropped %d, model %d", round, s.dropped, ref.dropped)
						}
						if len(s.ring) > limit {
							t.Fatalf("round %d: ring grew to %d slots past the limit %d", round, len(s.ring), limit)
						}
					}
				})
			}
		}
	}
}

// TestCloseMidBatch closes subscriptions of both policies, filtered and
// not, while a publisher is inside large batches: every stream must end,
// nothing may arrive after its end, and Seq stays strictly increasing up to
// it. Run under -race it also checks the batch lock against the pump.
func TestCloseMidBatch(t *testing.T) {
	h := NewHub()
	batch := make([]model.ResultDiff, 512)
	for i := range batch {
		batch[i] = diff(model.QueryID(i%64), model.ObjectID(i))
	}
	stop := make(chan struct{})
	var pub sync.WaitGroup
	pub.Add(1)
	go func() {
		defer pub.Done()
		for {
			select {
			case <-stop:
				return
			default:
				h.Publish(batch)
			}
		}
	}()
	var subs sync.WaitGroup
	for i := 0; i < 8; i++ {
		opts := Options{Buffer: 8 << (i % 4), Policy: Policy(i % 2)}
		var ids []model.QueryID
		if i >= 4 {
			ids = []model.QueryID{1, 2, 3, 5, 8, 13, 21, 34}
		}
		s := h.Subscribe(opts, ids...)
		subs.Add(1)
		go func(i int) {
			defer subs.Done()
			var last uint64
			for n := 0; ; n++ {
				ev, ok := recv(t, s)
				if !ok {
					return
				}
				if ev.Seq <= last {
					t.Errorf("subscriber %d: seq %d after %d", i, ev.Seq, last)
				}
				last = ev.Seq
				if n == 50*(i+1) {
					s.Close() // from the consumer, mid-batch for the publisher
				}
			}
		}(i)
	}
	subs.Wait()
	close(stop)
	pub.Wait()
	if n := h.SubscriberCount(); n != 0 {
		t.Fatalf("%d subscriptions still attached after Close", n)
	}
	h.Close()
}
