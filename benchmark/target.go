package main

import (
	"errors"
	"sync/atomic"
	"time"

	"cpm"
	"cpm/client"
)

// target is one system under test as the run loop drives it: a monitor, a
// baseline, the staged rig or a client of the served stack.
type target interface {
	bootstrap(objs map[cpm.ObjectID]cpm.Point) error
	register(d qdef) error
	remove(id cpm.QueryID) error
	tick(b cpm.Batch) error
	result(id cpm.QueryID) ([]cpm.Neighbor, error)
	// watch subscribes to every query and reports the arrival of each diff
	// of query q. A nil probe means the target has no diff stream.
	watch(q cpm.QueryID) (*probe, error)
	close()
}

// subBuffer is the subscription buffer, in events. A tick of query-churn
// publishes a diff for every one of its 500 queries in one burst, which the
// default buffer of 64 would shed; no workload comes near this size.
const subBuffer = 65536

// keepDiffs is how many of the latest diffs a subscriber keeps for the layer
// pass to time the wire layer on.
const keepDiffs = 512

// probe is a subscriber: a goroutine that drains a diff stream, counts what
// it gets and reports when each diff of the probe query arrived.
type probe struct {
	seen   chan time.Time   // arrival of each diff of the probe query
	events atomic.Int64     // diffs received
	lost   atomic.Int64     // holes in the stream: sequence jumps, Gap frames
	kept   []cpm.ResultDiff // the latest diffs, up to keepDiffs, for the wire layer
	stop   func()
	done   chan struct{}
}

func newProbe(stop func()) *probe {
	// seen is buffered so that the subscriber never waits for the driver;
	// the driver takes one entry per tick.
	return &probe{seen: make(chan time.Time, 1024), stop: stop, done: make(chan struct{})}
}

// note counts one received diff.
func (p *probe) note(q cpm.QueryID, d cpm.ResultDiff) {
	p.events.Add(1)
	if len(p.kept) == keepDiffs {
		p.kept = p.kept[:0]
	}
	p.kept = append(p.kept, d)
	if d.Query == q {
		p.seen <- time.Now()
	}
}

// close ends the subscription and waits for the goroutine.
func (p *probe) close() {
	p.stop()
	<-p.done
}

// watchLocal drains an in-process subscription.
func watchLocal(sub *cpm.Subscription, q cpm.QueryID) *probe {
	p := newProbe(sub.Close)
	go func() {
		defer close(p.done)
		var last uint64
		for ev := range sub.Events() {
			if ev.Seq != last+1 {
				p.lost.Add(1)
			}
			last = ev.Seq
			p.note(q, ev.ResultDiff)
		}
	}()
	return p
}

// registrar is the registration surface cpm.Monitor and client.Client share.
type registrar interface {
	RegisterQuery(id cpm.QueryID, q cpm.Point, k int) error
	RegisterAggQuery(id cpm.QueryID, pts []cpm.Point, k int, agg cpm.Agg) error
	RegisterConstrainedQuery(id cpm.QueryID, q cpm.Point, k int, region cpm.Rect) error
	RegisterRangeQuery(id cpm.QueryID, center cpm.Point, radius float64) error
}

func registerOn(r registrar, d qdef) error {
	switch d.kind {
	case kindAgg:
		return r.RegisterAggQuery(d.id, d.pts, d.k, d.agg)
	case kindConstrained:
		return r.RegisterConstrainedQuery(d.id, d.pts[0], d.k, d.region)
	case kindRange:
		return r.RegisterRangeQuery(d.id, d.pts[0], d.radius)
	default:
		return r.RegisterQuery(d.id, d.pts[0], d.k)
	}
}

// monitorTarget drives a cpm.Monitor in process.
type monitorTarget struct{ m *cpm.Monitor }

func (t monitorTarget) bootstrap(objs map[cpm.ObjectID]cpm.Point) error {
	t.m.Bootstrap(objs)
	return nil
}
func (t monitorTarget) register(d qdef) error       { return registerOn(t.m, d) }
func (t monitorTarget) remove(id cpm.QueryID) error { t.m.RemoveQuery(id); return nil }
func (t monitorTarget) tick(b cpm.Batch) error      { t.m.Tick(b); return nil }
func (t monitorTarget) close()                      { t.m.Close() }
func (t monitorTarget) result(id cpm.QueryID) ([]cpm.Neighbor, error) {
	return t.m.Result(id), nil
}
func (t monitorTarget) watch(q cpm.QueryID) (*probe, error) {
	return watchLocal(t.m.SubscribeWith(cpm.SubscribeOptions{Buffer: subBuffer}), q), nil
}

// methodTarget drives a baseline through the interface all monitoring methods
// share: point k-NN queries and no diff stream.
type methodTarget struct{ m cpm.Method }

var errPointOnly = errors.New("baselines take point k-NN queries only")

func (t methodTarget) bootstrap(objs map[cpm.ObjectID]cpm.Point) error {
	t.m.Bootstrap(objs)
	return nil
}
func (t methodTarget) register(d qdef) error {
	if d.kind != kindPoint {
		return errPointOnly
	}
	return t.m.RegisterQuery(d.id, d.pts[0], d.k)
}
func (t methodTarget) remove(id cpm.QueryID) error { t.m.RemoveQuery(id); return nil }
func (t methodTarget) tick(b cpm.Batch) error      { t.m.ProcessBatch(b); return nil }
func (t methodTarget) result(id cpm.QueryID) ([]cpm.Neighbor, error) {
	return t.m.Result(id), nil
}
func (t methodTarget) watch(cpm.QueryID) (*probe, error) { return nil, nil }
func (t methodTarget) close()                            {}

// clientTarget drives a served stack over two connections: one for requests
// and, once watch is called, one for the subscription.
type clientTarget struct {
	addr    string
	opts    client.Options
	driver  *client.Client
	watcher *client.Client
}

func dialTarget(addr string, opts client.Options) (*clientTarget, error) {
	c, err := client.Dial(addr, opts)
	if err != nil {
		return nil, err
	}
	return &clientTarget{addr: addr, opts: opts, driver: c}, nil
}

func (t *clientTarget) bootstrap(objs map[cpm.ObjectID]cpm.Point) error {
	return t.driver.Bootstrap(objs)
}
func (t *clientTarget) register(d qdef) error       { return registerOn(t.driver, d) }
func (t *clientTarget) remove(id cpm.QueryID) error { return t.driver.RemoveQuery(id) }
func (t *clientTarget) tick(b cpm.Batch) error      { return t.driver.Tick(b) }
func (t *clientTarget) result(id cpm.QueryID) ([]cpm.Neighbor, error) {
	return t.driver.Result(id)
}

func (t *clientTarget) watch(q cpm.QueryID) (*probe, error) {
	opts := t.opts
	opts.Buffer = subBuffer
	w, err := client.Dial(t.addr, opts)
	if err != nil {
		return nil, err
	}
	sub, err := w.SubscribeWith(client.SubscribeOptions{Buffer: subBuffer})
	if err != nil {
		w.Close()
		return nil, err
	}
	t.watcher = w
	p := newProbe(func() { sub.Close() })
	go func() {
		defer close(p.done)
		for ev := range sub.Events() {
			if ev.Type != client.EventDiff {
				p.lost.Add(1) // a Gap, or the snapshots of a re-sync
				continue
			}
			p.note(q, ev.ResultDiff)
		}
	}()
	return p, nil
}

func (t *clientTarget) close() {
	if t.watcher != nil {
		t.watcher.Close()
	}
	t.driver.Close()
}
