// Package load is the open-loop load driver of the CPM serving layer: it
// pushes Poisson-arrival ingest/register/tick traffic from N concurrent
// client connections against a running cpmserver and records end-to-end
// latency histograms per operation type — including the subscribe-to-diff
// delivery latency of the push pipeline — in the coordinated-omission-free
// way a closed-loop benchmark cannot.
//
// # Open loop
//
// A closed-loop driver issues the next request when the previous one
// returns, so a slow server quietly throttles its own load and the
// recorded latencies stay flattering. This driver instead schedules
// arrivals from a Poisson process at Options.Rate and measures every
// operation from its *scheduled* arrival time to completion: when the
// server stalls, queued operations keep accumulating latency exactly as
// queued users would, and the p99/p999 columns show it.
//
// # Delivery probe
//
// Delivery latency is measured end to end through the push pipeline: a
// dedicated range query in an otherwise-quiet corner of the workspace, a
// subscription to just that query, and a probe object that deliver-ops
// toggle into and out of the range. Every toggle causes exactly one diff
// event on the probe stream; the time from the toggle's scheduled arrival
// to the event's delivery on the subscription channel is the
// subscribe-to-diff latency (tick processing + hub publish + wire encode +
// TCP + client dispatch). Bulk traffic stays out of the probe region, so
// the probe stream carries nothing else; gap markers (which under
// overload announce shed events) clear the probe's in-flight queue rather
// than mis-pairing toggles with later events.
//
// cmd/cpmload is the command-line front end: it prints each operation
// type's count, mean and p50/p99/p999 from Result.Ops.
package load

import (
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"cpm"
	"cpm/client"
	"cpm/internal/metrics"
	"cpm/internal/tracing"
)

// Operation mix: cumulative probability thresholds of the scheduler's op
// draw. Ingest dominates (the production traffic shape), deliver-ops pace
// the probe stream.
const (
	mixIngest   = 0.50 // batched object-move Tick (remote ingest)
	mixTick     = 0.65 // empty-batch Tick (pure cycle + RTT)
	mixRegister = 0.80 // ephemeral query install (+ untimed remove)
	// remainder: deliver probe toggles
)

// The probe geometry: a range query in the lower-left corner, bulk
// traffic confined to a region that can never intersect it.
var (
	probeCenter = cpm.Point{X: 0.05, Y: 0.05}
	probeIn     = cpm.Point{X: 0.04, Y: 0.04}
	probeOut    = cpm.Point{X: 0.05, Y: 0.5}
)

const (
	probeRadius = 0.08
	bulkLo      = 0.25
	bulkSpan    = 0.70
)

// Options configure a load run. The zero value of every field gets a
// sensible default.
type Options struct {
	// Addr is the cpmserver address to drive ("host:port"). Required.
	Addr string
	// Conns is the number of concurrent client connections (default 4).
	// Connection 0 additionally owns the delivery probe.
	Conns int
	// Rate is the total scheduled arrival rate in operations per second
	// across all connections (default 200).
	Rate float64
	// Duration bounds the scheduling window (default 5s); queued
	// operations still drain (and are measured) after it ends.
	Duration time.Duration
	// MaxOps, when positive, additionally caps the number of scheduled
	// operations.
	MaxOps int64
	// Objects is the bootstrapped object population (default 2000).
	Objects int
	// Queries is the number of standing k-NN queries registered before
	// the run (default 50).
	Queries int
	// K is the standing queries' neighbor count (default 8).
	K int
	// Batch is the number of object moves per ingest operation
	// (default 16).
	Batch int
	// Seed seeds the workload and the arrival process (default 1).
	Seed int64
	// Trace stamps every driven operation with a fresh trace context
	// before it is sent — the server (and, behind a coordinator, every
	// worker) records spans under that id — and keeps each op's kind,
	// trace id and latency in Result.Traced, so cmd/cpmload -trace can
	// print the slowest ops with their server-side hop and phase
	// breakdowns (fetched into Result.ServerTraces at the end of the
	// run). Degrades silently against a pre-extension server.
	Trace bool
	// Logf, when set, receives progress diagnostics.
	Logf func(format string, args ...any)
}

func (o *Options) defaults() {
	if o.Conns <= 0 {
		o.Conns = 4
	}
	if o.Rate <= 0 {
		o.Rate = 200
	}
	if o.Duration <= 0 {
		o.Duration = 5 * time.Second
	}
	if o.Objects <= 0 {
		o.Objects = 2000
	}
	if o.Queries <= 0 {
		o.Queries = 50
	}
	if o.K <= 0 {
		o.K = 8
	}
	if o.Batch <= 0 {
		o.Batch = 16
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
}

// Result holds one run's latency distributions, one histogram per
// operation type (nanoseconds from scheduled arrival to completion).
type Result struct {
	Opts    Options
	Elapsed time.Duration

	Ingest   metrics.Histogram
	Tick     metrics.Histogram
	Register metrics.Histogram
	Deliver  metrics.Histogram

	// Errors counts failed operations (not recorded in the histograms);
	// Shed counts operations dropped because a connection's queue was
	// full (sustained overload); Gaps counts probe-stream gap markers.
	Errors int64
	Shed   int64
	Gaps   uint64

	// Traced holds every traced operation, slowest first (Options.Trace);
	// ServerTraces is the server's flight recorder, fetched once at the
	// end of the run — correlate the two by trace id.
	Traced       []TracedOp
	ServerTraces []tracing.RecordedTrace
}

// TracedOp is one operation the run stamped with a trace context: its
// kind, the trace id the server recorded under, and the client-observed
// latency from scheduled arrival to completion (queueing included — the
// open-loop measurement; the server-side trace covers service time only,
// so the difference between the two is queueing and the network).
type TracedOp struct {
	Kind    string
	TraceID uint64
	DurNs   int64
}

// OpLatency is the latency histogram of one operation type.
type OpLatency struct {
	Name string
	Hist *metrics.Histogram
}

// Ops lists the run's per-operation histograms in report order.
func (r *Result) Ops() []OpLatency {
	return []OpLatency{{"ingest", &r.Ingest}, {"tick", &r.Tick}, {"register", &r.Register}, {"deliver", &r.Deliver}}
}

// op is one scheduled operation.
type opKind uint8

const (
	opIngest opKind = iota
	opTick
	opRegister
	opDeliver
)

type op struct {
	kind opKind
	at   time.Time // scheduled arrival; latency is measured from here
}

// worker is one connection's sequential executor: it owns a partition of
// the object population (so concurrent ingest never races on an object's
// position) and drains its queue in order.
type worker struct {
	c    *client.Client
	ch   chan op
	rng  *rand.Rand
	objs []cpm.ObjectID
	pos  []cpm.Point
	next int // round-robin cursor over objs

	batch  []cpm.Update // reused ingest batch
	traced []TracedOp   // this connection's traced ops (Options.Trace)
}

// ingest moves the next batchSize owned objects to fresh bulk positions
// in one Tick.
func (w *worker) ingest(batchSize int) error {
	w.batch = w.batch[:0]
	if len(w.objs) == 0 {
		return w.c.Tick(cpm.Batch{})
	}
	for j := 0; j < batchSize; j++ {
		i := w.next % len(w.objs)
		w.next++
		np := bulkPoint(w.rng)
		w.batch = append(w.batch, cpm.MoveUpdate(w.objs[i], w.pos[i], np))
		w.pos[i] = np
	}
	return w.c.Tick(cpm.Batch{Objects: w.batch})
}

// Run drives one open-loop load run against a server and collects the
// per-op latency distributions.
func Run(o Options) (*Result, error) {
	o.defaults()
	if o.Addr == "" {
		return nil, fmt.Errorf("load: Addr is required")
	}
	logf := o.Logf
	if logf == nil {
		logf = func(string, ...any) {}
	}
	res := &Result{Opts: o}
	rng := rand.New(rand.NewSource(o.Seed))

	// Dial the fleet.
	workers := make([]*worker, o.Conns)
	for i := range workers {
		c, err := client.Dial(o.Addr, client.Options{Trace: o.Trace})
		if err != nil {
			for _, w := range workers[:i] {
				w.c.Close()
			}
			return nil, fmt.Errorf("load: dial conn %d: %w", i, err)
		}
		workers[i] = &worker{
			c:   c,
			ch:  make(chan op, 8192),
			rng: rand.New(rand.NewSource(o.Seed + int64(i) + 1)),
		}
		defer c.Close()
	}

	// Bootstrap: the bulk population, partitioned across workers, plus
	// the probe object parked outside the probe range.
	probeObj := cpm.ObjectID(o.Objects)
	objs := make(map[cpm.ObjectID]cpm.Point, o.Objects+1)
	for i := 0; i < o.Objects; i++ {
		id := cpm.ObjectID(i)
		p := bulkPoint(rng)
		objs[id] = p
		w := workers[i%len(workers)]
		w.objs = append(w.objs, id)
		w.pos = append(w.pos, p)
	}
	objs[probeObj] = probeOut
	if err := workers[0].c.Bootstrap(objs); err != nil {
		return nil, fmt.Errorf("load: bootstrap: %w", err)
	}

	// Standing queries in the bulk region; the probe range query after
	// them. Ephemeral register-op queries use ids past the probe's, one
	// reusable id per connection.
	for q := 0; q < o.Queries; q++ {
		if err := workers[0].c.RegisterQuery(cpm.QueryID(q), bulkPoint(rng), o.K); err != nil {
			return nil, fmt.Errorf("load: register standing q%d: %w", q, err)
		}
	}
	probeQuery := cpm.QueryID(o.Queries)
	if err := workers[0].c.RegisterRangeQuery(probeQuery, probeCenter, probeRadius); err != nil {
		return nil, fmt.Errorf("load: register probe query: %w", err)
	}
	sub, err := workers[0].c.Subscribe(probeQuery)
	if err != nil {
		return nil, fmt.Errorf("load: subscribe probe: %w", err)
	}

	// The probe pairing queue: deliver-ops push their scheduled time
	// before ticking the toggle; the subscriber pops one per probe diff.
	// A gap marker means events were shed — drain the queue instead of
	// pairing stale toggles with later events.
	probeTimes := make(chan time.Time, 8192)
	var subWG sync.WaitGroup
	subWG.Add(1)
	go func() {
		defer subWG.Done()
		for ev := range sub.Events() {
			switch ev.Type {
			case client.EventGap:
				atomic.AddUint64(&res.Gaps, 1)
			drain:
				for {
					select {
					case <-probeTimes:
					default:
						break drain
					}
				}
			case client.EventDiff:
				if !probeDiff(ev.ResultDiff, probeObj) {
					continue
				}
				select {
				case at := <-probeTimes:
					res.Deliver.Observe(time.Since(at))
				default:
					// Unpaired event (first diff after a gap drain):
					// nothing sane to measure against.
				}
			}
		}
	}()

	// Executors: one per connection, sequential over its queue.
	var execWG sync.WaitGroup
	for i, w := range workers {
		execWG.Add(1)
		go func(i int, w *worker) {
			defer execWG.Done()
			ephemeralID := probeQuery + 1 + cpm.QueryID(i)
			probePos := probeOut
			for job := range w.ch {
				// Stamp the op with a fresh trace id before it goes out;
				// the executor is sequential over its connection, so the
				// stamp can only pair with this op's request. The rng is
				// executor-owned here, like the register-op draws.
				var tid uint64
				if o.Trace {
					tid = w.rng.Uint64() | 1 // never 0: 0 means "no trace"
					w.c.SetTrace(tid, 0)
				}
				var err error
				switch job.kind {
				case opIngest:
					if err = w.ingest(o.Batch); err == nil {
						res.Ingest.Observe(time.Since(job.at))
					}
				case opTick:
					if err = w.c.Tick(cpm.Batch{}); err == nil {
						res.Tick.Observe(time.Since(job.at))
					}
				case opRegister:
					if err = w.c.RegisterQuery(ephemeralID, bulkPoint(w.rng), o.K); err == nil {
						res.Register.Observe(time.Since(job.at))
						if rmErr := w.c.RemoveQuery(ephemeralID); rmErr != nil {
							atomic.AddInt64(&res.Errors, 1)
						}
					}
				case opDeliver: // routed to worker 0 only
					to := probeIn
					if probePos == probeIn {
						to = probeOut
					}
					// Enqueue the scheduled time before the tick, so the
					// pushed event can never beat its own timestamp.
					select {
					case probeTimes <- job.at:
					default:
						atomic.AddInt64(&res.Shed, 1)
					}
					if err = w.c.Tick(cpm.Batch{Objects: []cpm.Update{
						cpm.MoveUpdate(probeObj, probePos, to),
					}}); err == nil {
						probePos = to
					}
				}
				if err != nil {
					atomic.AddInt64(&res.Errors, 1)
				} else if tid != 0 {
					w.traced = append(w.traced, TracedOp{
						Kind: opName(job.kind), TraceID: tid,
						DurNs: time.Since(job.at).Nanoseconds(),
					})
				}
			}
		}(i, w)
	}

	// The open-loop scheduler: Poisson arrivals at the aggregate rate,
	// each op stamped with its scheduled time. A full worker queue sheds
	// the op (counted) instead of blocking the arrival process.
	start := time.Now()
	deadline := start.Add(o.Duration)
	arrival := start
	var scheduled int64
	rr := 0
	for {
		if o.MaxOps > 0 && scheduled >= o.MaxOps {
			break
		}
		arrival = arrival.Add(time.Duration(rng.ExpFloat64() / o.Rate * float64(time.Second)))
		if arrival.After(deadline) {
			break
		}
		if d := time.Until(arrival); d > 0 {
			time.Sleep(d)
		}
		var kind opKind
		switch u := rng.Float64(); {
		case u < mixIngest:
			kind = opIngest
		case u < mixTick:
			kind = opTick
		case u < mixRegister:
			kind = opRegister
		default:
			kind = opDeliver
		}
		w := workers[0]
		if kind != opDeliver {
			w = workers[rr%len(workers)]
			rr++
		}
		select {
		case w.ch <- op{kind, arrival}:
		default:
			atomic.AddInt64(&res.Shed, 1)
		}
		scheduled++
	}

	// Drain: close the queues, let queued ops finish (still measured
	// from their scheduled times), then stop the probe stream.
	for _, w := range workers {
		close(w.ch)
	}
	execWG.Wait()
	res.Elapsed = time.Since(start)
	sub.Close()
	subWG.Wait()
	res.Gaps = sub.Gaps() // authoritative: counts gaps the drain loop saw too

	if o.Trace {
		for _, w := range workers {
			res.Traced = append(res.Traced, w.traced...)
		}
		sort.Slice(res.Traced, func(i, j int) bool { return res.Traced[i].DurNs > res.Traced[j].DurNs })
		// Pull the server's flight recorder for hop/phase correlation.
		// A server without tracing enabled answers an empty list.
		if doc, err := workers[0].c.ServerTraces(); err == nil {
			if traces, err := tracing.ParseTraces(doc); err == nil {
				res.ServerTraces = traces
			}
		}
	}

	logf("load: %d scheduled over %v: ingest=%d tick=%d register=%d deliver=%d errors=%d shed=%d gaps=%d",
		scheduled, res.Elapsed.Round(time.Millisecond),
		res.Ingest.Count(), res.Tick.Count(), res.Register.Count(), res.Deliver.Count(),
		res.Errors, res.Shed, res.Gaps)
	return res, nil
}

// opName renders an op kind for the traced-op report, matching the
// summary table's row names.
func opName(k opKind) string {
	switch k {
	case opIngest:
		return "ingest"
	case opTick:
		return "tick"
	case opRegister:
		return "register"
	default:
		return "deliver"
	}
}

// probeDiff reports whether a diff is a probe toggle: the probe object
// entering or leaving the probe range.
func probeDiff(d cpm.ResultDiff, id cpm.ObjectID) bool {
	if d.Kind != cpm.DiffUpdate {
		return false
	}
	for _, n := range d.Entered {
		if n.ID == id {
			return true
		}
	}
	for _, x := range d.Exited {
		if x == id {
			return true
		}
	}
	return false
}

// bulkPoint draws a position in the bulk region (never inside the probe
// range).
func bulkPoint(rng *rand.Rand) cpm.Point {
	return cpm.Point{X: bulkLo + rng.Float64()*bulkSpan, Y: bulkLo + rng.Float64()*bulkSpan}
}
