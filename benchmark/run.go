package main

import (
	"errors"
	"fmt"
	"math"
	"os"
	"runtime"
	"time"

	"cpm"
)

// spec sizes one workload. The names are fixed: later issues cite them.
type spec struct {
	name   string
	grid   int
	chunk  int // ticks generated at a time, outside the timed region
	warmup int // ticks run and thrown away before measuring
	road   roadSpec
	drift  bool // the drift generator instead of the road network
	served bool // the stack over loopback TCP instead of a monitor in process
	// baselines adds to the layer pass the lanes that carry the ratios to
	// YPK-CNN, SEA-CNN and a two-shard monitor; every query is a point query.
	baselines bool
}

// pacedRate is the open-loop rate of served-cluster's paced phase, in ticks
// per second, and sloUs the delivery limit of that phase: one tick period.
const (
	pacedRate = 60
	sloUs     = 1e6 / pacedRate
)

func specs(smoke bool) []spec {
	all := []spec{
		{name: "paper-default", grid: 128, chunk: 100, warmup: 100, baselines: true,
			road: roadSpec{n: 10000, queries: 500, k: 16, fObj: 0.5, fQry: 0.3}},
		{name: "update-heavy", grid: 128, chunk: 20, warmup: 100, drift: true,
			road: roadSpec{n: 50000, queries: 50}},
		{name: "query-churn", grid: 128, chunk: 100, warmup: 100,
			road: roadSpec{n: 10000, queries: 500, fObj: 0.05, churn: true}},
		{name: "served-cluster", grid: 128, chunk: 50, warmup: 100, served: true,
			road: roadSpec{n: 5000, queries: 250, k: 16, fObj: 0.5, fQry: 0.3}},
	}
	if smoke {
		for i := range all {
			all[i].grid, all[i].chunk, all[i].warmup = 32, 20, 10
			all[i].road.n, all[i].road.queries = 500, 30
		}
	}
	return all
}

// firstPhase is the phase tick and delivery times are reported from.
func (sp spec) firstPhase() int {
	if sp.served {
		return paced
	}
	return closed
}

func (sp spec) stream(seed int64) (stream, error) {
	if sp.drift {
		return newDriftStream(sp.road.n, sp.road.queries, sp.grid, seed), nil
	}
	return newRoadStream(sp.road, seed)
}

// ops counts operations against attempts: every Tick, Register and Remove
// call, every expected probe delivery and every comparison with the oracle.
type ops struct {
	attempted, failed, checked int
	ties                       int // answers that differ by a tie at the cut-off only
}

// did counts one operation and reports whether it failed. It takes the error
// alone: the calls sit between the two readings of Mallocs, and arguments to
// describe a failure would be boxed on every call.
func (o *ops) did(err error) bool {
	o.attempted++
	return err != nil
}

// fail counts a failed operation and says what it was, the first ten times.
func (o *ops) fail(err error, what string, args ...any) {
	o.failed++
	if o.failed <= 10 {
		fmt.Fprintf(os.Stderr, "failed: "+what+": %v\n", append(args, err)...)
	}
}

// samples is what one lane measured in one phase.
type samples struct {
	tickUs    []float64 // per tick: the Tick call; from the due time when paced
	tickNo    []int32   // per tick: its number among the run's measured ticks
	deliverUs []float64 // per tick: its start (or due time) to the arrival of its last diff
	updates   []float64 // per tick: object and query updates in its batch
	lateUs    []float64 // per paced tick: how long after its due time it was sent
	regUs     []float64 // per registration made during the measured ticks
	allocs    []float64 // per chunk: mallocs per tick
	backlog   int       // most ticks due but not yet sent, seen at any send
}

// Phases of a run. Workloads in process have the closed phase only.
const (
	closed = iota // one caller, the next tick when the last has been delivered
	paced         // open loop at pacedRate, timed from each tick's due time
	phases
)

// lane is one system under test with what it measured. An end-to-end run
// has one lane; the layer pass feeds the same chunks to several in turn.
type lane struct {
	name      string
	tg        target
	pointOnly bool   // a baseline: point queries only, nothing to subscribe to
	pace      bool   // honours the paced phase; other lanes catch up unpaced
	probe     *probe // nil when nobody subscribes
	s         [phases]samples
}

// settler is a target with counting to do after a tick, outside its timing.
type settler interface{ settle() }

// deliveree is a target that records when a tick's last diff arrived.
type deliveree interface{ delivered(at time.Time) }

// run is one pass over one workload: a stream, the lanes it feeds and the
// tally of operations.
type run struct {
	sp     spec
	st     stream
	lanes  []*lane
	ops    ops
	rec    *recorder // the layer pass's spans; nil in an end-to-end run
	closer []func()  // what to stop besides the lanes, in order
	round  int
	closed bool
	ticks  int         // measured ticks so far
	last   []tickInput // the latest chunk, for the wire layer
	genS   float64     // seconds spent generating measured chunks
	wait   *time.Timer // the one-second limit on a probe delivery
	sched  schedule    // of the paced phase
}

// schedule is the open-loop schedule of the paced phase: tick i of the phase
// is due at origin + i periods, whatever the system did with the ticks before
// it, so that lateness and backlog build up over the whole phase. The
// schedule's clock stands still while the benchmark does work of its own
// between two stretches of paced ticks — the oracle, the unpaced lanes'
// catching up, a saturated stretch, generating the next paced one — by moving
// the origin on by as long as that took: what the system was behind before
// the pause it is still behind after it.
type schedule struct {
	origin time.Time
	paused time.Time // when the last stretch of paced ticks ended
	sent   int       // paced ticks so far
}

// resume starts the schedule's clock, at the first call, or starts it again.
func (s *schedule) resume() {
	now := time.Now()
	if s.origin.IsZero() {
		s.origin = now
		return
	}
	s.origin = s.origin.Add(now.Sub(s.paused))
}

// next returns the due time of the next paced tick.
func (s *schedule) next() time.Time {
	due := s.origin.Add(time.Duration(s.sent) * (time.Second / pacedRate))
	s.sent++
	return due
}

// setUp builds the stream, lets build make the lanes, then bootstraps every
// lane, registers the queries, subscribes and runs the warm-up ticks. What it returns is ready for its first measured tick.
func setUp(sp spec, seed int64, build func(r *run) error) (*run, error) {
	st, err := sp.stream(seed)
	if err != nil {
		return nil, err
	}
	r := &run{sp: sp, st: st, wait: time.NewTimer(time.Hour)}
	if err := build(r); err != nil {
		r.close()
		return nil, err
	}
	objs := st.objects()
	defs := st.queries()
	probeQuery := defs[len(defs)-1].id
	for _, l := range r.lanes {
		if err := l.tg.bootstrap(objs); err != nil {
			r.close()
			return nil, fmt.Errorf("%s: bootstrap: %w", l.name, err)
		}
		for _, d := range defs {
			if l.pointOnly && d.kind != kindPoint {
				continue
			}
			if err := l.tg.register(d); r.ops.did(err) {
				r.ops.fail(err, "%s: register query %d", l.name, d.id)
			}
		}
		if l.pointOnly {
			continue
		}
		if l.probe, err = l.tg.watch(probeQuery); err != nil {
			r.close()
			return nil, fmt.Errorf("%s: subscribe: %w", l.name, err)
		}
	}
	for done := 0; done < sp.warmup; done += sp.chunk {
		chunk := st.next(min(sp.chunk, sp.warmup-done))
		for _, l := range r.lanes {
			r.runChunk(l, chunk, closed, nil)
		}
	}
	return r, nil
}

func us(d time.Duration) float64 { return float64(d) / 1e3 }

// close stops the lanes' subscribers and targets, then everything else.
func (r *run) close() {
	if r.closed {
		return
	}
	r.closed = true
	for _, l := range r.lanes {
		if l.probe != nil {
			l.probe.close()
		}
		l.tg.close()
	}
	for _, f := range r.closer {
		f()
	}
	r.wait.Stop()
}

// runChunk drives one lane through one chunk. With s nil nothing is
// recorded: a warm-up.
func (r *run) runChunk(l *lane, chunk []tickInput, phase int, s *samples) {
	var before runtime.MemStats
	if s != nil {
		runtime.ReadMemStats(&before)
	}
	onSchedule := phase == paced && l.pace
	if onSchedule {
		r.sched.resume()
	}
	for i := range chunk {
		in := &chunk[i]
		for _, d := range in.churn {
			if err := l.tg.remove(d.id); r.ops.did(err) {
				r.ops.fail(err, "%s: remove query %d", l.name, d.id)
			}
			t := time.Now()
			err := l.tg.register(d)
			if s != nil {
				s.regUs = append(s.regUs, us(time.Since(t)))
			}
			if r.ops.did(err) {
				r.ops.fail(err, "%s: register query %d", l.name, d.id)
			}
		}
		if r.rec != nil && s != nil {
			r.rec.tick.Store(int32(r.ticks + i))
		}
		start := time.Now()
		if onSchedule {
			// Open loop: the tick is due on the schedule whatever the
			// system did with the last one, and is timed from then.
			due := r.sched.next()
			time.Sleep(due.Sub(start))
			if late := time.Since(due); s != nil {
				s.lateUs = append(s.lateUs, us(max(late, 0)))
				s.backlog = max(s.backlog, int(late/(time.Second/pacedRate)))
			}
			start = due
		}
		err := l.tg.tick(in.batch)
		took := time.Since(start)
		if r.rec != nil {
			r.rec.tick.Store(-1) // what follows is not part of the tick
		}
		if r.ops.did(err) {
			r.ops.fail(err, "%s: tick", l.name)
		}
		if t, ok := l.tg.(settler); ok {
			t.settle()
		}
		var deliver time.Duration
		if l.probe != nil {
			deliver = r.await(l, start)
		}
		if s != nil {
			s.tickUs = append(s.tickUs, us(took))
			s.tickNo = append(s.tickNo, int32(r.ticks+i))
			s.deliverUs = append(s.deliverUs, us(deliver))
			s.updates = append(s.updates, float64(len(in.batch.Objects)+len(in.batch.Queries)))
		}
	}
	if onSchedule {
		r.sched.paused = time.Now()
	}
	if s != nil {
		var after runtime.MemStats
		runtime.ReadMemStats(&after)
		s.allocs = append(s.allocs, float64(after.Mallocs-before.Mallocs)/float64(len(chunk)))
	}
}

// await waits for the arrival of the tick's last diff and returns how long
// after start it came. A diff not seen within a second is a failed operation.
func (r *run) await(l *lane, start time.Time) time.Duration {
	r.wait.Reset(time.Second) // go 1.23 timers: no stale value survives a Reset
	select {
	case at := <-l.probe.seen:
		if t, ok := l.tg.(deliveree); ok {
			t.delivered(at)
		}
		r.ops.did(nil)
		return at.Sub(start)
	case <-r.wait.C:
		r.ops.did(nil)
		r.ops.fail(errors.New("not seen within a second"), "%s: probe diff", l.name)
		return time.Second
	}
}

// budget is how much to measure: a number of ticks, or else seconds.
type budget struct {
	ticks   int
	seconds float64
}

// scaled returns the share f of the budget; of a number of ticks the nearest
// whole number and at least one.
func (b budget) scaled(f float64) budget {
	out := budget{seconds: b.seconds * f}
	if b.ticks > 0 {
		out.ticks = max(int(math.Round(float64(b.ticks)*f)), 1)
	}
	return out
}

// checkEvery is how many measured ticks pass between two comparisons of
// every live query with the oracle.
const checkEvery = 300

// segment is a stretch of ticks generated ahead of their run, with the state
// the system must hold after them.
type segment struct {
	ticks []tickInput
	after *mirror
}

// pregenerate makes the whole paced phase before its first tick — a chunk
// generated between two paced ticks would take time the schedule does not
// have — in segments that end where the oracle checks. The time goes to
// loadgen.gen_s, not to setup_s: it is the benchmark's, not the system's.
func (r *run) pregenerate(b budget) []segment {
	n := b.ticks
	if n == 0 {
		n = max(int(b.seconds*pacedRate), 1)
	}
	t := time.Now()
	r.st.retain(true)
	var segs []segment
	for done := 0; done < n; done += checkEvery {
		ticks := r.st.next(min(checkEvery, n-done))
		segs = append(segs, segment{ticks, r.st.state().clone()})
	}
	r.st.retain(false)
	r.genS += time.Since(t).Seconds()
	return segs
}

// measure runs one phase: chunk after chunk, each generated outside the
// timed region and fed to every lane in rotating order, until the budget is
// spent; at least one chunk. Every checkEvery ticks, at a chunk's end, every
// live query of every lane is compared with the oracle. The paced phase runs
// on chunks generated ahead, one to a check.
func (r *run) measure(phase int, b budget) {
	done, checked := 0, 0
	// feed runs the lanes through a chunk; after is the state it leaves.
	feed := func(chunk []tickInput, after *mirror) {
		r.last = chunk
		for i := range r.lanes {
			l := r.lanes[(i+r.round)%len(r.lanes)]
			r.runChunk(l, chunk, phase, &l.s[phase])
		}
		r.round++
		r.ticks += len(chunk)
		if done += len(chunk); done-checked >= checkEvery {
			r.check(after)
			checked = done
		}
	}
	if phase == paced {
		for _, seg := range r.pregenerate(b) {
			feed(seg.ticks, seg.after)
		}
	} else {
		for begin := time.Now(); ; {
			n := r.sp.chunk
			if b.ticks > 0 {
				n = min(n, b.ticks-done)
			} else if done > 0 && time.Since(begin).Seconds() >= b.seconds {
				break
			}
			if n <= 0 {
				break
			}
			t := time.Now()
			chunk := r.st.next(n)
			r.genS += time.Since(t).Seconds()
			feed(chunk, r.st.state())
		}
	}
	if done > checked {
		r.check(r.st.state())
	}
}

// check compares every live query of every lane with the oracle's answer on
// the state m.
func (r *run) check(m *mirror) {
	for _, d := range m.defs {
		var want []cpm.Neighbor
		for _, l := range r.lanes {
			if l.pointOnly && d.kind != kindPoint {
				continue
			}
			if want == nil {
				want = answer(m, d)
			}
			got, err := l.tg.result(d.id)
			if err == nil {
				diff, tie := differs(got, want)
				if diff != "" {
					err = errors.New(diff)
				} else if tie {
					r.ops.ties++
				}
			}
			if r.ops.did(err) {
				r.ops.fail(err, "%s: result of query %d at tick %d", l.name, d.id, r.ticks)
			}
			r.ops.checked++
		}
	}
}

// lost returns how many events the lanes' subscribers know they missed.
func (r *run) lost() (n int) {
	for _, l := range r.lanes {
		if l.probe != nil {
			n += int(l.probe.lost.Load())
		}
	}
	return n
}
