package main

import (
	"fmt"
	"runtime"
	"time"

	"cpm"
)

// endToEndUnits names the end-to-end metrics, which BENCHMARK.json bounds,
// with their units. Every workload prints every one of them, and none is
// ever 0. A test holds this table and BENCHMARK.json to each other.
var endToEndUnits = map[string]string{
	"setup_s":         "s",
	"tick_p50_us":     "us",
	"updates_per_s":   "1/s",
	"deliver_p50_us":  "us",
	"allocs_per_tick": "count",
	"heap_mb":         "MB",
}

// result is what one pass over one workload reports.
type result struct {
	Workload      string `json:"workload"`
	Seed          int64  `json:"seed"`
	Trace         int    `json:"trace"`
	Nproc         int    `json:"nproc"`
	Gomaxprocs    int    `json:"gomaxprocs"`
	Ticks         int    `json:"ticks"`
	Ops           int    `json:"ops"`
	OpsFailed     int    `json:"ops_failed"`
	OracleChecked int    `json:"oracle_checked"`
	TieBreaks     int    `json:"tie_breaks"` // answers that kept another object at exactly the cut-off distance
	StreamHash    string `json:"stream_hash"`
	// DisturbedPct is how much slower the run's median tick was than the
	// median of the quiet eighth the timings are taken on: what the shared
	// box did to the run.
	DisturbedPct float64 `json:"disturbed_pct"`
	// Unbounded holds what an end-to-end run also measured, on the quiet
	// eighth, but no bound of 25 % holds on this box: the 90th percentiles
	// and the registration latency. See README.md.
	Unbounded map[string]measure `json:"unbounded,omitempty"`
	Metrics   map[string]measure `json:"metrics"`
}

func (r *run) result(seed int64, trace int, metrics map[string]measure) result {
	// An event the subscriber knows it lost is a failed delivery.
	lost := r.lost()
	return result{
		Workload: r.sp.name, Seed: seed, Trace: trace,
		Nproc: runtime.NumCPU(), Gomaxprocs: runtime.GOMAXPROCS(0),
		Ticks: r.ticks, Ops: r.ops.attempted + lost, OpsFailed: r.ops.failed + lost,
		OracleChecked: r.ops.checked, TieBreaks: r.ops.ties, StreamHash: fmt.Sprintf("%016x", r.st.sum()),
		Metrics: metrics,
	}
}

// buildEndToEnd makes the one lane of an end-to-end run: a one-shard monitor
// in process, or a driver of the served stack.
func buildEndToEnd(r *run) error {
	if !r.sp.served {
		m := cpm.NewMonitor(cpm.Options{GridSize: r.sp.grid, Shards: 1})
		r.lanes = []*lane{{name: "cpm", tg: monitorTarget{m}}}
		return nil
	}
	st, err := newStack(r.sp.grid, 2, nil)
	if err != nil {
		return err
	}
	r.closer = append(r.closer, st.close)
	tg, err := st.dial(false)
	if err != nil {
		return err
	}
	r.lanes = []*lane{{name: "served", tg: tg, pace: true}}
	return nil
}

// A served run goes through its two phases servedRounds times: a stretch of
// paced ticks, then a stretch of saturated ones. The box changes pace by the
// ten seconds; a phase measured in one piece takes the pace of the seconds it
// fell in, and the phase after it another. Cut up and interleaved, each phase
// sees the whole run. pacedShare is the part of every round that goes to the
// paced phase.
const (
	servedRounds = 5
	pacedShare   = 0.5
)

// measureAll runs the workload's phases on the budget.
func (r *run) measureAll(b budget) {
	if !r.sp.served {
		r.measure(closed, b)
		return
	}
	rounds := servedRounds
	if b.ticks > 0 {
		rounds = min(rounds, b.ticks) // a tick to a phase at the least, not ten to a run of one
	}
	round := b.scaled(1 / float64(rounds))
	for i := 0; i < rounds; i++ {
		r.measure(paced, round.scaled(pacedShare))
		r.measure(closed, round.scaled(1-pacedShare))
	}
}

// endToEnd is the pass with every span off. It sets the workload up several
// times, at least twice, and measures on the last. The set-ups before it give the median
// set-up time with it and, torn down with the stream let go, the heap the
// system holds after a fixed number of ticks: at the end of a run that lasts
// a fixed time the heap depends on how many ticks the box got through.
func endToEnd(sp spec, seed int64, b budget, setups int) (result, error) {
	var r *run
	var setupS, heapMB []float64
	for i := 0; i < setups; i++ {
		if r != nil {
			r.st, r.last = nil, nil
			runtime.GC()
			runtime.GC()
			var ms runtime.MemStats
			runtime.ReadMemStats(&ms)
			heapMB = append(heapMB, float64(ms.HeapAlloc)/(1<<20))
			r.close()
		}
		start := time.Now()
		var err error
		if r, err = setUp(sp, seed, buildEndToEnd); err != nil {
			return result{}, err
		}
		setupS = append(setupS, time.Since(start).Seconds())
	}
	defer r.close()
	r.measureAll(b)

	l := r.lanes[0]
	first, last := &l.s[sp.firstPhase()], &l.s[closed]
	ticks := quiet(first.tickUs, blockTicks)
	delivers := quiet(first.deliverUs, blockTicks)
	// Registrations are read in the closed-loop phase: between paced ticks
	// the stack is idle and a round trip mostly measures waking it up.
	regs := quiet(last.regUs, regBlock(last))
	m := map[string]measure{
		"setup_s":         {median(setupS), "s"},
		"tick_p50_us":     {quantile(ticks, 0.5), "us"},
		"deliver_p50_us":  {quantile(delivers, 0.5), "us"},
		"updates_per_s":   {throughput(sp, last), "1/s"},
		"allocs_per_tick": {median(first.allocs), "count"},
		"heap_mb":         {median(heapMB), "MB"},
	}
	res := r.result(seed, 0, m)
	res.DisturbedPct = 100 * (median(first.tickUs)/m["tick_p50_us"].Value - 1)
	res.Unbounded = map[string]measure{
		"tick_p90_us":     {quantile(ticks, 0.9), "us"},
		"deliver_p90_us":  {quantile(delivers, 0.9), "us"},
		"register_p50_us": {quantile(regs, 0.5), "us"},
	}
	return res, nil
}

// throughput is the updates applied per second of tick time. In process it is
// taken on the quiet blocks, like every timing. The saturated ticks of the
// served stack are read whole, as updates per tick over the median tick: one
// of them is a chain of hand-overs between six goroutines on two cores, how
// many of them go without a wait comes in streaks, and the fastest eighth of
// a run's blocks says how its streaks fell, not how fast the stack is. Over
// 56 runs the quiet eighth spread 14 to 16 %, the median 8 to 10 %, as much as
// the paced ticks of the same runs.
func throughput(sp spec, s *samples) float64 {
	if sp.served {
		return mean(s.updates) / median(s.tickUs) * 1e6
	}
	busy, block := quietBlocks(s.tickUs, blockTicks)
	return sum(pool(s.updates, busy, block)) / sum(pool(s.tickUs, busy, block)) * 1e6
}
