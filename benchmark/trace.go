package main

import (
	"runtime"
	"time"

	"cpm"
)

// The layer pass. Every span is recorded in the benchmark's own code around
// a public call of the program; nothing inside the program is touched. Two
// rigs do it:
//
//   - in process, the staged rig (stagedTarget) runs a one-shard monitor's
//     pipeline by hand, one span per call, in lockstep with an untraced
//     cpm.Monitor fed the same chunks. The layers' self times are summed and
//     compared with the untraced monitor's tick: what is left is
//     e2e.unattributed_pct, what the rig costs is e2e.trace_overhead_pct.
//   - served, the decorator rig (spanBackend) wraps the backend of every
//     server, next to a plain stack fed the same chunks. The root span is the
//     driver's round trip, its child the coordinator's Tick, its grandchildren
//     the workers' Ticks.
//
// paper-default alone also carries the ratios to the baselines: four more
// lanes without a subscriber — a one-shard and a two-shard monitor, YPK-CNN
// and SEA-CNN — take the same chunks in rotating order.

// layerUnits names every per-layer metric with its unit. Every workload
// prints all of them; one it does not exercise reads 0.
var layerUnits = map[string]string{
	"grid.apply_us":                     "us",
	"grid.apply_ns_per_update":          "ns",
	"grid.cell_cross_pct":               "%",
	"grid.invalid_updates":              "count",
	"grid.objects_per_nonempty_cell":    "count",
	"core.begin_us":                     "us",
	"core.scan_us":                      "us",
	"core.queryupd_us":                  "us",
	"core.takediffs_us":                 "us",
	"core.register_p50_us":              "us",
	"core.cell_accesses_per_query_tick": "count",
	"core.objects_processed_per_tick":   "count",
	"core.heap_ops_per_tick":            "count",
	"core.recomputations_per_tick":      "count",
	"core.full_searches_per_tick":       "count",
	"core.short_circuit_pct":            "%",
	"core.mem_units":                    "count",
	"conc.walk_ns_per_cell":             "ns",
	"qheap.ns_per_op":                   "ns",
	"shard.tick_p50_us":                 "us",
	"shard.fanout_overhead_us":          "us",
	"shard_speedup":                     "x",
	"baseline.ypk_tick_p50_us":          "us",
	"baseline.sea_tick_p50_us":          "us",
	"baseline.ypk_cells_per_query_tick": "count",
	"baseline.sea_cells_per_query_tick": "count",
	"speedup_vs_ypk":                    "x",
	"speedup_vs_sea":                    "x",
	"notify.publish_us":                 "us",
	"notify.publish_ns_per_diff":        "ns",
	"notify.deliver_us":                 "us",
	"notify.dropped":                    "count",
	"wire.tick_encode_ns_per_update":    "ns",
	"wire.tick_decode_ns_per_update":    "ns",
	"wire.event_encode_ns":              "ns",
	"wire.event_decode_ns":              "ns",
	"wire.bytes_up_per_tick":            "B",
	"wire.bytes_down_per_tick":          "B",
	"server.front_hop_self_us":          "us",
	"server.worker_tick_span_us":        "us",
	"server.event_hop_us":               "us",
	"server.frames_in_per_tick":         "count",
	"server.frames_out_per_tick":        "count",
	"server.gap_frames":                 "count",
	"cluster.tick_span_us":              "us",
	"cluster.fanout_self_us":            "us",
	"cluster.worker_skew_pct":           "%",
	"cluster.op_retries":                "count",
	"cluster.op_timeouts":               "count",
	"cluster.desyncs":                   "count",
	"loadgen.gen_s":                     "s",
	"loadgen.late_p99_us":               "us",
	"loadgen.backlog_max":               "count",
	"e2e.tick_mean_us":                  "us",
	"e2e.tick_p50_us":                   "us",
	"e2e.tick_p90_us":                   "us",
	"e2e.deliver_p90_us":                "us",
	"e2e.register_p50_us":               "us",
	"e2e.tick_p99_us":                   "us",
	"e2e.tick_max_us":                   "us",
	"e2e.unattributed_pct":              "%",
	"e2e.trace_overhead_pct":            "%",
	"e2e.gc_cycles":                     "count",
	"e2e.gc_pause_ms":                   "ms",
	"e2e.slo_miss_pct":                  "%",
	"e2e.diffs_per_tick":                "count",
	"e2e.updates_per_tick":              "count",
	"code.nontest_lines":                "count",
	"code.grid_lines":                   "count",
	"code.core_lines":                   "count",
	"code.shard_lines":                  "count",
	"code.notify_lines":                 "count",
	"code.wire_lines":                   "count",
	"code.server_lines":                 "count",
	"code.client_lines":                 "count",
	"code.cluster_lines":                "count",
}

// tracedClient is the driver of the decorated stack: every request is the
// root span the coordinator's span hangs from.
type tracedClient struct {
	*clientTarget
	rec *recorder
}

func (t tracedClient) root(name string) int32 {
	id := t.rec.begin(name, -1)
	t.rec.root.Store(id)
	return id
}

func (t tracedClient) tick(b cpm.Batch) error {
	defer t.rec.end(t.root("rtt"))
	return t.clientTarget.tick(b)
}

func (t tracedClient) register(d qdef) error {
	defer t.rec.end(t.root("register.rtt"))
	return t.clientTarget.register(d)
}

func (t tracedClient) remove(id cpm.QueryID) error {
	defer t.rec.end(t.root("remove.rtt"))
	return t.clientTarget.remove(id)
}

// delivered records the event hop: from the end of the coordinator's Tick to
// the arrival of the tick's last diff at the subscriber.
func (t tracedClient) delivered(at time.Time) {
	t.rec.mu.Lock()
	c := t.rec.spans[t.rec.coord.Load()]
	t.rec.mu.Unlock()
	t.rec.add(span{Name: "server.event_hop", Start: c.End, End: t.rec.since(at), Parent: c.Parent, Tick: c.Tick})
}

// layerRun is a layer pass in the making.
type layerRun struct {
	*run
	rec    *recorder
	staged *stagedTarget // in process
	traced *stack        // served
	stats  func() cpm.Stats
	quiet  map[int32]bool // the measured ticks the layer spans are read on
	m      map[string]measure
}

func (lr *layerRun) build(r *run) error {
	lr.run, r.rec = r, lr.rec
	sp := r.sp
	if sp.served {
		for _, rec := range []*recorder{nil, lr.rec} {
			st, err := newStack(sp.grid, 2, rec)
			if err != nil {
				return err
			}
			r.closer = append(r.closer, st.close)
			tg, err := st.dial(rec != nil)
			if err != nil {
				return err
			}
			if rec == nil {
				r.lanes = append(r.lanes, &lane{name: "untraced", tg: tg})
				continue
			}
			lr.traced = st
			r.lanes = append(r.lanes, &lane{name: "traced", tg: tracedClient{tg, rec}, pace: true})
		}
		lr.stats = func() (s cpm.Stats) {
			for _, m := range lr.traced.mons {
				s.Add(m.Stats())
			}
			return s
		}
		return nil
	}
	opts := cpm.Options{GridSize: sp.grid, Shards: 1}
	lr.staged = newStaged(sp.grid, lr.rec)
	lr.stats = lr.staged.e.Stats
	r.lanes = []*lane{
		{name: "untraced", tg: monitorTarget{cpm.NewMonitor(opts)}},
		{name: "traced", tg: lr.staged},
	}
	if sp.baselines {
		two := opts
		two.Shards = 2
		r.lanes = append(r.lanes,
			&lane{name: "cpm1", tg: monitorTarget{cpm.NewMonitor(opts)}, pointOnly: true},
			&lane{name: "cpm2", tg: monitorTarget{cpm.NewMonitor(two)}, pointOnly: true},
			&lane{name: "ypk", tg: methodTarget{cpm.NewYPKMonitor(opts)}, pointOnly: true},
			&lane{name: "sea", tg: methodTarget{cpm.NewSEAMonitor(opts)}, pointOnly: true},
		)
	}
	return nil
}

func (lr *layerRun) lane(name string) *lane {
	for _, l := range lr.lanes {
		if l.name == name {
			return l
		}
	}
	return nil
}

// paired returns the median, over the chunks, of the ratio of two lanes'
// time on the same chunk.
func (lr *layerRun) paired(num, den []float64) float64 {
	var ratios []float64
	for at := 0; at < len(den); at += lr.sp.chunk {
		to := min(at+lr.sp.chunk, len(den))
		ratios = append(ratios, sum(num[at:to])/sum(den[at:to]))
	}
	return median(ratios)
}

func (lr *layerRun) set(name string, v float64) {
	lr.m[name] = measure{Value: v, Unit: layerUnits[name]}
}

func p50(xs []float64) float64 { return quantile(xs, 0.5) }

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	return sum(xs) / float64(len(xs))
}

// mean averages a per-tick quantity over the quiet ticks.
func (lr *layerRun) mean(byTick map[int32]float64) float64 {
	var vals []float64
	for tick, v := range byTick {
		if lr.quiet[tick] {
			vals = append(vals, v)
		}
	}
	return mean(vals)
}

func total(byTick map[int32]float64) (t float64) {
	for _, v := range byTick {
		t += v
	}
	return t
}

func pctOf(part, whole float64) float64 {
	if whole == 0 {
		return 0
	}
	return 100 * part / whole
}

// layerPass runs the workload once with the spans on and prints every
// per-layer metric.
func layerPass(sp spec, seed int64, b budget, traceOut string) (result, error) {
	// Short chunks: the lanes are compared with each other, and the closer in
	// time they run the same ticks, the less the box comes between them.
	sp.chunk = min(sp.chunk, 20)
	lr := &layerRun{rec: newRecorder(), m: map[string]measure{}}
	for name, unit := range layerUnits {
		lr.m[name] = measure{Unit: unit}
	}
	r, err := setUp(sp, seed, lr.build)
	if err != nil {
		return result{}, err
	}
	defer r.close()

	// What the counters read before the first measured tick.
	stats0 := lr.stats()
	var diffs0, applied0 int64
	var frames0 [2]float64
	var bytes0 [2]int64
	var base0 [2]cpm.Stats
	if lr.staged != nil {
		diffs0, applied0 = lr.staged.diffs, lr.staged.applied
	} else {
		diffs0 = lr.lane("traced").probe.events.Load()
		frames0 = [2]float64{lr.traced.counter("cpm_server_frames_in_total"), lr.traced.counter("cpm_server_frames_out_total")}
		bytes0 = [2]int64{lr.traced.up.Load(), lr.traced.down.Load()}
	}
	for i, name := range []string{"ypk", "sea"} {
		if l := lr.lane(name); l != nil {
			base0[i] = l.tg.(methodTarget).m.Stats()
		}
	}
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)

	r.measureAll(b)

	runtime.ReadMemStats(&ms1)
	ticks := float64(r.ticks)
	queries := float64(len(r.st.queries()))
	untraced, traced := lr.lane("untraced"), lr.lane("traced")
	spans := lr.rec.spans
	dur := func(i int) int64 { return spans[i].End - spans[i].Start }
	// Layer spans are read on the quiet eighth of the traced lane's
	// closed-loop ticks, where it does what the untraced lane does, and are
	// given as means, because means add up: the layers' self times and the
	// rig's own glue make exactly the traced tick.
	lr.quiet = map[int32]bool{}
	starts, size := quietBlocks(traced.s[closed].tickUs, blockTicks)
	for _, at := range starts {
		for _, tick := range traced.s[closed].tickNo[at : at+size] {
			lr.quiet[tick] = true
		}
	}
	layer := func(name string, f func(int) int64) float64 { return lr.mean(perTick(spans, name, f)) }

	calm := quiet(untraced.s[closed].tickUs, blockTicks)
	base := mean(calm)
	lr.set("e2e.tick_mean_us", base)
	lr.set("e2e.tick_p50_us", p50(calm))
	lr.set("e2e.tick_p90_us", quantile(calm, 0.9))
	lr.set("e2e.deliver_p90_us", quantile(quiet(untraced.s[closed].deliverUs, blockTicks), 0.9))
	lr.set("e2e.register_p50_us", p50(quiet(untraced.s[closed].regUs, regBlock(&untraced.s[closed]))))
	lr.set("e2e.tick_p99_us", quantile(untraced.s[closed].tickUs, 0.99))
	lr.set("e2e.tick_max_us", quantile(untraced.s[closed].tickUs, 1))
	// The two lanes take each chunk one right after the other, so their
	// ratio is taken chunk by chunk: what the box does to one lane's chunk
	// it mostly does to the other's.
	overhead := lr.paired(traced.s[closed].tickUs, untraced.s[closed].tickUs) - 1
	lr.set("e2e.trace_overhead_pct", 100*overhead)
	lr.set("e2e.gc_cycles", float64(ms1.NumGC-ms0.NumGC))
	lr.set("e2e.gc_pause_ms", float64(ms1.PauseTotalNs-ms0.PauseTotalNs)/1e6)
	lr.set("e2e.updates_per_tick", (sum(traced.s[closed].updates)+sum(traced.s[paced].updates))/ticks)
	lr.set("loadgen.gen_s", r.genS)

	// The engine's own counters, as deltas over the measured ticks.
	st := lr.stats()
	lr.set("core.cell_accesses_per_query_tick", float64(st.CellAccesses-stats0.CellAccesses)/ticks/queries)
	lr.set("core.objects_processed_per_tick", float64(st.ObjectsProcessed-stats0.ObjectsProcessed)/ticks)
	lr.set("core.heap_ops_per_tick", float64(st.HeapOps-stats0.HeapOps)/ticks)
	lr.set("core.recomputations_per_tick", float64(st.Recomputations-stats0.Recomputations)/ticks)
	lr.set("core.full_searches_per_tick", float64(st.FullSearches-stats0.FullSearches)/ticks)
	short := float64(st.ShortCircuits - stats0.ShortCircuits)
	lr.set("core.short_circuit_pct", pctOf(short, short+float64(st.Recomputations-stats0.Recomputations)))
	lr.set("qheap.ns_per_op", heapOpNs(int(lr.m["core.heap_ops_per_tick"].Value)))
	enc, dec := wireTickNs(r.last)
	lr.set("wire.tick_encode_ns_per_update", enc)
	lr.set("wire.tick_decode_ns_per_update", dec)

	if s := lr.staged; s != nil {
		// The layers' shares are taken within the traced lane, of its own
		// tick on the same quiet ticks, and carried over to the untraced
		// tick by the paired ratio of the two lanes.
		var attributed float64
		for _, l := range []struct{ span, metric string }{
			{"grid.apply", "grid.apply_us"}, {"core.begin", "core.begin_us"}, {"core.scan", "core.scan_us"},
			{"core.queryupd", "core.queryupd_us"}, {"core.takediffs", "core.takediffs_us"},
			{"notify.publish", "notify.publish_us"},
		} {
			v := layer(l.span, dur) // no span below it: its self time is its duration
			lr.set(l.metric, v)
			attributed += v
		}
		lr.set("e2e.unattributed_pct", 100*(1-attributed/layer("tick", dur)*(1+overhead)))
		lr.set("notify.deliver_us", layer("notify.deliver", dur))
		lr.set("core.register_p50_us", p50(spanUs(spans, "core.register")))
		lr.set("grid.apply_ns_per_update", total(perTick(spans, "grid.apply", dur))*1e3/float64(s.applied-applied0))
		lr.set("grid.cell_cross_pct", pctOf(float64(s.crossed), float64(s.moves)))
		lr.set("grid.invalid_updates", float64(s.invalid))
		lr.set("grid.objects_per_nonempty_cell", s.g.MeanOccupancy())
		lr.set("core.mem_units", float64(s.e.MemoryFootprint()))
		lr.set("conc.walk_ns_per_cell", concWalkNs(sp.grid, r.st.queries(), s.e.BestDist))
		lr.set("notify.publish_ns_per_diff", total(perTick(spans, "notify.publish", dur))*1e3/float64(s.diffs-diffs0))
		lr.set("e2e.diffs_per_tick", float64(s.diffs-diffs0)/ticks)
	} else {
		lr.servedLayers(spans, base, ticks, frames0, bytes0)
		lr.set("e2e.diffs_per_tick", float64(traced.probe.events.Load()-diffs0)/ticks)
	}
	if sp.baselines {
		lr.ratios(base0, ticks)
	}
	codeMetrics(lr.m)

	// The subscribers stop before what they kept and lost is read.
	res := r.result(seed, 1, lr.m)
	r.close()
	lr.set("notify.dropped", lr.m["notify.dropped"].Value+float64(r.lost()))
	enc, dec = wireEventNs(traced.probe.kept)
	lr.set("wire.event_encode_ns", enc)
	lr.set("wire.event_decode_ns", dec)
	if traceOut != "" {
		if err := lr.rec.write(traceOut); err != nil {
			return result{}, err
		}
	}
	return res, nil
}

// spanUs returns the durations of every span called name, in microseconds.
func spanUs(spans []span, name string) []float64 {
	var out []float64
	for _, s := range spans {
		if s.Name == name {
			out = append(out, float64(s.End-s.Start)/1e3)
		}
	}
	return out
}

// servedLayers fills in what the decorator rig shows. Per tick the driver's
// round trip splits into the front hop (client, wire, front server: the round
// trip minus the coordinator's Tick), the coordinator's own share (its Tick
// minus the slowest worker's: fan-out, worker links, merge, mirror) and the
// slowest worker's Tick; the three add up to the round trip.
func (lr *layerRun) servedLayers(spans []span, base, ticks float64, frames0 [2]float64, bytes0 [2]int64) {
	dur := func(i int) int64 { return spans[i].End - spans[i].Start }
	rtt, coord := perTick(spans, "rtt", dur), perTick(spans, "cluster.tick", dur)
	workers := perTick(spans, "worker.tick", dur)
	slowest := map[int32]float64{}
	for _, s := range spans {
		if s.Name == "worker.tick" && s.Tick >= 0 {
			slowest[s.Tick] = max(slowest[s.Tick], float64(s.End-s.Start)/1e3)
		}
	}
	front, fanout, skew := map[int32]float64{}, map[int32]float64{}, map[int32]float64{}
	for tick, w := range slowest {
		front[tick] = rtt[tick] - coord[tick]
		fanout[tick] = coord[tick] - w
		skew[tick] = 100 * (w*2/workers[tick] - 1) // two workers: slowest over mean
	}
	lr.set("server.front_hop_self_us", lr.mean(front))
	lr.set("cluster.tick_span_us", lr.mean(coord))
	lr.set("cluster.fanout_self_us", lr.mean(fanout))
	lr.set("server.worker_tick_span_us", lr.mean(slowest))
	lr.set("cluster.worker_skew_pct", lr.mean(skew))
	// The three shares make the traced round trip exactly; what is left of
	// the untraced one is what the rig costs, with its sign turned.
	lr.set("e2e.unattributed_pct", -lr.m["e2e.trace_overhead_pct"].Value)
	lr.set("server.event_hop_us", p50(spanUs(spans, "server.event_hop")))

	st := lr.traced
	lr.set("server.frames_in_per_tick", (st.counter("cpm_server_frames_in_total")-frames0[0])/ticks)
	lr.set("server.frames_out_per_tick", (st.counter("cpm_server_frames_out_total")-frames0[1])/ticks)
	lr.set("server.gap_frames", st.counter("cpm_server_gap_frames_total"))
	lr.set("notify.dropped", st.counter("cpm_server_hub_dropped_total"))
	lr.set("cluster.op_retries", st.counter("cpm_coord_op_retries_total"))
	lr.set("cluster.op_timeouts", st.counter("cpm_coord_op_timeouts_total"))
	lr.set("cluster.desyncs", st.counter("cpm_coord_worker_desyncs_total"))
	lr.set("wire.bytes_up_per_tick", float64(st.up.Load()-bytes0[0])/ticks)
	lr.set("wire.bytes_down_per_tick", float64(st.down.Load()-bytes0[1])/ticks)

	// The paced phase: how late the generator ran, and how many ticks missed
	// the limit of one tick period from due time to last diff.
	s := &lr.lane("traced").s[paced]
	lr.set("loadgen.late_p99_us", quantile(s.lateUs, 0.99))
	lr.set("loadgen.backlog_max", float64(s.backlog))
	missed := 0
	for _, d := range s.deliverUs {
		if d > sloUs {
			missed++
		}
	}
	lr.set("e2e.slo_miss_pct", pctOf(float64(missed), float64(len(s.deliverUs))))
}

// ratios fills in what the four subscriber-free lanes of paper-default show:
// CPM's wall-clock ratio to the two baselines and of one shard to two, each
// the median over the chunks of the two lanes' time on the same chunk.
func (lr *layerRun) ratios(base0 [2]cpm.Stats, ticks float64) {
	tick := func(name string) []float64 { return lr.lane(name).s[closed].tickUs }
	cpm1, cpm2, ypk, sea := tick("cpm1"), tick("cpm2"), tick("ypk"), tick("sea")
	lr.set("speedup_vs_ypk", lr.paired(ypk, cpm1))
	lr.set("speedup_vs_sea", lr.paired(sea, cpm1))
	lr.set("shard_speedup", lr.paired(cpm1, cpm2))
	// The absolute times hang on the one-shard lane's quiet eighth.
	one := p50(quiet(cpm1, blockTicks))
	lr.set("shard.tick_p50_us", one/lr.m["shard_speedup"].Value)
	lr.set("shard.fanout_overhead_us", one/lr.m["shard_speedup"].Value-one/2)
	lr.set("baseline.ypk_tick_p50_us", one*lr.m["speedup_vs_ypk"].Value)
	lr.set("baseline.sea_tick_p50_us", one*lr.m["speedup_vs_sea"].Value)
	points := float64(len(lr.st.queries()) - 1) // every query but the probe
	for i, name := range []string{"ypk", "sea"} {
		now := lr.lane(name).tg.(methodTarget).m.Stats()
		lr.set("baseline."+name+"_cells_per_query_tick", float64(now.CellAccesses-base0[i].CellAccesses)/ticks/points)
	}
}
