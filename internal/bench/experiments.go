package bench

import (
	"fmt"
	"math/rand"

	"cpm/internal/analysis"
	"cpm/internal/core"
	"cpm/internal/generator"
	"cpm/internal/geom"
	"cpm/internal/model"
	"cpm/internal/network"
	"cpm/internal/shard"
)

// Options scope an experiment run. Scale multiplies the paper's population
// sizes (Table 6.1); Scale 1 is the full N=100K / n=5K setting.
type Options struct {
	Scale      float64
	Timestamps int
	Seed       int64
	GridSize   int
	// Shards is the CPMSharded worker count (0 = all usable cores).
	Shards int
}

func (o *Options) defaults() {
	if o.Scale <= 0 {
		o.Scale = 0.05
	}
	if o.Timestamps <= 0 {
		o.Timestamps = 20
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
	if o.GridSize <= 0 {
		o.GridSize = 128
	}
}

// baseConfig is the paper's default setting (Table 6.1) at the chosen
// scale: N=100K·scale objects, n=5K·scale queries, k=16, medium speeds,
// f_obj=50%, f_qry=30%, 128×128 grid.
func baseConfig(o Options) Config {
	gen := generator.Defaults(o.Scale)
	gen.Seed = o.Seed + 17
	return Config{
		GridSize:   o.GridSize,
		K:          16,
		Timestamps: o.Timestamps,
		Shards:     o.Shards,
		Net:        network.GenOptions{Width: 32, Height: 32, Seed: o.Seed},
		Gen:        gen,
	}
}

// Experiment regenerates one table/figure of the paper (or one of this
// repository's extension experiments).
type Experiment struct {
	ID    string
	Title string
	Run   func(o Options) (Table, error)
}

// All returns every experiment, in the paper's order. The IDs match
// DESIGN.md §6.
func All() []Experiment {
	return []Experiment{
		fig61.experiment(),
		{"space", "memory footprint at the default setting (footnote 6)", runSpace},
		fig62a.experiment(),
		fig62b.experiment(),
		fig63a.experiment(),
		fig63b.experiment(),
		fig64a.experiment(),
		fig64b.experiment(),
		fig65a.experiment(),
		fig65b.experiment(),
		fig66a.experiment(),
		fig66b.experiment(),
		{"model", "Section 4.1 estimates vs measurement", runModel},
		{"ann", "aggregate NN monitoring throughput (extension)", runANN},
		ablationRecompute.experiment(),
		ablationBatch.experiment(),
		{"ablation.rebalance", "online grid rebalancing vs a frozen grid under hotspot drift", runAblationRebalance},
	}
}

// ByID looks an experiment up.
func ByID(id string) (Experiment, bool) {
	for _, e := range All() {
		if e.ID == id {
			return e, true
		}
	}
	return Experiment{}, false
}

type metric uint8

const (
	metricCPU metric = iota
	metricCells
)

// sweepPoint is one x-axis position of a figure.
type sweepPoint struct {
	label string
	cfg   Config
}

// sweep is a figure drawn by running every method at every point of one
// x-axis over identical workloads.
type sweep struct {
	id, title, xLabel string
	methods           []Method
	metric            metric
	// config is the setting the x-axis varies (baseConfig when nil), and
	// points derives the axis from it.
	config func(Options) Config
	points func(base Config) []sweepPoint
	note   string // appended to the setting's note
}

func (s sweep) experiment() Experiment {
	return Experiment{s.id, s.title, func(o Options) (Table, error) {
		t, _, err := s.run(o)
		return t, err
	}}
}

// run renders the sweep's table and hands back every measurement behind
// it, indexed [point][method], so a caller can check the CPU time and the
// cell accesses of one run together.
func (s sweep) run(o Options) (Table, [][]Measurement, error) {
	o.defaults()
	base := baseConfig(o)
	if s.config != nil {
		base = s.config(o)
	}
	t := Table{ID: s.id, Title: s.title, Note: note(o, base) + s.note, Header: []string{s.xLabel}}
	for _, method := range s.methods {
		t.Header = append(t.Header, method.String())
	}
	var all [][]Measurement
	for _, pt := range s.points(base) {
		row := []string{pt.label}
		meas := make([]Measurement, len(s.methods))
		for i, method := range s.methods {
			m, err := RunMethod(method, pt.cfg)
			if err != nil {
				return Table{}, nil, fmt.Errorf("%s %s@%s: %w", s.id, method, pt.label, err)
			}
			meas[i] = m
			switch s.metric {
			case metricCPU:
				row = append(row, fmtFloat(float64(m.Elapsed.Microseconds())/1000))
			case metricCells:
				row = append(row, fmtFloat(m.CellsPerQueryPerCycle()))
			}
		}
		t.Rows = append(t.Rows, row)
		all = append(all, meas)
	}
	return t, all, nil
}

func note(o Options, cfg Config) string {
	return fmt.Sprintf("N=%d n=%d k=%d grid=%d ts=%d scale=%.3g; CPU in ms total",
		cfg.Gen.N, cfg.Gen.NumQueries, cfg.K, cfg.GridSize, cfg.Timestamps, o.Scale)
}

var fig61 = sweep{
	id: "fig6.1", title: "CPU time vs grid granularity", xLabel: "grid",
	methods: AllMethods,
	points: func(base Config) []sweepPoint {
		var points []sweepPoint
		for _, g := range []int{32, 64, 128, 256, 512, 1024} {
			cfg := base
			cfg.GridSize = g
			points = append(points, sweepPoint{fmt.Sprintf("%d^2", g), cfg})
		}
		return points
	},
}

func runSpace(o Options) (Table, error) {
	o.defaults()
	cfg := baseConfig(o)
	t := Table{
		ID:     "space",
		Title:  "memory footprint at the default setting (footnote 6)",
		Note:   note(o, cfg) + "; units per Section 4.1 (one number = one unit)",
		Header: []string{"method", "memory units"},
	}
	for _, method := range AllMethods {
		meas, err := RunMethod(method, cfg)
		if err != nil {
			return Table{}, err
		}
		t.Rows = append(t.Rows, []string{method.String(), fmt.Sprintf("%d", meas.Memory)})
	}
	return t, nil
}

// nPoints is the N axis of Figures 6.2a and 6.6, 10K..200K around the
// paper's 100K default, with mutate (if any) applied at every point.
func nPoints(mutate func(*Config)) func(Config) []sweepPoint {
	return func(base Config) []sweepPoint {
		var points []sweepPoint
		for _, frac := range []float64{0.1, 0.5, 1.0, 1.5, 2.0} {
			cfg := base
			cfg.Gen.N = max(1, int(float64(cfg.Gen.N)*frac))
			if mutate != nil {
				mutate(&cfg)
			}
			points = append(points, sweepPoint{fmt.Sprintf("%dK", int(100*frac)), cfg})
		}
		return points
	}
}

var fig62a = sweep{
	id: "fig6.2a", title: "CPU time vs object population N", xLabel: "N",
	methods: AllMethods, points: nPoints(nil),
}

var fig62b = sweep{
	id: "fig6.2b", title: "CPU time vs number of queries n", xLabel: "n",
	methods: AllMethods,
	points: func(base Config) []sweepPoint {
		var points []sweepPoint
		for _, frac := range []float64{0.2, 0.4, 1.0, 1.4, 2.0} {
			cfg := base
			cfg.Gen.NumQueries = max(1, int(float64(cfg.Gen.NumQueries)*frac))
			points = append(points, sweepPoint{fmt.Sprintf("%gK", 5*frac), cfg})
		}
		return points
	},
}

// kPoints is the k axis of Figure 6.3, or the given subset of it.
func kPoints(ks ...int) func(Config) []sweepPoint {
	return func(base Config) []sweepPoint {
		var points []sweepPoint
		for _, k := range ks {
			cfg := base
			cfg.K = k
			points = append(points, sweepPoint{fmt.Sprintf("%d", k), cfg})
		}
		return points
	}
}

var fig63a = sweep{
	id: "fig6.3a", title: "CPU time vs number of NNs k", xLabel: "k",
	methods: AllMethods, points: kPoints(1, 4, 16, 64, 256),
}

var fig63b = sweep{
	id: "fig6.3b", title: "cell accesses per query per timestamp vs k", xLabel: "k",
	methods: AllMethods, metric: metricCells, points: kPoints(1, 4, 16, 64, 256),
	note: "; metric: cell accesses/query/timestamp",
}

func speedPoints(query bool) func(Config) []sweepPoint {
	return func(base Config) []sweepPoint {
		var points []sweepPoint
		for _, s := range []generator.Speed{generator.Slow, generator.Medium, generator.Fast} {
			cfg := base
			if query {
				cfg.Gen.QuerySpeed = s
			} else {
				cfg.Gen.ObjectSpeed = s
			}
			points = append(points, sweepPoint{s.String(), cfg})
		}
		return points
	}
}

var fig64a = sweep{
	id: "fig6.4a", title: "CPU time vs object speed", xLabel: "speed",
	methods: AllMethods, points: speedPoints(false),
}

var fig64b = sweep{
	id: "fig6.4b", title: "CPU time vs query speed", xLabel: "speed",
	methods: AllMethods, points: speedPoints(true),
}

// agilityPoints sweeps the object (or query) agility over fracs.
func agilityPoints(query bool, fracs ...float64) func(Config) []sweepPoint {
	return func(base Config) []sweepPoint {
		var points []sweepPoint
		for _, f := range fracs {
			cfg := base
			if query {
				cfg.Gen.QueryAgility = f
			} else {
				cfg.Gen.ObjectAgility = f
			}
			points = append(points, sweepPoint{fmt.Sprintf("%.0f%%", f*100), cfg})
		}
		return points
	}
}

var fig65a = sweep{
	id: "fig6.5a", title: "CPU time vs object agility f_obj", xLabel: "f_obj",
	methods: AllMethods, points: agilityPoints(false, 0.1, 0.2, 0.3, 0.4, 0.5),
}

var fig65b = sweep{
	id: "fig6.5b", title: "CPU time vs query agility f_qry", xLabel: "f_qry",
	methods: AllMethods, points: agilityPoints(true, 0.1, 0.2, 0.3, 0.4, 0.5),
}

// fig66a: constantly moving queries isolate the NN computation modules;
// SEA-CNN is omitted as in the paper (it has no own first-time
// evaluation).
var fig66a = sweep{
	id: "fig6.6a", title: "CPU time vs N, constantly moving queries", xLabel: "N",
	methods: []Method{CPM, YPK},
	points:  nPoints(func(c *Config) { c.Gen.QueryAgility = 1.0 }),
}

var fig66b = sweep{
	id: "fig6.6b", title: "CPU time vs N, static queries", xLabel: "N",
	methods: AllMethods,
	points:  nPoints(func(c *Config) { c.Gen.QueryAgility = 0 }),
}

// runModel compares the Section 4.1 estimates with measurements on
// uniformly distributed objects, per grid granularity.
func runModel(o Options) (Table, error) {
	o.defaults()
	n := max(1000, int(100_000*o.Scale))
	const k = 16
	const trials = 200
	t := Table{
		ID:    "model",
		Title: "Section 4.1 estimates vs measurement (uniform data)",
		Note:  fmt.Sprintf("N=%d k=%d, %d random interior queries per grid", n, k, trials),
		Header: []string{"grid", "Cinf est", "Cinf meas", "CSH est", "CSH meas",
			"Oinf est", "Oinf meas"},
	}
	rng := rand.New(rand.NewSource(o.Seed))
	objs := make(map[model.ObjectID]geom.Point, n)
	for i := 0; i < n; i++ {
		objs[model.ObjectID(i)] = geom.Point{X: rng.Float64(), Y: rng.Float64()}
	}
	for _, gridSize := range []int{32, 64, 128, 256} {
		e := shard.NewUnit(1, gridSize, core.Options{})
		e.Bootstrap(objs)
		mdl := analysis.Model{N: n, NumQ: 1, K: k, Delta: 1.0 / float64(gridSize)}
		var cells, objects, csh float64
		accBase := e.Stats()
		for i := 0; i < trials; i++ {
			q := geom.Point{X: 0.15 + 0.7*rng.Float64(), Y: 0.15 + 0.7*rng.Float64()}
			if err := e.RegisterQuery(model.QueryID(i), q, k); err != nil {
				return Table{}, err
			}
			settle(e) // builds, and counts, what the search left owing
			visit, heap, _ := e.Bookkeeping(model.QueryID(i))
			csh += float64(visit + heap)
			e.RemoveQuery(model.QueryID(i))
		}
		d := e.Stats().Sub(accBase)
		cells = float64(d.CellAccesses) / trials
		objects = float64(d.ObjectsProcessed) / trials
		csh /= trials
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%d^2", gridSize),
			fmtFloat(mdl.CInf()), fmtFloat(cells),
			fmtFloat(mdl.CSH()), fmtFloat(csh),
			fmtFloat(mdl.OInf()), fmtFloat(objects),
		})
	}
	return t, nil
}

// runANN measures CPM's aggregate-NN monitoring cost per aggregate
// function and query-set size — the Section 5 extension, which the paper
// describes but does not benchmark.
func runANN(o Options) (Table, error) {
	o.defaults()
	cfg := baseConfig(o)
	cfg.Gen.NumQueries = 0 // ANN queries are installed directly below
	numQueries := max(1, int(5000*o.Scale))
	t := Table{
		ID:    "ann",
		Title: "aggregate NN monitoring throughput (extension)",
		Note: fmt.Sprintf("N=%d ANN-queries=%d k=%d grid=%d ts=%d; CPU in ms total",
			cfg.Gen.N, numQueries, cfg.K, cfg.GridSize, cfg.Timestamps),
		Header: []string{"m", "sum", "min", "max"},
	}
	for _, m := range []int{2, 4, 8} {
		row := []string{fmt.Sprintf("%d", m)}
		for _, agg := range []geom.Agg{geom.AggSum, geom.AggMin, geom.AggMax} {
			elapsed, err := RunANN(cfg, numQueries, m, agg, o.Seed)
			if err != nil {
				return Table{}, err
			}
			row = append(row, fmtFloat(elapsed))
		}
		t.Rows = append(t.Rows, row)
	}
	return t, nil
}

// RunANN runs one aggregate-NN monitoring simulation: numQueries static
// ANN queries of m clustered points each, under the config's object
// stream. It returns the total ProcessBatch milliseconds.
func RunANN(cfg Config, numQueries, m int, agg geom.Agg, seed int64) (float64, error) {
	net, err := network.Generate(cfg.Net)
	if err != nil {
		return 0, err
	}
	w, err := generator.New(net, cfg.Gen)
	if err != nil {
		return 0, err
	}
	e := shard.NewUnit(1, cfg.GridSize, core.Options{})
	e.Bootstrap(w.InitialObjects())
	rng := rand.New(rand.NewSource(seed + int64(m)*7 + int64(agg)))
	for i := 0; i < numQueries; i++ {
		// m users clustered within a small disk: a realistic meet-up
		// group (query sets spanning the whole workspace would make every
		// cell influential).
		center := geom.Point{X: 0.1 + 0.8*rng.Float64(), Y: 0.1 + 0.8*rng.Float64()}
		pts := make([]geom.Point, m)
		for j := range pts {
			pts[j] = geom.Point{
				X: center.X + (rng.Float64()-0.5)*0.05,
				Y: center.Y + (rng.Float64()-0.5)*0.05,
			}
		}
		if err := e.Register(model.QueryID(i), core.AggQuery(pts, cfg.K, agg)); err != nil {
			return 0, err
		}
	}
	elapsed := timeCycles(e, w, cfg.Timestamps)
	return elapsed, nil
}

var ablationRecompute = sweep{
	id: "ablation.recompute", title: "visit-list re-computation vs from-scratch fallback", xLabel: "k",
	methods: []Method{CPM, CPMDropBookkeeping}, points: kPoints(4, 16, 64),
}

var ablationBatch = sweep{
	id: "ablation.batch", title: "batched vs per-update handling", xLabel: "f_obj",
	methods: []Method{CPM, CPMPerUpdate}, points: agilityPoints(false, 0.1, 0.3, 0.5),
}
