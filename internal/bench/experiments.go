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
		{"fig6.1", "CPU time vs grid granularity", runFig61},
		{"space", "memory footprint at the default setting (footnote 6)", runSpace},
		{"fig6.2a", "CPU time vs object population N", runFig62a},
		{"fig6.2b", "CPU time vs number of queries n", runFig62b},
		{"fig6.3a", "CPU time vs number of NNs k", runFig63a},
		{"fig6.3b", "cell accesses per query per timestamp vs k", runFig63b},
		{"fig6.4a", "CPU time vs object speed", runFig64a},
		{"fig6.4b", "CPU time vs query speed", runFig64b},
		{"fig6.5a", "CPU time vs object agility f_obj", runFig65a},
		{"fig6.5b", "CPU time vs query agility f_qry", runFig65b},
		{"fig6.6a", "CPU time vs N, constantly moving queries", runFig66a},
		{"fig6.6b", "CPU time vs N, static queries", runFig66b},
		{"model", "Section 4.1 estimates vs measurement", runModel},
		{"ann", "aggregate NN monitoring throughput (extension)", runANN},
		{"ablation.recompute", "visit-list re-computation vs from-scratch fallback", runAblationRecompute},
		{"ablation.batch", "batched vs per-update handling", runAblationBatch},
		{"updateheavy", "update-heavy/query-light: intra-shard scan parallelism", runUpdateHeavy},
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

func runSweep(id, title, xLabel string, methods []Method, points []sweepPoint, m metric) (Table, error) {
	t := Table{ID: id, Title: title, Header: []string{xLabel}}
	for _, method := range methods {
		t.Header = append(t.Header, method.String())
	}
	for _, pt := range points {
		row := []string{pt.label}
		for _, method := range methods {
			meas, err := RunMethod(method, pt.cfg)
			if err != nil {
				return Table{}, fmt.Errorf("%s %s@%s: %w", id, method, pt.label, err)
			}
			switch m {
			case metricCPU:
				row = append(row, fmtFloat(float64(meas.Elapsed.Microseconds())/1000))
			case metricCells:
				row = append(row, fmtFloat(meas.CellsPerQueryPerCycle()))
			}
		}
		t.Rows = append(t.Rows, row)
	}
	return t, nil
}

func note(o Options, cfg Config) string {
	return fmt.Sprintf("N=%d n=%d k=%d grid=%d ts=%d scale=%.3g; CPU in ms total",
		cfg.Gen.N, cfg.Gen.NumQueries, cfg.K, cfg.GridSize, cfg.Timestamps, o.Scale)
}

func runFig61(o Options) (Table, error) {
	o.defaults()
	base := baseConfig(o)
	var points []sweepPoint
	for _, g := range []int{32, 64, 128, 256, 512, 1024} {
		cfg := base
		cfg.GridSize = g
		points = append(points, sweepPoint{fmt.Sprintf("%d^2", g), cfg})
	}
	t, err := runSweep("fig6.1", "CPU time vs grid granularity", "grid", AllMethods, points, metricCPU)
	t.Note = note(o, base)
	return t, err
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

func sweepN(o Options, id, title string, methods []Method, mutate func(*Config)) (Table, error) {
	o.defaults()
	base := baseConfig(o)
	var points []sweepPoint
	for _, frac := range []float64{0.1, 0.5, 1.0, 1.5, 2.0} {
		cfg := base
		cfg.Gen.N = max(1, int(float64(cfg.Gen.N)*frac))
		if mutate != nil {
			mutate(&cfg)
		}
		points = append(points, sweepPoint{fmt.Sprintf("%dK", paperN(frac)), cfg})
	}
	t, err := runSweep(id, title, "N", methods, points, metricCPU)
	t.Note = note(o, base)
	return t, err
}

// paperN converts the N sweep fraction to the paper's axis labels
// (10K..200K around the 100K default).
func paperN(frac float64) int { return int(100 * frac) }

func runFig62a(o Options) (Table, error) {
	return sweepN(o, "fig6.2a", "CPU time vs object population N", AllMethods, nil)
}

func runFig62b(o Options) (Table, error) {
	o.defaults()
	base := baseConfig(o)
	var points []sweepPoint
	for _, frac := range []float64{0.2, 0.4, 1.0, 1.4, 2.0} {
		cfg := base
		cfg.Gen.NumQueries = max(1, int(float64(cfg.Gen.NumQueries)*frac))
		points = append(points, sweepPoint{fmt.Sprintf("%gK", 5*frac), cfg})
	}
	t, err := runSweep("fig6.2b", "CPU time vs number of queries n", "n", AllMethods, points, metricCPU)
	t.Note = note(o, base)
	return t, err
}

func kSweepPoints(o Options) []sweepPoint {
	base := baseConfig(o)
	var points []sweepPoint
	for _, k := range []int{1, 4, 16, 64, 256} {
		cfg := base
		cfg.K = k
		points = append(points, sweepPoint{fmt.Sprintf("%d", k), cfg})
	}
	return points
}

func runFig63a(o Options) (Table, error) {
	o.defaults()
	t, err := runSweep("fig6.3a", "CPU time vs number of NNs k", "k", AllMethods, kSweepPoints(o), metricCPU)
	t.Note = note(o, baseConfig(o))
	return t, err
}

func runFig63b(o Options) (Table, error) {
	o.defaults()
	t, err := runSweep("fig6.3b", "cell accesses per query per timestamp vs k", "k", AllMethods, kSweepPoints(o), metricCells)
	t.Note = note(o, baseConfig(o)) + "; metric: cell accesses/query/timestamp"
	return t, err
}

func speedPoints(o Options, query bool) []sweepPoint {
	base := baseConfig(o)
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

func runFig64a(o Options) (Table, error) {
	o.defaults()
	t, err := runSweep("fig6.4a", "CPU time vs object speed", "speed", AllMethods, speedPoints(o, false), metricCPU)
	t.Note = note(o, baseConfig(o))
	return t, err
}

func runFig64b(o Options) (Table, error) {
	o.defaults()
	t, err := runSweep("fig6.4b", "CPU time vs query speed", "speed", AllMethods, speedPoints(o, true), metricCPU)
	t.Note = note(o, baseConfig(o))
	return t, err
}

func agilityPoints(o Options, query bool) []sweepPoint {
	base := baseConfig(o)
	var points []sweepPoint
	for _, f := range []float64{0.1, 0.2, 0.3, 0.4, 0.5} {
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

func runFig65a(o Options) (Table, error) {
	o.defaults()
	t, err := runSweep("fig6.5a", "CPU time vs object agility f_obj", "f_obj", AllMethods, agilityPoints(o, false), metricCPU)
	t.Note = note(o, baseConfig(o))
	return t, err
}

func runFig65b(o Options) (Table, error) {
	o.defaults()
	t, err := runSweep("fig6.5b", "CPU time vs query agility f_qry", "f_qry", AllMethods, agilityPoints(o, true), metricCPU)
	t.Note = note(o, baseConfig(o))
	return t, err
}

func runFig66a(o Options) (Table, error) {
	// Constantly moving queries isolate the NN computation modules;
	// SEA-CNN is omitted as in the paper (it has no own first-time
	// evaluation).
	return sweepN(o, "fig6.6a", "CPU time vs N, constantly moving queries",
		[]Method{CPM, YPK}, func(c *Config) { c.Gen.QueryAgility = 1.0 })
}

func runFig66b(o Options) (Table, error) {
	return sweepN(o, "fig6.6b", "CPU time vs N, static queries",
		AllMethods, func(c *Config) { c.Gen.QueryAgility = 0 })
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

func runAblationRecompute(o Options) (Table, error) {
	o.defaults()
	base := baseConfig(o)
	var points []sweepPoint
	for _, k := range []int{4, 16, 64} {
		cfg := base
		cfg.K = k
		points = append(points, sweepPoint{fmt.Sprintf("k=%d", k), cfg})
	}
	t, err := runSweep("ablation.recompute", "visit-list re-computation vs from-scratch fallback",
		"k", []Method{CPM, CPMDropBookkeeping}, points, metricCPU)
	t.Note = note(o, base)
	return t, err
}

func runAblationBatch(o Options) (Table, error) {
	o.defaults()
	base := baseConfig(o)
	var points []sweepPoint
	for _, f := range []float64{0.1, 0.3, 0.5} {
		cfg := base
		cfg.Gen.ObjectAgility = f
		points = append(points, sweepPoint{fmt.Sprintf("%.0f%%", f*100), cfg})
	}
	t, err := runSweep("ablation.batch", "batched vs per-update handling",
		"f_obj", []Method{CPM, CPMPerUpdate}, points, metricCPU)
	t.Note = note(o, base)
	return t, err
}

// updateHeavyConfig is the preset of the updateheavy experiment: nearly
// every object moves fast every timestamp while a small static query set
// watches, so per-tick cost is dominated by the influence-scan phase —
// exactly the work ScanWorkers splits by cell range inside each shard.
func updateHeavyConfig(o Options) Config {
	cfg := baseConfig(o)
	cfg.Gen.ObjectAgility = 0.9
	cfg.Gen.ObjectSpeed = generator.Fast
	cfg.Gen.QueryAgility = 0
	cfg.Gen.NumQueries = max(1, cfg.Gen.NumQueries/5)
	return cfg
}

// runUpdateHeavy sweeps the intra-shard scan-worker count over the
// update-heavy/query-light preset, for the single engine and the sharded
// monitor: the x-axis is where the scan-phase parallelism pays (or stops
// paying) once sharding alone has run out of independent queries.
func runUpdateHeavy(o Options) (Table, error) {
	o.defaults()
	base := updateHeavyConfig(o)
	var points []sweepPoint
	for _, workers := range []int{1, 2, 4} {
		cfg := base
		cfg.ScanWorkers = workers
		points = append(points, sweepPoint{fmt.Sprintf("%d", workers), cfg})
	}
	t, err := runSweep("updateheavy", "update-heavy/query-light: intra-shard scan parallelism",
		"scan workers", []Method{CPM, CPMSharded}, points, metricCPU)
	t.Note = note(o, base) + "; f_obj=90% fast objects, static queries at n/5; ScanWorkers sweeps the per-shard scan pool"
	return t, err
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}
