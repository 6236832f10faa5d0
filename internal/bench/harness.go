// Package bench is the experiment harness that regenerates the paper's
// evaluation (Section 6): it runs CPM, YPK-CNN and SEA-CNN over identical
// generated workloads, measures per-cycle CPU time, cell accesses and
// memory, sweeps the parameters of Table 6.1, and renders one table per
// figure. cmd/cpmbench is the command-line front end; bench_test.go at the
// module root exposes the same experiments as testing.B benchmarks, and
// TestReproGate (build tag repro, `make repro-gate`) holds four figures at
// the paper's scale to the paper's ordering of the methods.
package bench

import (
	"fmt"
	"runtime"
	"time"

	"cpm/internal/baseline"
	"cpm/internal/core"
	"cpm/internal/generator"
	"cpm/internal/model"
	"cpm/internal/network"
	"cpm/internal/shard"
)

// Method selects a monitoring algorithm (or an ablated CPM variant).
type Method uint8

// The monitoring methods under evaluation.
const (
	CPM Method = iota
	YPK
	SEA
	// CPMPerUpdate is ablation X2: Section 3.2 per-update handling
	// instead of batched cycles.
	CPMPerUpdate
	// CPMDropBookkeeping is ablation X1: the memory-pressure fallback
	// that recomputes from scratch instead of replaying the visit list.
	CPMDropBookkeeping
	// CPMSharded is the parallel monitor of internal/shard: queries
	// hash-partitioned across Config.Shards worker shards, results exact.
	CPMSharded
)

// String returns the method's display name.
func (m Method) String() string {
	switch m {
	case CPM:
		return "CPM"
	case YPK:
		return "YPK-CNN"
	case SEA:
		return "SEA-CNN"
	case CPMPerUpdate:
		return "CPM-perupd"
	case CPMDropBookkeeping:
		return "CPM-nobook"
	case CPMSharded:
		return "CPM-shard"
	default:
		return fmt.Sprintf("method(%d)", uint8(m))
	}
}

// AllMethods is the comparison set of the paper's figures, extended with
// the sharded monitor so every table reports the parallel speedup next to
// CPM and the baselines.
var AllMethods = []Method{CPM, CPMSharded, YPK, SEA}

// New constructs a fresh monitor of the method over a unit-square grid,
// with CPMSharded at its default worker count (all usable cores).
func (m Method) New(gridSize int) model.Monitor { return m.NewMonitor(gridSize, 0) }

// NewMonitor constructs a fresh monitor of the method over a unit-square
// grid. shards applies to CPMSharded only (0 = all usable cores).
func (m Method) NewMonitor(gridSize, shards int) model.Monitor {
	switch m {
	case CPM:
		return shard.NewUnit(1, gridSize, core.Options{})
	case YPK:
		return baseline.NewUnitYPK(gridSize)
	case SEA:
		return baseline.NewUnitSEA(gridSize)
	case CPMPerUpdate:
		return shard.NewUnit(1, gridSize, core.Options{PerUpdate: true})
	case CPMDropBookkeeping:
		return shard.NewUnit(1, gridSize, core.Options{DropBookkeeping: true})
	case CPMSharded:
		return shard.NewUnit(ResolveShards(shards), gridSize, core.Options{})
	default:
		panic(fmt.Sprintf("bench: unknown method %d", m))
	}
}

// ResolveShards applies the "0 means all usable cores" default.
func ResolveShards(shards int) int {
	if shards > 0 {
		return shards
	}
	return runtime.GOMAXPROCS(0)
}

// Config describes one simulation run.
type Config struct {
	GridSize   int
	K          int
	Timestamps int
	// Shards is the CPMSharded worker count (0 = all usable cores); the
	// other methods ignore it.
	Shards int
	Net    network.GenOptions
	Gen    generator.Params
}

// Validate reports whether the configuration is runnable.
func (c Config) Validate() error {
	if c.GridSize <= 0 {
		return fmt.Errorf("bench: grid size %d", c.GridSize)
	}
	if c.K <= 0 {
		return fmt.Errorf("bench: k %d", c.K)
	}
	if c.Timestamps <= 0 {
		return fmt.Errorf("bench: timestamps %d", c.Timestamps)
	}
	return c.Gen.Validate()
}

// Measurement is the outcome of running one method over one config.
type Measurement struct {
	Method  Method
	Elapsed time.Duration // total ProcessBatch time across the run
	Stats   model.Stats   // work-counter deltas across the cycles
	Memory  int64         // end-of-run footprint in Section 4.1 units

	Queries, Timestamps int
}

// PerCycle returns the mean processing time per cycle.
func (m Measurement) PerCycle() time.Duration {
	if m.Timestamps == 0 {
		return 0
	}
	return m.Elapsed / time.Duration(m.Timestamps)
}

// CellsPerQueryPerCycle is Figure 6.3b's metric.
func (m Measurement) CellsPerQueryPerCycle() float64 {
	denom := float64(m.Queries * m.Timestamps)
	if denom == 0 {
		return 0
	}
	return float64(m.Stats.CellAccesses) / denom
}

// footprinter is implemented by all three monitors.
type footprinter interface {
	MemoryFootprint() int64
}

// RunMethod executes one method over the configured workload. The workload
// is regenerated deterministically from its seeds, so every method sees an
// identical stream. Initial query registration, with the install step that
// finishes it (settle), is not timed: the paper's figures measure the
// monitoring cost.
func RunMethod(method Method, cfg Config) (Measurement, error) {
	if err := cfg.Validate(); err != nil {
		return Measurement{}, err
	}
	net, err := network.Generate(cfg.Net)
	if err != nil {
		return Measurement{}, err
	}
	w, err := generator.New(net, cfg.Gen)
	if err != nil {
		return Measurement{}, err
	}
	mon := method.NewMonitor(cfg.GridSize, cfg.Shards)
	// A CPM monitor owns persistent worker goroutines; release them when
	// the measurement is done so table sweeps don't accumulate idle workers
	// across dozens of discarded monitors.
	if c, ok := mon.(interface{ Close() }); ok {
		defer c.Close()
	}
	mon.Bootstrap(w.InitialObjects())

	queries := w.InitialQueries()
	for i, q := range queries {
		if err := mon.RegisterQuery(model.QueryID(i), q, cfg.K); err != nil {
			return Measurement{}, fmt.Errorf("bench: %s register: %w", method, err)
		}
	}
	settle(mon)

	statsBase := mon.Stats()
	var elapsed time.Duration
	for ts := 0; ts < cfg.Timestamps; ts++ {
		b := w.Advance()
		start := time.Now()
		mon.ProcessBatch(b)
		elapsed += time.Since(start)
	}

	meas := Measurement{
		Method:     method,
		Elapsed:    elapsed,
		Stats:      mon.Stats().Sub(statsBase),
		Queries:    len(queries),
		Timestamps: cfg.Timestamps,
	}
	if fp, ok := mon.(footprinter); ok {
		meas.Memory = fp.MemoryFootprint()
	}
	return meas, nil
}

// settle finishes the untimed registration: a CPM search from scratch
// leaves a registered query's book-keeping to the next cycle's install
// step, which an empty cycle runs here rather than inside the first timed
// one. For every method it is an untimed cycle that moves nothing.
func settle(mon model.Monitor) { mon.ProcessBatch(model.Batch{}) }

// timeCycles drives a CPM monitor through the workload's remaining
// timestamps, returning the summed ProcessBatch time in milliseconds. Used
// by experiments that install queries the model.Monitor interface cannot
// express (aggregate queries).
func timeCycles(e *shard.Monitor, w *generator.Workload, timestamps int) float64 {
	settle(e)
	var elapsed time.Duration
	for ts := 0; ts < timestamps; ts++ {
		b := w.Advance()
		start := time.Now()
		e.ProcessBatch(b)
		elapsed += time.Since(start)
	}
	return float64(elapsed.Microseconds()) / 1000
}
