package bench

import (
	"runtime"
	"time"

	"cpm/internal/core"
	"cpm/internal/generator"
	"cpm/internal/model"
	"cpm/internal/network"
	"cpm/internal/shard"
	"cpm/internal/wire"
)

// The wire-encode trajectory row: the serving layer's hot path is encoding
// pushed result-diff events (internal/wire.AppendEvent), so the JSON
// report carries a "wire-encode" pseudo-method next to the monitoring
// methods and the CI benchdiff gate watches its timing and allocation
// columns like any other. The measurement replays the exact diff stream a
// CPM run over the default workload produces, encoded into one reused
// buffer — steady state is 0 allocations, and the gate keeps it that way.

// WireEncodeMethod is the method-column name of the wire-encode row.
const WireEncodeMethod = "wire-encode"

// wireEncodePasses is how many times the collected diff stream is encoded;
// enough to lift the timing well over the gate's noise floor at smoke
// scale.
const wireEncodePasses = 32

// wireEncodeResult collects the diff stream of a CPM run over the
// configured workload and measures encoding it into a reused buffer.
//
// The CPM run here is deliberately separate from the CPM method row's:
// collecting diffs during the measured run would inflate that row's
// mallocs/alloc_bytes and timings (diff collection allocates), silently
// shifting every CPM column the trajectory gate compares across commits.
// An unmeasured replay keeps the method rows pristine at the cost of one
// extra simulation per report.
func wireEncodeResult(cfg Config) (MethodResult, error) {
	if err := cfg.Validate(); err != nil {
		return MethodResult{}, err
	}
	net, err := network.Generate(cfg.Net)
	if err != nil {
		return MethodResult{}, err
	}
	w, err := generator.New(net, cfg.Gen)
	if err != nil {
		return MethodResult{}, err
	}
	e := shard.NewUnit(1, cfg.GridSize, core.Options{})
	e.Bootstrap(w.InitialObjects())
	e.EnableDiffs(true)
	queries := w.InitialQueries()
	for i, q := range queries {
		if err := e.RegisterQuery(model.QueryID(i), q, cfg.K); err != nil {
			return MethodResult{}, err
		}
	}
	var diffs []model.ResultDiff
	diffs = append(diffs, e.TakeDiffs()...) // the install events
	for ts := 0; ts < cfg.Timestamps; ts++ {
		e.ProcessBatch(w.Advance())
		diffs = append(diffs, e.TakeDiffs()...)
	}

	// One warm-up pass sizes the buffer; the measured passes then run
	// allocation-free.
	var buf []byte
	var seq uint64
	encodeAll := func() int {
		bytes := 0
		for i := range diffs {
			seq++
			buf = wire.AppendEvent(buf[:0], 1, seq, diffs[i])
			bytes += len(buf)
		}
		return bytes
	}
	encodeAll()

	var msBefore, msAfter runtime.MemStats
	runtime.ReadMemStats(&msBefore)
	start := time.Now()
	bytes := 0
	for pass := 0; pass < wireEncodePasses; pass++ {
		bytes += encodeAll()
	}
	elapsed := time.Since(start)
	runtime.ReadMemStats(&msAfter)

	perCycle := int64(0)
	if cfg.Timestamps > 0 {
		perCycle = elapsed.Nanoseconds() / int64(wireEncodePasses*cfg.Timestamps)
	}
	return MethodResult{
		Method:     WireEncodeMethod,
		TotalNs:    elapsed.Nanoseconds(),
		NsPerCycle: perCycle,
		Mallocs:    msAfter.Mallocs - msBefore.Mallocs,
		AllocBytes: msAfter.TotalAlloc - msBefore.TotalAlloc,
		// MemoryUnits doubles as the encoded-stream volume indicator: the
		// total bytes one pass produces.
		MemoryUnits: int64(bytes / wireEncodePasses),
		Queries:     len(queries),
		Timestamps:  cfg.Timestamps,
	}, nil
}
