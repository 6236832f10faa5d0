package cluster

import (
	"time"

	"cpm/internal/model"
	"cpm/internal/wire"
)

// statsTTL is how long one fleet-stats poll is served from cache. A
// metrics scrape reads GridSize, Rebalances and six Stats fields back to
// back; the cache collapses those into one poll, and bounds how often
// the (network-touching) aggregation can run at all.
const statsTTL = time.Second

// fleetStats is one aggregated engine-stats snapshot across the fleet.
type fleetStats struct {
	grid       int
	rebalances int64
	stats      model.Stats
}

// fleetStats returns the cached aggregation, refreshing it when stale.
func (c *Coordinator) fleetStats() fleetStats {
	c.statsMu.Lock()
	defer c.statsMu.Unlock()
	if c.statsAt.IsZero() || time.Since(c.statsAt) > statsTTL {
		c.statsCache = c.pollFleetStats()
		c.statsAt = time.Now()
	}
	return c.statsCache
}

// pollFleetStats asks every worker for its wire Stats frame concurrently
// and folds the engine counters: work counters and rebalances sum across
// the fleet, the grid size is the fleet maximum. The poll is strictly
// read-only and best-effort — a worker that fails or misses the deadline
// simply contributes nothing (it is NOT desynced; observability must
// never eject a worker). It deliberately bypasses the per-worker op
// mutex: a read racing an in-flight operation or re-sync is harmless,
// and waiting behind one could stall a metrics scrape.
func (c *Coordinator) pollFleetStats() fleetStats {
	timeout := c.opts.OpTimeout
	if timeout <= 0 {
		timeout = 2 * time.Second
	}
	var out fleetStats
	gather(c.workers, timeout, func(w *worker) []wire.Stat {
		st, _ := w.cl.ServerStats() // nil on failure: contributes nothing
		return st
	}, func(_ *worker, st []wire.Stat) { foldWorkerStats(&out, st) })
	return out
}

// foldWorkerStats accumulates one worker's stats snapshot into out.
func foldWorkerStats(out *fleetStats, st []wire.Stat) {
	for _, s := range st {
		switch s.Name {
		case "cpm_monitor_grid_size":
			if g := int(s.Value); g > out.grid {
				out.grid = g
			}
		case "cpm_monitor_rebalances_total":
			out.rebalances += s.Value
		case "cpm_monitor_cell_accesses_total":
			out.stats.CellAccesses += s.Value
		case "cpm_monitor_objects_scanned_total":
			out.stats.ObjectsProcessed += s.Value
		case "cpm_monitor_heap_ops_total":
			out.stats.HeapOps += s.Value
		case "cpm_monitor_recomputations_total":
			out.stats.Recomputations += s.Value
		case "cpm_monitor_full_searches_total":
			out.stats.FullSearches += s.Value
		case "cpm_monitor_short_circuits_total":
			out.stats.ShortCircuits += s.Value
		}
	}
}
