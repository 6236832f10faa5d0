package cluster

import "cpm/internal/metrics"

// coordMetrics is the coordinator's own instrument set, on a registry
// separate from the upstream server's (cmd/cpmcoord exposes both on one
// page). Every name is documented in docs/CLUSTER.md, cross-checked by a
// test; the per-worker instruments (cpm_coord_worker<N>_*) are registered
// in New, one pair per worker.
type coordMetrics struct {
	reg *metrics.Registry

	workers       *metrics.Gauge     // cpm_coord_workers
	workersSynced *metrics.Gauge     // cpm_coord_workers_synced
	fanout        *metrics.Histogram // cpm_coord_fanout_ns
	opTimeouts    *metrics.Counter   // cpm_coord_op_timeouts_total
	opRetries     *metrics.Counter   // cpm_coord_op_retries_total
	desyncs       *metrics.Counter   // cpm_coord_worker_desyncs_total
	resyncs       *metrics.Counter   // cpm_coord_resyncs_total
	resyncFails   *metrics.Counter   // cpm_coord_resync_failures_total
	gapQueries    *metrics.Counter   // cpm_coord_gap_queries_total
}

func newCoordMetrics(nWorkers int) *coordMetrics {
	reg := metrics.NewRegistry()
	return &coordMetrics{
		reg:           reg,
		workers:       reg.Gauge("cpm_coord_workers"),
		workersSynced: reg.Gauge("cpm_coord_workers_synced"),
		fanout:        reg.Histogram("cpm_coord_fanout_ns"),
		opTimeouts:    reg.Counter("cpm_coord_op_timeouts_total"),
		opRetries:     reg.Counter("cpm_coord_op_retries_total"),
		desyncs:       reg.Counter("cpm_coord_worker_desyncs_total"),
		resyncs:       reg.Counter("cpm_coord_resyncs_total"),
		resyncFails:   reg.Counter("cpm_coord_resync_failures_total"),
		gapQueries:    reg.Counter("cpm_coord_gap_queries_total"),
	}
}
