package cluster

import (
	"testing"
	"time"

	"cpm/internal/model"
)

// TestFanOutRejectsAnswerFromRestartedWorker is the minimised reproducer of
// a flake in the stall-then-restart re-sync test: a worker restarts and the client
// reconnects after beginOp's instance check but before the operation is
// sent, so the operation succeeds — on an empty server. The answer must be
// dropped and the worker desynced within that very operation; accepting it
// left the mirror's results for the worker's queries one tick behind with
// every worker reported in sync.
func TestFanOutRejectsAnswerFromRestartedWorker(t *testing.T) {
	c := newCoordinator(Options{OpTimeout: time.Second}, 1)
	defer c.Close()
	w := &worker{
		synced:   true,
		instance: 1,
		rtt:      c.met.reg.Histogram("cpm_coord_worker0_rtt_ns"),
		healthG:  c.met.reg.Gauge("cpm_coord_worker0_health"),
	}
	w.seen.Store(1)
	c.workers = []*worker{w}

	c.beginOp()
	diffs, err := c.fanOut(c.workers, true, func(w *worker) ([]model.ResultDiff, model.PhaseNanos, error) {
		w.seen.Store(2) // the handshake with the restarted server
		return []model.ResultDiff{{Query: 7, Kind: model.DiffUpdate}}, model.PhaseNanos{}, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(diffs) != 0 {
		t.Fatalf("diffs from a restarted worker were merged: %v", diffs)
	}
	if w.synced || w.health != Desynced {
		t.Fatalf("worker synced=%v health=%v after answering from a new instance, want desynced", w.synced, w.health)
	}
}
