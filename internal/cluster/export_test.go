package cluster

import (
	"cpm/internal/geom"
	"cpm/internal/model"
)

// MoveInMirror moves object id in the coordinator's mirror only — the
// chaos suite's negative control: a worker rebuilt from that mirror holds
// a population the others never saw, and the suite must flag the
// divergence. Test-only.
func (c *Coordinator) MoveInMirror(id model.ObjectID, p geom.Point) { c.objs[id] = p }

// WaitWorkerIdle blocks until no call, abandoned or not, holds worker i's
// link. Test-only.
func (c *Coordinator) WaitWorkerIdle(i int) {
	c.workers[i].mu.Lock()
	c.workers[i].mu.Unlock()
}
