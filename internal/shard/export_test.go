package shard

import "cpm/internal/grid"

// Watched exposes the union of the engines' watched cells to the external
// tests, which shape update streams around it.
func (m *Monitor) Watched() *grid.CellSet { return m.watched() }

// Logged returns how many updates the last tick's write log held.
func (m *Monitor) Logged() int { return len(m.applied) }
