// Package model defines the vocabulary shared by the CPM engine, the
// YPK-CNN/SEA-CNN baselines, the workload generator and the benchmark
// harness: object and query identifiers, the location-update stream, result
// neighbors and the Monitor interface every method implements.
//
// Keeping these types in one small package lets the harness swap monitoring
// methods freely and lets integration tests assert that all methods produce
// identical results on identical update streams.
package model

import (
	"fmt"

	"cpm/internal/geom"
)

// ObjectID identifies a moving data object. IDs are dense small integers so
// object state can live in slices rather than maps.
type ObjectID int32

// QueryID identifies an installed continuous query.
type QueryID int32

// UpdateKind distinguishes the three events in the object stream.
type UpdateKind uint8

const (
	// Move is the paper's canonical update tuple
	// <id, x_old, y_old, x_new, y_new>.
	Move UpdateKind = iota
	// Insert introduces a new object (a Brinkhoff object appearing on a
	// network node).
	Insert
	// Delete removes an object (an object reaching its destination and
	// disappearing, or going off-line). CPM treats deleted NNs as outgoing
	// neighbors (paper Section 4.2).
	Delete
)

// String returns a short name for the kind.
func (k UpdateKind) String() string {
	switch k {
	case Move:
		return "move"
	case Insert:
		return "insert"
	case Delete:
		return "delete"
	default:
		return fmt.Sprintf("kind(%d)", uint8(k))
	}
}

// Update is one element of the object location stream.
// Old is meaningful for Move and Delete; New for Move and Insert.
type Update struct {
	ID   ObjectID
	Kind UpdateKind
	Old  geom.Point
	New  geom.Point
}

// MoveUpdate builds the canonical paper update tuple.
func MoveUpdate(id ObjectID, old, new geom.Point) Update {
	return Update{ID: id, Kind: Move, Old: old, New: new}
}

// InsertUpdate builds an object-appearance update.
func InsertUpdate(id ObjectID, at geom.Point) Update {
	return Update{ID: id, Kind: Insert, New: at}
}

// DeleteUpdate builds an object-disappearance update.
func DeleteUpdate(id ObjectID, old geom.Point) Update {
	return Update{ID: id, Kind: Delete, Old: old}
}

// QueryUpdateKind distinguishes events in the query stream.
type QueryUpdateKind uint8

const (
	// QueryMove relocates an installed query. The paper treats it as a
	// termination plus a re-installation at the new location (Section 3.3).
	QueryMove QueryUpdateKind = iota
	// QueryInstall registers a new query.
	QueryInstall
	// QueryTerminate removes a query.
	QueryTerminate
)

// QueryUpdate is one element of the query stream. For QueryInstall the
// monitor has already been told the query definition via its registration
// API; the update only times when the installation takes effect.
type QueryUpdate struct {
	ID   QueryID
	Kind QueryUpdateKind
	// NewPoints holds the new location(s) for QueryMove: one point for a
	// conventional NN query, m points for an aggregate query.
	NewPoints []geom.Point
}

// Batch carries everything that arrives between two consecutive processing
// cycles: the set U_P of object updates and the set U_q of query updates.
type Batch struct {
	Objects []Update
	Queries []QueryUpdate
}

// Neighbor is one entry of a query result: an object and its (aggregate)
// distance from the query.
type Neighbor struct {
	ID   ObjectID
	Dist float64
}

// Less orders neighbors by (distance, id). Every method in this repository
// — including the brute-force oracle — uses this order, so k-NN results are
// comparable exactly even under distance ties.
func (n Neighbor) Less(m Neighbor) bool {
	if n.Dist != m.Dist {
		return n.Dist < m.Dist
	}
	return n.ID < m.ID
}

// Monitor is the contract shared by CPM and the baselines. A Monitor owns an
// object index; objects are fed exclusively through ProcessBatch so that all
// methods observe identical streams.
type Monitor interface {
	// Name identifies the method ("CPM", "YPK-CNN", "SEA-CNN").
	Name() string

	// Bootstrap loads the initial object population before any cycle runs.
	Bootstrap(objs map[ObjectID]geom.Point)

	// RegisterQuery installs a continuous k-NN query and computes its
	// initial result. It returns an error for invalid parameters.
	RegisterQuery(id QueryID, q geom.Point, k int) error

	// RemoveQuery uninstalls a query. Unknown IDs are a no-op.
	RemoveQuery(id QueryID)

	// ProcessBatch runs one processing cycle over the update sets.
	ProcessBatch(b Batch)

	// Result returns the current k best neighbors of the query, ordered by
	// (distance, id). The slice is owned by the caller.
	Result(id QueryID) []Neighbor

	// Stats returns cumulative work counters.
	Stats() Stats
}

// Stats aggregates the work counters the paper reports: cell accesses
// (Figure 6.3b counts one access per complete scan of a cell's object list)
// plus bookkeeping that the qualitative comparison of Section 4.2 discusses.
type Stats struct {
	CellAccesses     int64 // complete scans of a cell's object list
	ObjectsProcessed int64 // objects examined during searches
	HeapOps          int64 // heap pushes + pops
	Recomputations   int64 // NN re-computation invocations (CPM)
	FullSearches     int64 // from-scratch NN computations
	ShortCircuits    int64 // results maintained without any grid access
}

// Add accumulates other into s.
func (s *Stats) Add(other Stats) {
	s.CellAccesses += other.CellAccesses
	s.ObjectsProcessed += other.ObjectsProcessed
	s.HeapOps += other.HeapOps
	s.Recomputations += other.Recomputations
	s.FullSearches += other.FullSearches
	s.ShortCircuits += other.ShortCircuits
}

// Sub returns s minus other; the harness uses it to isolate per-cycle or
// per-experiment deltas from cumulative counters.
func (s Stats) Sub(other Stats) Stats {
	return Stats{
		CellAccesses:     s.CellAccesses - other.CellAccesses,
		ObjectsProcessed: s.ObjectsProcessed - other.ObjectsProcessed,
		HeapOps:          s.HeapOps - other.HeapOps,
		Recomputations:   s.Recomputations - other.Recomputations,
		FullSearches:     s.FullSearches - other.FullSearches,
		ShortCircuits:    s.ShortCircuits - other.ShortCircuits,
	}
}

// PhaseNanos decomposes one processing cycle into the phases the paper's
// Section 4 cost model names: index maintenance (object relocation),
// influence scan / query re-evaluation (the Figure 3.8 resolution pass,
// which includes the heap work of re-computation), query-update
// application, and result-diff derivation. Diff time is accumulated
// inside the other phases — one bracket around each pass that compares the
// touched queries with their reported results and derives the deltas of
// those that changed, read only while diffs are collected — so the first
// three sum to roughly the cycle and Diff overlaps them.
type PhaseNanos struct {
	Relocate int64 // object updates applied to the grid + influence scans
	Reeval   int64 // resolveDirty: short-circuit merges and re-computations
	QueryUpd int64 // query-stream terminations / moves / installs
	Diff     int64 // change detection + result-diff derivation (overlaps the phases above)
}

// MaxOf folds other into s field-wise by maximum. The sharded monitor
// runs shards concurrently, so the critical-path estimate for the fleet
// is the slowest shard per phase, not the sum.
func (s *PhaseNanos) MaxOf(other PhaseNanos) {
	s.Relocate = max(s.Relocate, other.Relocate)
	s.Reeval = max(s.Reeval, other.Reeval)
	s.QueryUpd = max(s.QueryUpd, other.QueryUpd)
	s.Diff = max(s.Diff, other.Diff)
}
