package model

import "fmt"

// Result diffs — the push-based counterpart of the ChangedQueries polling
// set. Where ChangedQueries tells a client *which* queries changed during a
// processing cycle, a ResultDiff tells it *how*: which objects entered the
// result, which left, which stayed but moved in distance or rank, and what
// the full new result is. The engine computes diffs incrementally while it
// maintains results (internal/core), the sharded monitor merges per-shard
// diff streams into one id-ordered stream (internal/shard), and the notify
// subsystem delivers them to subscribers over channels (internal/notify).

// DiffKind classifies a result-diff event.
type DiffKind uint8

const (
	// DiffUpdate reports an installed query whose result changed during a
	// processing cycle (including a query move, which keeps its identity).
	DiffUpdate DiffKind = iota
	// DiffInstall reports a fresh installation; Entered carries the whole
	// initial result.
	DiffInstall
	// DiffRemove reports a termination; Exited carries the ids of the last
	// reported result and Result is nil.
	DiffRemove
)

// String returns a short name for the kind.
func (k DiffKind) String() string {
	switch k {
	case DiffUpdate:
		return "update"
	case DiffInstall:
		return "install"
	case DiffRemove:
		return "remove"
	default:
		return fmt.Sprintf("diffkind(%d)", uint8(k))
	}
}

// ResultDiff describes how one query's result changed between two
// consecutive reports. Applying Exited, then Entered and Reranked, to the
// previous result set and re-ordering by (Dist, ID) reconstructs Result
// exactly; Result is nonetheless carried in full so that consumers joining
// late (or resuming after a dropped event) can re-sync from any single diff.
//
// Diffs are shared between subscribers: treat every slice as read-only.
// The engine carves the slices of the events it emits from shared chunks
// (each with cap == len, so an append reallocates instead of writing into a
// neighbouring event): an event stays valid for as long as it is held, but
// holding one pins its whole chunk, so a consumer that retains results
// indefinitely copies them.
type ResultDiff struct {
	// Query is the query this diff concerns.
	Query QueryID
	// Kind classifies the event.
	Kind DiffKind
	// Entered holds the objects that joined the result, with their new
	// distances, in result order.
	Entered []Neighbor
	// Exited holds the ids of objects that left the result, in the order
	// they held in the previous result.
	Exited []ObjectID
	// Reranked holds objects present in both results whose distance or rank
	// changed, with their new distances, in result order.
	Reranked []Neighbor
	// Result is the full new result, ordered by (Dist, ID); nil for
	// DiffRemove.
	Result []Neighbor
}
