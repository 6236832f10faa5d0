package core

import "cpm/internal/grid"

// Search-heap payload encoding. The heap holds cells only — the strips wait
// beside it as fronts (search.go) — and its (key, payload) tie-break fixes a
// deterministic processing order: on equal keys, lower cell indices pop
// first. Deterministic order makes search traces — and therefore visit
// lists and influence regions — reproducible across runs.

func cellPayload(c grid.CellIndex) uint64 {
	return uint64(uint32(c))
}

func payloadCell(payload uint64) grid.CellIndex {
	return grid.CellIndex(uint32(payload))
}
