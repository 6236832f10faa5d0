package bench

import "testing"

// TestRebalanceBeatsFrozen pins the point of the drift rows on the
// deterministic work counters (wall-clock assertions would flake on shared
// CI runners): over the identical hotspot-drift stream, the
// auto-rebalancing monitor must actually resize, end on a finer grid, and
// do substantially less post-drift result-maintenance work — fewer objects
// processed through cell scans — than the frozen grid whose cells the
// hotspot saturated.
func TestRebalanceBeatsFrozen(t *testing.T) {
	p := driftParams{N: 1200, Queries: 12, K: 8, GridSize: 32, Cycles: 20, Seed: 7}
	frozen, auto, err := runDriftPair(p)
	if err != nil {
		t.Fatal(err)
	}
	if auto.Rebalances == 0 {
		t.Fatal("auto monitor never rebalanced on the drift workload")
	}
	if frozen.Rebalances != 0 || frozen.GridSize != p.GridSize {
		t.Fatalf("frozen monitor resized: %d rebalances, grid %d", frozen.Rebalances, frozen.GridSize)
	}
	if auto.GridSize <= p.GridSize {
		t.Fatalf("auto monitor grid %d after hotspot collapse, want > %d", auto.GridSize, p.GridSize)
	}
	fWork, aWork := frozen.HalfStats.ObjectsProcessed, auto.HalfStats.ObjectsProcessed
	if aWork*2 >= fWork {
		t.Fatalf("post-drift objects processed: auto %d, frozen %d — want at least a 2x recovery",
			aWork, fWork)
	}
	t.Logf("post-drift work: frozen %d objects processed, auto %d (grid %d -> %d, %d resizes); post-drift cycle time frozen %v, auto %v",
		fWork, aWork, p.GridSize, auto.GridSize, auto.Rebalances,
		frozen.SecondHalf/10, auto.SecondHalf/10)
}
