package client

import (
	"testing"

	"cpm"
	"cpm/internal/server"
)

// TestWarmTickRoundTripAllocs pins what a warm TickDiffsPhases round trip
// allocates on a loopback server, both ends counted (they share this test
// binary). An empty tick allocates nothing: the call record comes off the
// client's free list and the response goes back by value. A workload tick
// adds the server's hand-off of the cycle's diffs (cpm.Monitor's
// TakeDiffs, one slice a tick) and the arena chunks both ends carve the
// diffs from, one every hundred ticks or so here.
func TestWarmTickRoundTripAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; allocation counts are meaningless")
	}
	_, addr := startServer(t, cpm.Options{GridSize: 16}, server.Options{})
	c, err := Dial(addr, Options{SyncDiffs: true, Trace: true})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	wl := testWorkload(t)
	if err := c.Bootstrap(wl.InitialObjects()); err != nil {
		t.Fatal(err)
	}
	for i, q := range wl.InitialQueries() {
		if _, err := c.RegisterDefDiffs(QueryDef{ID: cpm.QueryID(i), K: 4, Points: []cpm.Point{q}}); err != nil {
			t.Fatal(err)
		}
	}
	const warm, runs = 20, 200
	batches := make([]cpm.Batch, warm+runs+1) // AllocsPerRun adds a warm-up run
	for i := range batches {
		batches[i] = wl.Advance()
	}
	n, diffs := 0, 0
	tick := func() {
		d, _, err := c.TickDiffsPhases(batches[n])
		if err != nil {
			t.Fatal(err)
		}
		n++
		diffs += len(d)
	}
	for n < warm {
		tick()
	}
	diffs = 0
	if avg := testing.AllocsPerRun(runs, tick); avg > 1 {
		t.Errorf("a workload tick round trip allocates %.1f times, want at most the server's one hand-off", avg)
	}
	if diffs < runs {
		t.Fatalf("only %d diffs in %d ticks; the scenario is too idle", diffs, runs+1)
	}
	if avg := testing.AllocsPerRun(runs, func() {
		if _, _, err := c.TickDiffsPhases(cpm.Batch{}); err != nil {
			t.Fatal(err)
		}
	}); avg > 0 {
		t.Errorf("an empty tick round trip allocates %.1f times, want 0", avg)
	}
}
