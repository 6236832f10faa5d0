package main

import (
	"testing"

	"cpm"
	"cpm/internal/server"
)

// lyingBackend answers every result request (which a server reads through
// Snapshot) with the nearest neighbour missing.
type lyingBackend struct{ server.Backend }

func (b lyingBackend) Snapshot(ids ...cpm.QueryID) []cpm.QuerySnapshot {
	snaps := b.Backend.Snapshot(ids...)
	for i := range snaps {
		if len(snaps[i].Result) > 1 {
			snaps[i].Result = snaps[i].Result[1:]
		}
	}
	return snaps
}

// The negative control for the oracle: a served stack that answers wrongly
// makes operations fail, and the command with them.
func TestOracleCatchesWrongAnswer(t *testing.T) {
	wrapBackend = func(b server.Backend) server.Backend { return lyingBackend{b} }
	defer func() { wrapBackend = nil }()
	res, err := endToEnd(smokeSpec(t, "served-cluster"), 1, smokeBudget, 2)
	if err != nil {
		t.Fatal(err)
	}
	if res.OpsFailed == 0 {
		t.Error("a wrong answer went unnoticed")
	}
	if code := benchMain([]string{"--workload", "served-cluster", "--smoke"}); code == 0 {
		t.Error("the command exits 0 on wrong answers")
	}
}
