//go:build !race

package cluster_test

// raceEnabled reports whether this test binary was built with -race.
const raceEnabled = false
