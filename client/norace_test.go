//go:build !race

package client

// raceEnabled reports whether this test binary was built with -race.
const raceEnabled = false
