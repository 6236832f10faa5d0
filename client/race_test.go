//go:build race

package client

// raceEnabled reports that this test binary was built with -race, whose
// instrumentation allocates and voids any allocation count.
const raceEnabled = true
