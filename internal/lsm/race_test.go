//go:build race

package lsm

// raceEnabled says the test binary is instrumented by the race detector,
// under which allocation counts are not the production build's.
const raceEnabled = true
