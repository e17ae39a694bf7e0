//go:build race

package classify

// raceEnabled trims the oracle-heavy tail tests under the race detector:
// their loops run on one goroutine, so it has nothing to find there, and
// its instrumentation makes each Kahan-summed density ten times dearer.
const raceEnabled = true
