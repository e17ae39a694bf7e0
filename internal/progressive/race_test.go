//go:build race

package progressive

// raceEnabled skips the reference comparison at the server's raster cap
// under the race detector (see TestOrderMatchesReference).
const raceEnabled = true
