//go:build !race

package progressive

const raceEnabled = false
