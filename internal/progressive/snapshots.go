package progressive

import "time"

// Snapshot is a partial visualization state delivered to a streaming
// consumer: the raster is spatially complete (coarse regions carry their
// representative value) and refines monotonically across snapshots.
type Snapshot struct {
	// Values aliases the live raster; consumers that retain it across
	// snapshots must copy it.
	Values []float64
	// Evaluated is the number of exactly evaluated pixels so far.
	Evaluated int
	// Level is the quad-tree refinement depth just completed (0 = the
	// single whole-raster evaluation).
	Level int
	// Elapsed is the wall-clock time since the run started.
	Elapsed time.Duration
	// Final marks the last snapshot of the run.
	Final bool
}
