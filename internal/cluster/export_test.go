package cluster

import "time"

// Hooks for the external chaos suite (package cluster_test), which builds
// its workers from serve — a package that imports this one — and so cannot
// reach unexported state directly.

// ErrBreakerOpen is errBreakerOpen.
var ErrBreakerOpen = errBreakerOpen

// ErrShardFailed is the error type of a shard whose fetch was exhausted.
type ErrShardFailed = errShardFailed

// WithClock returns cfg with its breakers driven by now.
func WithClock(cfg CoordinatorConfig, now func() time.Time) CoordinatorConfig {
	cfg.now = now
	return cfg
}

// Hedges, HedgeWins and Retries read the coordinator's counters.
func (c *Coordinator) Hedges() uint64    { return c.m.hedges.Value() }
func (c *Coordinator) HedgeWins() uint64 { return c.m.hedgeWins.Value() }
func (c *Coordinator) Retries() uint64   { return c.m.retries.Value() }
