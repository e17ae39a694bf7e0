package serve

import (
	"context"
	"encoding/json"
	"log"
	"net/http"
	"time"

	quad "github.com/quadkdv/quad"
)

// Warmup states. Failure returns the machine to idle so a later readiness
// probe retries the build instead of wedging the replica unready forever.
const (
	warmIdle int32 = iota
	warmRunning
	warmDone
)

// Warmup builds and caches the default dataset's KDV so the first real
// /render hits a warm cache, then — when Config.WarmZooms is set —
// precomputes those zoom levels of the default tile pyramid so the hot
// low-zoom tiles serve from cache from the first request. It is idempotent
// and races safely with the lazy warmup that /readyz probes trigger:
// whoever wins the CAS does the build, everyone else returns immediately
// (nil if warmup is already underway or done). A tile-warm failure fails
// the warmup like a build failure: the machine returns to idle and the
// next probe retries under the same jittered backoff.
func (s *Server) Warmup(ctx context.Context) error {
	if !s.warmState.CompareAndSwap(warmIdle, warmRunning) {
		return nil
	}
	_, err := s.kdvFor(ctx, &renderParams{
		name: s.cfg.WarmDataset, n: s.DefaultN, seed: 1,
		kern: quad.Gaussian, method: quad.MethodQuadratic, eps: 0.01,
	})
	if err == nil {
		err = s.warmTiles(ctx)
	}
	if err != nil {
		s.noteWarmupFailure()
		s.warmState.Store(warmIdle)
		return err
	}
	s.warmMu.Lock()
	s.warmFails = 0
	s.warmMu.Unlock()
	s.warmState.Store(warmDone)
	s.m.ready.Set(1)
	return nil
}

// warmupRetryCap bounds the warmup retry backoff.
const warmupRetryCap = 30 * time.Second

// noteWarmupFailure records a failed warmup build and schedules the next
// probe-triggered retry with jittered exponential backoff (1s doubling to
// 30s, uniform in [d/2, d]).
func (s *Server) noteWarmupFailure() {
	s.warmMu.Lock()
	defer s.warmMu.Unlock()
	d := time.Second << uint(min(s.warmFails, 10))
	if d > warmupRetryCap || d <= 0 {
		d = warmupRetryCap
	}
	s.warmFails++
	s.warmNext = time.Now().Add(s.jitterDur(d))
}

// shouldRetryWarmup reports whether a cold /readyz probe may launch the
// warmup now, honoring the backoff window set by the last failure. A fresh
// server (no failures yet) always may.
func (s *Server) shouldRetryWarmup() bool {
	s.warmMu.Lock()
	defer s.warmMu.Unlock()
	return !time.Now().Before(s.warmNext)
}

// Ready reports whether the warmup build has completed.
func (s *Server) Ready() bool { return s.warmState.Load() == warmDone }

// handleReadyz is the readiness probe: 200 only once the default KDV is
// built and cached, 503 while cold. A cold probe triggers the warmup in the
// background, so replicas behind a load balancer warm themselves without
// any operator action — the first probe starts the build, a later probe
// turns green. After a failed build, retries are gated by jittered
// exponential backoff rather than launched by every probe: a load balancer
// probing a replica with a broken warm dataset every second must not turn
// into a build stampede (nor synchronize retries across replicas).
func (s *Server) handleReadyz(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	if s.Ready() {
		_ = json.NewEncoder(w).Encode(map[string]any{"status": "ready"})
		return
	}
	if s.shouldRetryWarmup() {
		go func() {
			if err := s.Warmup(context.Background()); err != nil {
				log.Printf("serve: warmup: %v", err)
			}
		}()
	}
	w.WriteHeader(http.StatusServiceUnavailable)
	_ = json.NewEncoder(w).Encode(map[string]any{"status": "warming"})
}
