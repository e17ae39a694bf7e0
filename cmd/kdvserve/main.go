// Command kdvserve runs an HTTP kernel density visualization server — the
// interactive front-end shape the paper's motivating platforms (ArcGIS,
// QGIS) consume KDV through.
//
//	kdvserve -addr :8080 -n 100000 -request-timeout 10s -max-concurrent 8
//
// Then e.g.:
//
//	curl 'http://localhost:8080/render?dataset=crime&res=640x480&eps=0.01' > heat.png
//	curl 'http://localhost:8080/hotspots?dataset=crime&tau=mu+0.2' > hot.png
//	curl 'http://localhost:8080/progressive?dataset=home&budget=500ms' > quick.png
//
// The server is hardened for production traffic: per-request deadlines,
// client-disconnect cancellation, bounded render concurrency (429 +
// Retry-After under overload), a bounded KDV build cache, graceful
// degradation of /render past its deadline, and graceful shutdown — on
// SIGINT/SIGTERM it stops accepting connections, drains in-flight requests
// for up to -shutdown-timeout, then exits.
//
// Observability: GET /metrics serves Prometheus text format, GET /readyz
// reports readiness once the default dataset is warm, -pprof-addr starts a
// side listener with net/http/pprof, expvar, and the same /metrics, and
// -slow-query logs slow requests as JSON lines (request ID, parameters,
// render work counters) on stderr. With -trace-log every request is traced
// (admission, cache, render stages, encode) and its spans appended as JSON
// lines; without it only requests carrying a W3C traceparent header are
// traced. -enable-workmap exposes GET /debug/workmap, serving the
// per-pixel work rasters (refinement depth, node evals, bound gap) as PNG.
//
// Accuracy auditing: a shadow auditor samples -audit-fraction of completed
// renders (default 1%) and recomputes -audit-pixels random pixels against
// the exact oracle on a background pool bounded by -audit-budget, checking
// the served values against the advertised ε/τ guarantees — including
// degraded k-of-n cluster merges, audited against the partial-sum oracle.
// Violations log, count in kdv_audit_violations_total, and surface in
// GET /debug/ops, the one-call JSON ops snapshot (build, readiness,
// caches, breakers, audit state, SLO burn rates). All logs are JSON lines
// via log/slog.
//
// Scale-out: the same binary runs as a shard worker or a fan-out
// coordinator. `kdvserve -worker -addr :8081` is the same server mounting
// only the internal shard-render route, /healthz and /metrics, with no
// warmup; -cache-size, -max-concurrent, -max-queue, -request-timeout,
// -slow-query, -trace-log and -pprof-addr apply to it as to the public
// server, so a worker answers 429 when full and stops a shard render at its
// deadline. `kdvserve -workers host:8081,host:8082` makes /render a
// coordinator that partitions each render across the workers by Z-order
// data shard and merges the rasters additively, with per-worker circuit
// breakers, jittered retries, and hedged requests against stragglers. When
// workers stay unreachable the merged raster of the live shards is served
// with X-KDV-Complete: false and X-KDV-Shards: k/n.
package main

import (
	"context"
	"errors"
	"flag"
	"net/http"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"github.com/quadkdv/quad/internal/cluster"
	"github.com/quadkdv/quad/internal/logging"
	"github.com/quadkdv/quad/internal/serve"
	"github.com/quadkdv/quad/internal/telemetry"
	"github.com/quadkdv/quad/internal/tiles"
)

func main() {
	os.Exit(run())
}

func run() int {
	// A fresh flag set per call, so tests can run the server more than once.
	flag.CommandLine = flag.NewFlagSet(os.Args[0], flag.ExitOnError)
	var (
		addr            = flag.String("addr", ":8080", "listen address")
		n               = flag.Int("n", 100000, "default dataset cardinality")
		requestTimeout  = flag.Duration("request-timeout", 15*time.Second, "per-request render deadline (0 disables)")
		maxConcurrent   = flag.Int("max-concurrent", 0, "max concurrent renders (0 = GOMAXPROCS)")
		maxQueue        = flag.Int("max-queue", 0, "max requests queued for a render slot (0 = 2x max-concurrent)")
		cacheSize       = flag.Int("cache-size", 32, "max cached KDV builds")
		degradeBudget   = flag.Duration("degrade-budget", 250*time.Millisecond, "progressive fallback budget when /render misses its deadline")
		shutdownTimeout = flag.Duration("shutdown-timeout", 10*time.Second, "drain window for in-flight requests on SIGINT/SIGTERM")
		pprofAddr       = flag.String("pprof-addr", "", "side listener for net/http/pprof, expvar, and /metrics (e.g. localhost:6060; empty disables)")
		slowQuery       = flag.Duration("slow-query", 0, "log any request at least this slow as a JSON line on stderr (0 disables)")
		traceLog        = flag.String("trace-log", "", "trace every request and append its spans as JSON lines to this file ('-' for stderr; empty traces only requests carrying a traceparent)")
		enableWorkMap   = flag.Bool("enable-workmap", false, "serve GET /debug/workmap (per-pixel work-map PNGs; off by default, renders are full-price)")
		tilesDir        = flag.String("tiles-dir", "", "directory for the persistent XYZ tile store (empty keeps /tiles memory-only)")
		tileSize        = flag.Int("tile-size", 256, "tile edge in pixels for /tiles (power of two in [64, 1024])")
		warmZooms       = flag.String("warm-zooms", "", "comma-separated zoom levels of the default tile pyramid to precompute at boot (e.g. 0,1,2; empty disables)")
		auditFraction   = flag.Float64("audit-fraction", 0, "fraction of completed renders shadow-audited against the exact oracle (0 = default 0.01, negative disables)")
		auditPixels     = flag.Int("audit-pixels", 0, "random pixels recomputed per audited render (0 = default 8)")
		auditBudget     = flag.Int("audit-budget", 0, "audit queue budget; over-budget audits are dropped, never blocking (0 = default 64)")

		workerMode      = flag.Bool("worker", false, "run as a shard-render worker (internal API only) instead of the public server")
		workers         = flag.String("workers", "", "comma-separated worker addresses (host:port); makes /render a sharded fan-out coordinator")
		shards          = flag.Int("shards", 0, "shard count for the coordinator's Z-order partition (0 = number of workers)")
		shardReplicas   = flag.Int("shard-replicas", 1, "max distinct workers a shard's retries/hedges may route across (1 = strict partition)")
		shardAttempts   = flag.Int("shard-attempts", 3, "max tries per shard, including the first")
		hedgeDelay      = flag.Duration("hedge-delay", 0, "fixed delay before hedging a straggling shard request (0 = adaptive p95 of recent latencies)")
		breakerCooldown = flag.Duration("breaker-cooldown", 5*time.Second, "how long a tripped worker circuit breaker stays open before probing")
	)
	flag.Parse()
	logger := logging.Setup("kdvserve", nil)

	if *workerMode && *workers != "" {
		logger.Error("-worker and -workers are mutually exclusive")
		return 2
	}

	cfg := serve.Config{
		DefaultN:       *n,
		RequestTimeout: *requestTimeout,
		MaxConcurrent:  *maxConcurrent,
		MaxQueue:       *maxQueue,
		CacheSize:      *cacheSize,
		DegradeBudget:  *degradeBudget,
		SlowQuery:      *slowQuery,
		EnableWorkMap:  *enableWorkMap,
		TilesDir:       *tilesDir,
		TileSize:       *tileSize,
		AuditFraction:  *auditFraction,
		AuditPixels:    *auditPixels,
		AuditBudget:    *auditBudget,
		Logger:         logger,
	}
	if err := tiles.ValidTileSize(*tileSize); err != nil {
		logger.Error("bad -tile-size", "error", err)
		return 2
	}
	if *warmZooms != "" {
		for _, part := range strings.Split(*warmZooms, ",") {
			z, err := strconv.Atoi(strings.TrimSpace(part))
			if err != nil || z < 0 {
				logger.Error("bad -warm-zooms entry", "entry", part)
				return 2
			}
			cfg.WarmZooms = append(cfg.WarmZooms, z)
		}
	}
	switch *traceLog {
	case "":
	case "-":
		cfg.TraceLog = os.Stderr
	default:
		f, err := os.OpenFile(*traceLog, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			logger.Error("trace log open failed", "path", *traceLog, "error", err)
			return 1
		}
		defer f.Close()
		cfg.TraceLog = f
	}
	if *workers != "" {
		reg := telemetry.NewRegistry()
		coord, err := cluster.NewCoordinator(cluster.CoordinatorConfig{
			Workers:     strings.Split(*workers, ","),
			Shards:      *shards,
			Replicas:    *shardReplicas,
			MaxAttempts: *shardAttempts,
			HedgeDelay:  *hedgeDelay,
			Breaker:     cluster.BreakerConfig{Cooldown: *breakerCooldown},
		}, reg)
		if err != nil {
			logger.Error("coordinator construction failed", "error", err)
			return 1
		}
		cfg.Registry = reg
		cfg.Cluster = coord
		logger.Info("coordinating workers",
			"workers", len(coord.Workers()), "shards", coord.Shards(),
			"replicas", *shardReplicas, "attempts", *shardAttempts)
	}
	s := serve.NewServerWith(cfg)
	defer s.Close()
	handler := s.Handler()
	if *workerMode {
		handler = s.ShardHandler()
	}
	srv := &http.Server{
		Addr:              *addr,
		Handler:           handler,
		ReadHeaderTimeout: 5 * time.Second,
	}

	if *pprofAddr != "" {
		bound, err := telemetry.StartDebug(*pprofAddr, s.Registry())
		if err != nil {
			logger.Error("pprof listener failed", "error", err)
			return 1
		}
		logger.Info("debug listener up", "addr", bound)
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	// Warm the default dataset in the background so /readyz flips green
	// without waiting for the first probe to trigger it. A worker has no
	// /readyz and no default dataset: its coordinator names every build.
	if !*workerMode {
		go func() {
			if err := s.Warmup(context.Background()); err != nil {
				logger.Error("warmup failed", "error", err)
			}
		}()
	}

	errc := make(chan error, 1)
	go func() { errc <- srv.ListenAndServe() }()
	logger.Info("listening", "addr", *addr, "worker", *workerMode, "default_n", s.DefaultN,
		"request_timeout", requestTimeout.String(), "audit_fraction", *auditFraction)

	select {
	case err := <-errc:
		// The listener failed before any shutdown signal.
		logger.Error("listener failed", "error", err)
		return 1
	case <-ctx.Done():
	}
	stop()
	logger.Info("shutdown signal received, draining", "timeout", shutdownTimeout.String())
	drainCtx, cancel := context.WithTimeout(context.Background(), *shutdownTimeout)
	defer cancel()
	if err := srv.Shutdown(drainCtx); err != nil {
		logger.Error("drain incomplete", "error", err)
		_ = srv.Close()
		return 1
	}
	if err := <-errc; err != nil && !errors.Is(err, http.ErrServerClosed) {
		logger.Error("server error", "error", err)
		return 1
	}
	logger.Info("drained, exiting cleanly")
	return 0
}
