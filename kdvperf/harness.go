package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"image/png"
	"io"
	"log/slog"
	"net"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"time"

	"github.com/quadkdv/quad/internal/serve"
)

// harness is one in-process serve.Server behind a loopback listener and
// the client that drives it over at most conns keep-alive connections.
type harness struct {
	srv    *serve.Server
	hs     *http.Server
	base   string
	client *http.Client
	served chan error
	slow   *slowLog
}

// boot starts a server with cfg. A non-nil slow log receives the server's
// slow-query lines, which carry each request's KDV-cache outcome.
func boot(cfg serve.Config, conns int, slow *slowLog) (*harness, error) {
	cfg.Logger = slog.New(slog.NewTextHandler(io.Discard, nil))
	if slow != nil {
		cfg.SlowQuery = time.Nanosecond
		cfg.SlowQueryLog = slow
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("listen on loopback: %w", err)
	}
	srv := serve.NewServerWith(cfg)
	h := &harness{
		srv:    srv,
		hs:     &http.Server{Handler: srv.Handler(), ReadHeaderTimeout: 10 * time.Second},
		base:   "http://" + ln.Addr().String(),
		served: make(chan error, 1),
		slow:   slow,
		client: &http.Client{
			Timeout: 2 * time.Minute,
			Transport: &http.Transport{
				MaxConnsPerHost:     conns,
				MaxIdleConnsPerHost: conns,
				DisableCompression:  true,
			},
		},
	}
	go func() { h.served <- h.hs.Serve(ln) }()
	return h, nil
}

// close shuts the listener down, waits for the serve loop to return and
// releases the server's audit pool and tile logs.
func (h *harness) close() error {
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()
	err := h.hs.Shutdown(ctx)
	if serr := <-h.served; serr != nil && !errors.Is(serr, http.ErrServerClosed) && err == nil {
		err = serr
	}
	h.client.CloseIdleConnections()
	if cerr := h.srv.Close(); cerr != nil && err == nil {
		err = cerr
	}
	return err
}

// reply is one answered request as the client saw it.
type reply struct {
	status int
	header http.Header
	body   []byte
	iv     interval
}

// get issues one GET and times it on clk (steal-corrected unless clk is
// the zero clock).
func (h *harness) get(ctx context.Context, path string, hdr http.Header, clk clock) (reply, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, h.base+path, nil)
	if err != nil {
		return reply{}, err
	}
	for k, vs := range hdr {
		req.Header[k] = vs
	}
	s := clk.start()
	resp, err := h.client.Do(req)
	if err != nil {
		return reply{}, err
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	iv := clk.stop(s)
	if err != nil {
		return reply{}, fmt.Errorf("read body of %s: %w", path, err)
	}
	return reply{status: resp.StatusCode, header: resp.Header, body: body, iv: iv}, nil
}

// checkPNG is the per-response check: 200, a PNG of the requested size.
func checkPNG(r reply, w, h int) error {
	if r.status != http.StatusOK {
		return fmt.Errorf("status %d: %s", r.status, truncate(r.body, 200))
	}
	if ct := r.header.Get("Content-Type"); ct != "image/png" {
		return fmt.Errorf("content type %q", ct)
	}
	cfg, err := png.DecodeConfig(bytes.NewReader(r.body))
	if err != nil {
		return fmt.Errorf("body is not a PNG: %w", err)
	}
	if cfg.Width != w || cfg.Height != h {
		return fmt.Errorf("PNG is %dx%d, want %dx%d", cfg.Width, cfg.Height, w, h)
	}
	return nil
}

func truncate(b []byte, n int) string {
	if len(b) > n {
		b = b[:n]
	}
	return strings.TrimSpace(string(b))
}

// scrape is one /metrics read: series text (name plus label set) → value.
type scrape map[string]float64

func (h *harness) scrape(ctx context.Context) (scrape, error) {
	r, err := h.get(ctx, "/metrics", nil, clock{})
	if err != nil {
		return nil, err
	}
	if r.status != http.StatusOK {
		return nil, fmt.Errorf("/metrics: status %d", r.status)
	}
	return parseMetrics(r.body)
}

// parseMetrics reads the Prometheus text exposition: one "series value"
// pair per non-comment line.
func parseMetrics(b []byte) (scrape, error) {
	out := scrape{}
	sc := bufio.NewScanner(bytes.NewReader(b))
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			return nil, fmt.Errorf("/metrics: malformed line %q", line)
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			return nil, fmt.Errorf("/metrics: value of %q: %w", line, err)
		}
		out[line[:i]] = v
	}
	return out, sc.Err()
}

// sum adds the series of family name whose label text contains every
// given fragment (e.g. `level="disk"`).
func (s scrape) sum(name string, match ...string) float64 {
	total := 0.0
	for series, v := range s {
		fam, labels, _ := strings.Cut(series, "{")
		if fam != name {
			continue
		}
		ok := true
		for _, m := range match {
			if !strings.Contains(labels, m) {
				ok = false
				break
			}
		}
		if ok {
			total += v
		}
	}
	return total
}

// minus returns the per-series difference s − before.
func (s scrape) minus(before scrape) scrape {
	out := make(scrape, len(s))
	for k, v := range s {
		out[k] = v - before[k]
	}
	return out
}

// add accumulates o into s (series-wise), for phases run on several
// servers.
func (s scrape) add(o scrape) {
	for k, v := range o {
		s[k] += v
	}
}

// slowLog collects the server's slow-query lines (threshold 1 ns, so every
// request) and indexes each request's KDV-cache outcome by request ID.
type slowLog struct {
	mu      sync.Mutex
	pending []byte
	cache   map[string]string
}

func newSlowLog() *slowLog { return &slowLog{cache: make(map[string]string)} }

func (l *slowLog) Write(p []byte) (int, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.pending = append(l.pending, p...)
	for {
		i := bytes.IndexByte(l.pending, '\n')
		if i < 0 {
			break
		}
		var e struct {
			RequestID string `json:"request_id"`
			Cache     string `json:"cache"`
		}
		if err := json.Unmarshal(l.pending[:i], &e); err == nil && e.RequestID != "" {
			l.cache[e.RequestID] = e.Cache
		}
		l.pending = l.pending[i+1:]
	}
	return len(p), nil
}

// outcome returns the cache outcome ("hit", "miss", "coalesced") the server
// logged for the request, or "" if none was logged.
func (l *slowLog) outcome(requestID string) string {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.cache[requestID]
}
