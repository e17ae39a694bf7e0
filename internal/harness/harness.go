// Package harness drives the paper's evaluation (Section 7): it prepares
// the dataset analogues, times each method over pixel grids with the paper's
// parameter sweeps, and prints the series behind every figure. Long-running
// baselines are handled the way the paper handles its 2-hour timeout — a
// cell that exceeds the budget is measured on a pixel prefix and
// extrapolated (marked with '~'), so the harness always terminates.
package harness

import (
	"context"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"
	"time"

	quad "github.com/quadkdv/quad"
	"github.com/quadkdv/quad/internal/dataset"
	"github.com/quadkdv/quad/internal/geom"
	"github.com/quadkdv/quad/internal/grid"
	"github.com/quadkdv/quad/internal/stats"
)

// Config scales the experiments. The defaults (via DefaultConfig) are sized
// for a single-core container; Full restores the paper's setting.
type Config struct {
	// Sizes overrides the per-dataset cardinalities (0 → paper size).
	Sizes map[string]int
	// Res is the pixel grid for the main experiments.
	Res grid.Resolution
	// HiRes is the top end of the Figure 16 resolution sweep.
	Resolutions []grid.Resolution
	// Eps is the Figure 14 relative-error sweep.
	Eps []float64
	// TauMultiples is the Figure 15 τ ladder in σ units around μ.
	TauMultiples []float64
	// Budgets is the Figure 20 progressive time ladder.
	Budgets []time.Duration
	// HepSizes is the Figure 17 cardinality sweep.
	HepSizes []int
	// Dims is the Figure 24 dimensionality sweep.
	Dims []int
	// CellTimeout caps the measurement of a single (method, parameter)
	// cell; beyond it the time is extrapolated from the finished prefix.
	CellTimeout time.Duration
	// Seed drives the dataset generators.
	Seed int64
	// OutDir receives PNG artifacts (Figures 2 and 21); empty disables.
	OutDir string
	// Out receives the printed tables.
	Out io.Writer
}

// DefaultConfig returns the laptop-scale configuration.
func DefaultConfig(out io.Writer) Config {
	return Config{
		Sizes: map[string]int{
			"elnino": 30000, "crime": 45000, "home": 80000, "hep": 150000,
		},
		Res: grid.Resolution{W: 160, H: 120},
		Resolutions: []grid.Resolution{
			{W: 40, H: 30}, {W: 80, H: 60}, {W: 160, H: 120}, {W: 320, H: 240},
		},
		Eps:          []float64{0.01, 0.02, 0.03, 0.04, 0.05},
		TauMultiples: []float64{-0.2, -0.1, 0, 0.1, 0.2},
		Budgets: []time.Duration{
			10 * time.Millisecond, 50 * time.Millisecond, 250 * time.Millisecond,
			1250 * time.Millisecond, 6250 * time.Millisecond,
		},
		HepSizes:    []int{150000, 450000, 750000, 1050000},
		Dims:        []int{2, 4, 6, 8, 10},
		CellTimeout: 20 * time.Second,
		Seed:        20200614,
	}
}

// FullConfig returns the paper-scale configuration (Section 7.1): paper
// cardinalities, 1280×960 grids, 2-hour cell timeout. Expect long runtimes.
func FullConfig(out io.Writer) Config {
	c := DefaultConfig(out)
	c.Sizes = map[string]int{}
	c.Res = grid.Res1280x960
	c.Resolutions = []grid.Resolution{grid.Res320x240, grid.Res640x480, grid.Res1280x960, grid.Res2560x1920}
	c.HepSizes = []int{1000000, 3000000, 5000000, 7000000}
	c.CellTimeout = 2 * time.Hour
	return c
}

// DS is a prepared dataset with its derived KDV instances per method.
type DS struct {
	Name string
	Pts  geom.Points
	N    int
}

// LoadDataset generates (or re-generates) the named dataset analogue at the
// configured size, reduced to 2-d for visualization.
func (c *Config) LoadDataset(name string) (*DS, error) {
	n := 0
	if c.Sizes != nil {
		n = c.Sizes[name]
	}
	pts, err := dataset.Generate2D(name, n, c.Seed)
	if err != nil {
		return nil, err
	}
	return &DS{Name: name, Pts: pts, N: pts.Len()}, nil
}

// Build constructs a KDV over the dataset for a method and kernel. Renders
// run on one worker, the paper's single-threaded setting, so figure
// timings stay comparable with the paper's whatever the host's core count.
func (d *DS) Build(kern quad.Kernel, method quad.Method, eps float64) (*quad.KDV, error) {
	return quad.New(d.Pts.Coords, d.Pts.Dim,
		quad.WithKernel(kern),
		quad.WithMethod(method),
		quad.WithZOrderGuarantee(eps, 0.2),
		quad.WithWorkers(1),
	)
}

// Cell is one timed measurement.
type Cell struct {
	Seconds      float64
	Extrapolated bool
	PixelsTimed  int
}

// String renders the cell for a table ("12.3" or "~4567" when
// extrapolated).
func (c Cell) String() string {
	prefix := ""
	if c.Extrapolated {
		prefix = "~"
	}
	switch {
	case c.Seconds >= 100:
		return fmt.Sprintf("%s%.0f", prefix, c.Seconds)
	case c.Seconds >= 1:
		return fmt.Sprintf("%s%.1f", prefix, c.Seconds)
	default:
		return fmt.Sprintf("%s%.3f", prefix, c.Seconds)
	}
}

// timeGridLoop measures evaluating every pixel of res with perPixel,
// extrapolating past the timeout from the completed prefix.
func timeGridLoop(pts geom.Points, res grid.Resolution, timeout time.Duration, perPixel func(q []float64)) (Cell, error) {
	g, err := grid.ForDataset(res, pts, 0.02)
	if err != nil {
		return Cell{}, err
	}
	start := time.Now()
	q := make([]float64, 2)
	total := res.Pixels()
	done := 0
	for y := 0; y < res.H; y++ {
		for x := 0; x < res.W; x++ {
			perPixel(g.Query(x, y, q))
			done++
			if done%64 == 0 && timeout > 0 && time.Since(start) > timeout {
				elapsed := time.Since(start).Seconds()
				return Cell{
					Seconds:      elapsed / float64(done) * float64(total),
					Extrapolated: true,
					PixelsTimed:  done,
				}, nil
			}
		}
	}
	return Cell{Seconds: time.Since(start).Seconds(), PixelsTimed: total}, nil
}

// TimeEps measures an εKDV full-grid render.
func TimeEps(k *quad.KDV, pts geom.Points, res grid.Resolution, eps float64, timeout time.Duration) (Cell, error) {
	var firstErr error
	cell, err := timeGridLoop(pts, res, timeout, func(q []float64) {
		if _, e := k.Estimate(q, eps); e != nil && firstErr == nil {
			firstErr = e
		}
	})
	if err == nil {
		err = firstErr
	}
	return cell, err
}

// TimeTau measures a τKDV full-grid render.
func TimeTau(k *quad.KDV, pts geom.Points, res grid.Resolution, tau float64, timeout time.Duration) (Cell, error) {
	var firstErr error
	cell, err := timeGridLoop(pts, res, timeout, func(q []float64) {
		if _, e := k.IsHot(q, tau); e != nil && firstErr == nil {
			firstErr = e
		}
	})
	if err == nil {
		err = firstErr
	}
	return cell, err
}

// MuSigma computes the τ-ladder statistics of a dataset on the configured
// grid via a strided QUAD render (the paper computes μ, σ over all pixels;
// the stride keeps setup time modest and is shared by all methods).
func (c *Config) MuSigma(d *DS) (mu, sigma float64, err error) {
	k, err := d.Build(quad.Gaussian, quad.MethodQuadratic, 0.01)
	if err != nil {
		return 0, 0, err
	}
	stride := 1 + c.Res.Pixels()/4096
	return k.ThresholdStatsCtx(context.Background(), quad.Resolution{W: c.Res.W, H: c.Res.H}, stride, 0.01)
}

// DensestPixel returns the grid query point with the (approximately)
// highest density — the pixel Figure 18 traces.
func DensestPixel(k *quad.KDV, pts geom.Points, res grid.Resolution) ([]float64, error) {
	g, err := grid.ForDataset(res, pts, 0.02)
	if err != nil {
		return nil, err
	}
	best := []float64{0, 0}
	bestV := -1.0
	q := make([]float64, 2)
	stride := 1 + res.Pixels()/8192
	idx := 0
	for y := 0; y < res.H; y++ {
		for x := 0; x < res.W; x++ {
			idx++
			if idx%stride != 0 {
				continue
			}
			g.Query(x, y, q)
			v, err := k.Estimate(q, 0.05)
			if err != nil {
				return nil, err
			}
			if v > bestV {
				bestV = v
				best[0], best[1] = q[0], q[1]
			}
		}
	}
	return best, nil
}

// RenderValues produces the per-pixel value raster for a method via the
// public API (used by the quality experiments).
func RenderValues(k *quad.KDV, res grid.Resolution, eps float64) ([]float64, error) {
	dm, err := k.RenderEps(quad.Resolution{W: res.W, H: res.H}, eps)
	if err != nil {
		return nil, err
	}
	return dm.Values, nil
}

// Quality summarizes approximation quality against a reference raster.
type Quality struct {
	Avg, Max float64
}

// MeasureQuality compares a method's raster to the exact reference.
func MeasureQuality(approx, exact []float64) (Quality, error) {
	avg, err := stats.AvgRelativeError(approx, exact)
	if err != nil {
		return Quality{}, err
	}
	max, err := stats.MaxRelativeError(approx, exact)
	if err != nil {
		return Quality{}, err
	}
	return Quality{Avg: avg, Max: max}, nil
}

// Table is a simple aligned-column printer for the experiment series.
type Table struct {
	Title   string
	Headers []string
	Rows    [][]string
}

// Add appends a row.
func (t *Table) Add(cells ...string) { t.Rows = append(t.Rows, cells) }

// WriteCSV emits the table as CSV (header row first). Cells containing
// commas or quotes are quoted per RFC 4180.
func (t *Table) WriteCSV(w io.Writer) error {
	writeRow := func(cells []string) error {
		for i, c := range cells {
			if i > 0 {
				if _, err := io.WriteString(w, ","); err != nil {
					return err
				}
			}
			if strings.ContainsAny(c, ",\"\n") {
				c = "\"" + strings.ReplaceAll(c, "\"", "\"\"") + "\""
			}
			if _, err := io.WriteString(w, c); err != nil {
				return err
			}
		}
		_, err := io.WriteString(w, "\n")
		return err
	}
	if err := writeRow(t.Headers); err != nil {
		return err
	}
	for _, row := range t.Rows {
		if err := writeRow(row); err != nil {
			return err
		}
	}
	return nil
}

// SaveCSV writes the table as a CSV file.
func (t *Table) SaveCSV(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := t.WriteCSV(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// Fprint writes the table with aligned columns.
func (t *Table) Fprint(w io.Writer) {
	widths := make([]int, len(t.Headers))
	for i, h := range t.Headers {
		widths[i] = len(h)
	}
	for _, row := range t.Rows {
		for i, c := range row {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	if t.Title != "" {
		fmt.Fprintf(w, "\n== %s ==\n", t.Title)
	}
	printRow := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				fmt.Fprint(w, "  ")
			}
			fmt.Fprintf(w, "%-*s", widths[i], c)
		}
		fmt.Fprintln(w)
	}
	printRow(t.Headers)
	for _, row := range t.Rows {
		printRow(row)
	}
}

// SortedNames returns map keys in sorted order (deterministic printing).
func SortedNames(m map[string]int) []string {
	names := make([]string, 0, len(m))
	for k := range m {
		names = append(names, k)
	}
	sort.Strings(names)
	return names
}

// csvSeq numbers emitted CSV artifacts so repeated titles stay distinct.
var csvSeq int

// Emit prints the table to the configured writer and, when OutDir is set,
// also writes it as a CSV artifact named after the title.
func (c *Config) Emit(t *Table) {
	t.Fprint(c.Out)
	if c.OutDir == "" {
		return
	}
	csvSeq++
	slug := make([]rune, 0, 40)
	for _, r := range strings.ToLower(t.Title) {
		switch {
		case r >= 'a' && r <= 'z' || r >= '0' && r <= '9':
			slug = append(slug, r)
		case r == ' ' || r == ':' || r == ',':
			if len(slug) > 0 && slug[len(slug)-1] != '_' {
				slug = append(slug, '_')
			}
		}
		if len(slug) >= 40 {
			break
		}
	}
	path := fmt.Sprintf("%s/%03d_%s.csv", c.OutDir, csvSeq, strings.Trim(string(slug), "_"))
	if err := t.SaveCSV(path); err != nil {
		fmt.Fprintf(c.Out, "warning: could not write %s: %v\n", path, err)
	}
}
