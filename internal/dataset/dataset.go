// Package dataset generates the seeded synthetic analogues of the paper's
// four evaluation datasets (Table 5). The real files (UCI El Niño, Atlanta
// crime open data, UCI home sensor, UCI HEPMASS) are not available offline;
// each generator reproduces the statistical character that drives the
// experiments — the dataset's cardinality, dimensionality and, crucially,
// the skew of density across the visualized window, which is what creates
// (or denies) pruning opportunity for the bound-based methods. All
// generators are deterministic for a given (name, n, seed).
package dataset

import (
	"fmt"
	"math"
	"math/rand"

	"github.com/quadkdv/quad/internal/geom"
)

// PaperSizes records the cardinalities of Table 5.
var PaperSizes = map[string]int{
	"elnino": 178080,
	"crime":  270688,
	"home":   919438,
	"hep":    7000000,
}

// Names lists the four dataset analogues in Table 5 order.
func Names() []string { return []string{"elnino", "crime", "home", "hep"} }

// Generate produces the named dataset analogue with n points. n ≤ 0 selects
// the paper's cardinality. hep is generated with its full 10 dimensions;
// Generate2D returns the 2-attribute projection used for visualization.
func Generate(name string, n int, seed int64) (geom.Points, error) {
	if n <= 0 {
		n = PaperSizes[name]
	}
	switch name {
	case "elnino":
		return ElNino(n, seed), nil
	case "crime":
		return Crime(n, seed), nil
	case "home":
		return Home(n, seed), nil
	case "hep":
		return Hep(n, 10, seed), nil
	default:
		return geom.Points{}, fmt.Errorf("dataset: unknown dataset %q (want one of %v)", name, Names())
	}
}

// Generate2D returns First2D(Generate(name, n, seed)) without generating
// the columns First2D drops: hep draws the same random stream as Generate
// but keeps only the first two coordinates of each point, so the 10-d
// buffer is never allocated.
func Generate2D(name string, n int, seed int64) (geom.Points, error) {
	if name != "hep" {
		return Generate(name, n, seed)
	}
	if n <= 0 {
		n = PaperSizes[name]
	}
	return hep(n, 10, 2, seed), nil
}

// ElNino models the El Niño buoy readings (sea surface temperature at depth
// 0 vs depth 500): a smooth, banded, strongly correlated field — broad
// moderate-density regions with a gentle gradient rather than sharp
// hotspots. Two latent seasonal regimes bend the band.
func ElNino(n int, seed int64) geom.Points {
	rng := rand.New(rand.NewSource(seed))
	coords := make([]float64, 0, n*2)
	for i := 0; i < n; i++ {
		// Latent position along the thermocline band; buoys cluster at a
		// few deployment sites, so the band has knots of much higher
		// density (the skew that makes bound pruning pay off, as in the
		// real readings).
		var t float64
		if rng.Float64() < 0.5 {
			site := float64(rng.Intn(8)) / 8
			t = site + rng.NormFloat64()*0.015
			if t < 0 {
				t = -t
			}
			if t > 1 {
				t = 2 - t
			}
		} else {
			t = rng.Float64()
		}
		regime := 0.0
		if rng.Float64() < 0.3 { // El Niño years: warmer deep water
			regime = 3.5
		}
		surface := 20 + 9*t + 1.2*math.Sin(6*t) + rng.NormFloat64()*0.35
		deep := 8 + 4.5*t*t + regime + 0.8*math.Sin(4*t+1) + rng.NormFloat64()*0.3
		coords = append(coords, surface, deep)
	}
	return geom.NewPoints(coords, 2)
}

// Crime models urban crime incidents (latitude/longitude): a heavy-tailed
// mixture of ~60 compact hotspots of widely varying intensity over a sparse
// street-grid background — the sharpest density skew of the four datasets,
// which is where bound-based pruning shines (Figure 1's red-spot structure).
func Crime(n int, seed int64) geom.Points {
	rng := rand.New(rand.NewSource(seed))
	const hotspots = 60
	type spot struct {
		x, y, sx, sy, w float64
	}
	spots := make([]spot, hotspots)
	var totalW float64
	for i := range spots {
		// Zipf-like intensity: a few dominant hotspots, a long tail.
		w := 1 / math.Pow(float64(i+1), 0.9)
		spots[i] = spot{
			x:  rng.Float64() * 100,
			y:  rng.Float64() * 100,
			sx: 0.3 + rng.Float64()*1.2,
			sy: 0.3 + rng.Float64()*1.2,
			w:  w,
		}
		totalW += w
	}
	coords := make([]float64, 0, n*2)
	for i := 0; i < n; i++ {
		if rng.Float64() < 0.15 {
			// Background incidents along a street grid: snap one axis to a
			// grid line.
			gx := math.Floor(rng.Float64()*20) * 5
			gy := rng.Float64() * 100
			if rng.Intn(2) == 0 {
				gx, gy = gy, gx
			}
			coords = append(coords, gx+rng.NormFloat64()*0.2, gy+rng.NormFloat64()*0.2)
			continue
		}
		r := rng.Float64() * totalW
		var s spot
		for _, cand := range spots {
			if r -= cand.w; r <= 0 {
				s = cand
				break
			}
			s = cand
		}
		coords = append(coords, s.x+rng.NormFloat64()*s.sx, s.y+rng.NormFloat64()*s.sy)
	}
	return geom.NewPoints(coords, 2)
}

// Home models the home-sensor dataset (temperature/humidity): two large
// anisotropic, correlated operating-mode clusters (heating vs cooling
// season) with mild measurement noise — big dense blobs rather than point
// hotspots.
func Home(n int, seed int64) geom.Points {
	rng := rand.New(rand.NewSource(seed))
	coords := make([]float64, 0, n*2)
	// Thermostat set-points: the sensor sits at a handful of regulated
	// states most of the time, producing the sharp density spikes of real
	// home telemetry.
	type setpoint struct{ t, h float64 }
	points := []setpoint{{26, 55}, {24.5, 52}, {19, 38}, {21, 42}, {17.5, 35}}
	for i := 0; i < n; i++ {
		var temp, hum float64
		switch {
		case rng.Float64() < 0.55:
			sp := points[rng.Intn(len(points))]
			temp = sp.t + rng.NormFloat64()*0.25
			hum = sp.h + rng.NormFloat64()*0.8
		case rng.Float64() < 0.6:
			// Cooling-season drift: warm and humid, negatively correlated.
			z1, z2 := rng.NormFloat64(), rng.NormFloat64()
			temp = 26 + 1.4*z1
			hum = 55 - 4*z1 + 3*z2
		default:
			z1, z2 := rng.NormFloat64(), rng.NormFloat64()
			temp = 19 + 1.1*z1
			hum = 38 + 3*z1 + 2.5*z2
		}
		coords = append(coords, temp, hum)
	}
	return geom.NewPoints(coords, 2)
}

// Hep models HEPMASS (high-energy physics event features): a d-dimensional
// mixture of eight Gaussian components (signal/background-like populations)
// with component-specific covariance scales. The paper visualizes its first
// two dimensions and uses PCA projections of the full vectors for the
// dimensionality sweep (Figure 24).
func Hep(n, dim int, seed int64) geom.Points {
	if dim < 2 {
		dim = 2
	}
	return hep(n, dim, dim, seed)
}

// hep generates Hep(n, dim, seed) and keeps the first keep coordinates of
// each point, drawing the whole stream either way.
func hep(n, dim, keep int, seed int64) geom.Points {
	rng := rand.New(rand.NewSource(seed))
	const comps = 12
	centers := make([][]float64, comps)
	scales := make([]float64, comps)
	weights := make([]float64, comps)
	var totalW float64
	for c := 0; c < comps; c++ {
		centers[c] = make([]float64, dim)
		for j := 0; j < dim; j++ {
			centers[c][j] = rng.NormFloat64() * 4.5
		}
		// Resonance-like components: a few narrow, dominant peaks over
		// broad background populations, matching the skew of real event
		// feature distributions.
		if c < 4 {
			scales[c] = 0.15 + rng.Float64()*0.25
			weights[c] = 3
		} else {
			scales[c] = 0.8 + rng.Float64()*1.2
			weights[c] = 1
		}
		totalW += weights[c]
	}
	coords := make([]float64, 0, n*keep)
	for i := 0; i < n; i++ {
		r := rng.Float64() * totalW
		c := 0
		for ; c < comps-1; c++ {
			if r -= weights[c]; r <= 0 {
				break
			}
		}
		for j := 0; j < dim; j++ {
			v := centers[c][j] + rng.NormFloat64()*scales[c]
			if j < keep {
				coords = append(coords, v)
			}
		}
	}
	return geom.NewPoints(coords, keep)
}

// First2D projects a dataset onto its first two attributes — the
// "selected attributes" column of Table 5.
func First2D(pts geom.Points) geom.Points {
	if pts.Dim == 2 {
		return pts
	}
	n := pts.Len()
	coords := make([]float64, 0, n*2)
	for i := 0; i < n; i++ {
		p := pts.At(i)
		coords = append(coords, p[0], p[1])
	}
	return geom.NewPoints(coords, 2)
}

// Subsample returns a deterministic systematic subsample of m points,
// mirroring the paper's Figure 17 size sweep ("vary the size of the
// datasets via sampling").
func Subsample(pts geom.Points, m int, seed int64) geom.Points {
	n := pts.Len()
	if m >= n {
		return pts
	}
	if m < 1 {
		m = 1
	}
	rng := rand.New(rand.NewSource(seed))
	// Fisher–Yates over indices would need O(n) memory we already have;
	// instead draw a sorted systematic sample with random phase.
	stride := float64(n) / float64(m)
	phase := rng.Float64() * stride
	out := geom.Points{Coords: make([]float64, 0, m*pts.Dim), Dim: pts.Dim}
	for i := 0; i < m; i++ {
		idx := int(phase + float64(i)*stride)
		if idx >= n {
			idx = n - 1
		}
		out.Coords = append(out.Coords, pts.At(idx)...)
	}
	return out
}
