// Crime hotspot detection (the paper's Figure 1 / Figure 2c scenario):
// τKDV classifies each map pixel as hot (density ≥ τ) or cold, producing the
// two-color map criminologists use, and reports the hotspot regions.
//
// The threshold is expressed the way the paper's evaluation does, as
// τ = μ + k·σ over the pixel densities.
package main

import (
	"context"
	"fmt"
	"log"
	"time"

	quad "github.com/quadkdv/quad"
	"github.com/quadkdv/quad/internal/dataset"
)

func main() {
	// A synthetic analogue of an urban crime-incident dataset: ~60 hotspots
	// of widely varying intensity over a street-grid background.
	pts := dataset.Crime(120000, 7)
	kdv, err := quad.New(pts.Coords, pts.Dim) // QUAD method, Gaussian kernel
	if err != nil {
		log.Fatal(err)
	}

	res := quad.Resolution{W: 320, H: 240}

	// Pick τ = μ + 0.2σ from a strided density sample.
	mu, sigma, err := kdv.ThresholdStatsCtx(context.Background(), res, 8, 0.01)
	if err != nil {
		log.Fatal(err)
	}
	tau := mu + 0.2*sigma
	fmt.Printf("pixel density stats: μ=%.4g σ=%.4g → τ=%.4g\n", mu, sigma, tau)

	start := time.Now()
	hm, err := kdv.RenderTau(res, tau)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("τKDV map: %.1f%% of the city flagged hot in %s\n",
		hm.HotFraction()*100, time.Since(start).Round(time.Millisecond))

	if err := hm.SavePNG("crime_hotspots.png"); err != nil {
		log.Fatal(err)
	}
	fmt.Println("two-color hotspot map → crime_hotspots.png")

	// Report the hottest connected rows as patrol-priority bands: for each
	// map row, the fraction of hot pixels.
	best, bestFrac := 0, 0.0
	for y := 0; y < res.H; y++ {
		hot := 0
		for x := 0; x < res.W; x++ {
			if hm.At(x, y) {
				hot++
			}
		}
		if f := float64(hot) / float64(res.W); f > bestFrac {
			best, bestFrac = y, f
		}
	}
	northing := hm.WindowMin[1] + (float64(best)+0.5)/float64(res.H)*(hm.WindowMax[1]-hm.WindowMin[1])
	fmt.Printf("hottest band: northing ≈ %.2f (%.0f%% of that row is hot)\n", northing, bestFrac*100)
}
