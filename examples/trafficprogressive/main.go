// Progressive visualization for interactive traffic analysis (the paper's
// Section 6): a transport analyst pans across accident data and wants a
// usable color map within a real-time budget, refined continuously. This
// example renders the same scene under increasing budgets and reports how
// the approximation error of the partial maps collapses — the Figure 20/21
// experiment as an application.
package main

import (
	"context"
	"fmt"
	"log"
	"time"

	quad "github.com/quadkdv/quad"
	"github.com/quadkdv/quad/internal/dataset"
	"github.com/quadkdv/quad/internal/stats"
)

func main() {
	// Accident hotspots along a road network — the crime generator's
	// grid-plus-cluster structure is exactly a road-accident pattern.
	pts := dataset.Crime(150000, 99)
	kdv, err := quad.New(pts.Coords, pts.Dim)
	if err != nil {
		log.Fatal(err)
	}

	res := quad.Resolution{W: 256, H: 256}

	// Reference: the fully refined map.
	ctx := context.Background()
	full, err := kdv.Render(ctx, quad.Request{Variant: quad.ProgressiveKDV, Res: res, Eps: 0.01})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("full render: %d pixels in %s\n", full.Evaluated, full.Stats.Elapsed.Round(time.Millisecond))

	fmt.Println("\nbudget     pixels evaluated   avg relative error   map file")
	for _, budget := range []time.Duration{
		10 * time.Millisecond,
		50 * time.Millisecond,
		250 * time.Millisecond,
		1250 * time.Millisecond,
	} {
		r, err := kdv.Render(ctx, quad.Request{Variant: quad.ProgressiveKDV, Res: res, Eps: 0.01, Budget: budget})
		if err != nil {
			log.Fatal(err)
		}
		avgErr, err := stats.AvgRelativeError(r.Density.Values, full.Density.Values)
		if err != nil {
			log.Fatal(err)
		}
		name := fmt.Sprintf("traffic_t%s.png", budget)
		if err := r.Density.SavePNG(name, true); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-9s  %6d / %d       %.4f               %s\n",
			budget, r.Evaluated, res.W*res.H, avgErr, name)
	}
	fmt.Println("\nEvery map is spatially complete from the first milliseconds; the")
	fmt.Println("quad-tree evaluation order refines detail as the budget grows.")
}
