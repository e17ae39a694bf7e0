// Package classify implements kernel density classification — the task
// behind tKDC [13] and one of the "other kernel-based machine learning
// models" the QUAD paper names as the natural extension of its bounds: a
// query point is assigned to the class whose (prior-scaled) kernel density
// is highest,
//
//	label(q) = argmax_c  π_c · F_{P_c}(q).
//
// Instead of computing each class's density to full precision, the
// classifier races the classes' bound refinements: it repeatedly refines the
// class whose interval blocks the decision and stops the moment one class's
// lower bound clears every other class's upper bound. With QUAD's tight
// bounds the race usually ends after a handful of node evaluations per
// class.
package classify

import (
	"fmt"

	"github.com/quadkdv/quad/internal/bounds"
	"github.com/quadkdv/quad/internal/engine"
	"github.com/quadkdv/quad/internal/geom"
	"github.com/quadkdv/quad/internal/kdtree"
	"github.com/quadkdv/quad/internal/kernel"
)

// Class is one labeled training population.
type Class struct {
	Label string
	// Prior is the class prior π_c multiplied into the density. Zero means
	// "use the class's share of the training points".
	Prior float64

	engine *engine.FlatEngine
	n      int
}

// Classifier assigns labels by racing per-class density bounds.
type Classifier struct {
	classes []*Class
	dim     int
}

// Config parameterizes the classifier's shared kernel.
type Config struct {
	Kernel kernel.Kernel
	// Gamma is the kernel distance scale; it must be positive and is shared
	// by all classes so densities are comparable.
	Gamma    float64
	Method   bounds.Method
	LeafSize int
}

// New builds a classifier from labeled point sets. Each class's density is
// normalized by its own cardinality and scaled by its prior, so the decision
// rule is the usual Bayes-style argmax π_c·f_c(q).
func New(classes map[string]geom.Points, cfg Config) (*Classifier, error) {
	if len(classes) < 2 {
		return nil, fmt.Errorf("classify: need at least 2 classes, got %d", len(classes))
	}
	if cfg.Gamma <= 0 {
		return nil, fmt.Errorf("classify: gamma must be positive, got %g", cfg.Gamma)
	}
	c := &Classifier{}
	total := 0
	for _, pts := range classes {
		total += pts.Len()
	}
	for label, pts := range classes {
		if pts.Len() == 0 {
			return nil, fmt.Errorf("classify: class %q is empty", label)
		}
		if c.dim == 0 {
			c.dim = pts.Dim
		} else if pts.Dim != c.dim {
			return nil, fmt.Errorf("classify: class %q has dim %d, want %d", label, pts.Dim, c.dim)
		}
		prior := float64(pts.Len()) / float64(total)
		// Per-class scalar weight: π_c / n_c, so the aggregate is the
		// prior-scaled class-conditional density estimate.
		ev, err := bounds.NewEvaluator(cfg.Kernel, cfg.Gamma, prior/float64(pts.Len()), cfg.Method, pts.Dim)
		if err != nil {
			return nil, err
		}
		tree, err := kdtree.Build(pts, kdtree.Options{LeafSize: cfg.LeafSize, Gram: ev.NeedsGram()})
		if err != nil {
			return nil, err
		}
		eng, err := engine.NewFlat(tree, ev)
		if err != nil {
			return nil, err
		}
		c.classes = append(c.classes, &Class{Label: label, Prior: prior, engine: eng, n: pts.Len()})
	}
	// Deterministic order for tie-breaking.
	for i := 1; i < len(c.classes); i++ {
		for j := i; j > 0 && c.classes[j-1].Label > c.classes[j].Label; j-- {
			c.classes[j-1], c.classes[j] = c.classes[j], c.classes[j-1]
		}
	}
	return c, nil
}

// Labels returns the class labels in the classifier's (sorted) order.
func (c *Classifier) Labels() []string {
	out := make([]string, len(c.classes))
	for i, cl := range c.classes {
		out[i] = cl.Label
	}
	return out
}

// Dim returns the feature dimensionality.
func (c *Classifier) Dim() int { return c.dim }

// Result reports a classification and the work it took.
type Result struct {
	Label string
	// Margin is winner_lb − runnerup_ub at termination, ≥ 0 except for
	// exact ties (0).
	Margin float64
	// Stats aggregates refinement work across all classes.
	Stats engine.Stats
}

// Classify races the classes' density bounds at q and returns the winner.
// Exact ties resolve to the lexicographically smallest tied label. It is
// safe for concurrent use: each call refines on private engine clones.
func (c *Classifier) Classify(q []float64) (Result, error) {
	if len(q) != c.dim {
		return Result{}, fmt.Errorf("classify: query has dim %d, want %d", len(q), c.dim)
	}
	refs := make([]*engine.Refiner, len(c.classes))
	for i, cl := range c.classes {
		refs[i] = cl.engine.Clone().StartRefine(q)
	}
	finish := func(winner int, margin float64) Result {
		res := Result{Label: c.classes[winner].Label, Margin: margin}
		for _, r := range refs {
			res.Stats.Add(r.Stats())
		}
		return res
	}
	for {
		// Locate the two classes with the highest upper bounds.
		best, second := -1, -1
		var bestUB, secondUB float64
		for i, r := range refs {
			_, ub := r.Bounds()
			switch {
			case best == -1 || ub > bestUB:
				second, secondUB = best, bestUB
				best, bestUB = i, ub
			case second == -1 || ub > secondUB:
				second, secondUB = i, ub
			}
		}
		bestLB, _ := refs[best].Bounds()
		if bestLB > secondUB {
			return finish(best, bestLB-secondUB), nil
		}
		if bestLB == secondUB && refs[best].Exhausted() && refs[second].Exhausted() {
			// Exact tie between the two leaders: lexicographically smaller
			// label wins, deterministically.
			winner := best
			if lb2, ub2 := refs[second].Bounds(); lb2 == ub2 && ub2 == bestLB &&
				c.classes[second].Label < c.classes[best].Label {
				winner = second
			}
			return finish(winner, 0), nil
		}
		// Refine whichever contender is more uncertain; both exhausted is
		// handled above, so one of them can always step.
		pick := best
		if refs[best].Exhausted() || (!refs[second].Exhausted() && refs[second].Gap() > refs[best].Gap()) {
			pick = second
		}
		refs[pick].Step()
	}
}

// Densities computes each class's prior-scaled density at q to relative
// error ε — the slow path Classify avoids, provided for calibration and
// inspection.
func (c *Classifier) Densities(q []float64, eps float64) (map[string]float64, error) {
	if len(q) != c.dim {
		return nil, fmt.Errorf("classify: query has dim %d, want %d", len(q), c.dim)
	}
	out := make(map[string]float64, len(c.classes))
	for _, cl := range c.classes {
		v, _ := cl.engine.EvalEps(q, eps)
		out[cl.Label] = v
	}
	return out, nil
}
