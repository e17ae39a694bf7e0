// Package kdtree implements the hierarchical index used by the KDV bound
// framework (paper Section 3.2, Figure 3): a kd-tree whose every node is
// augmented with the aggregate statistics the bound functions need —
//
//	Σw           |P| (weighted cardinality)
//	Σw·p         a_P   (paper Section 3.3)
//	Σw·‖p‖²      b_P
//	Σw·‖p‖²·p    v_P   (paper Section 9.2)
//	Σw·‖p‖⁴      h_P
//	Σw·p·pᵀ      C     (the Gram matrix, Gaussian quadratic bounds only)
//
// plus the node's minimum bounding rectangle. Per-point weights w_i
// generalize Equation 1 the way the paper's sampling discussion requires
// ("replace P and w by output sample set and w_i"); an unweighted build has
// w_i = 1 and the statistics reduce to the paper's. The moments are stored
// relative to the node's own MBR center, which keeps their magnitudes small
// and makes the Σdist² / Σdist⁴ query-time formulas numerically stable even
// for far-away queries; each node's statistics are accumulated directly from
// its point range during the build (an O(n·log n·d²) pass).
//
// Points are kept in a flat buffer that the build reorders in place, so
// leaves are contiguous coordinate ranges and the exact leaf scans are
// cache-friendly.
//
// The build is fork-join: with Options.Workers > 1, a node of at least
// forkCutoff points builds its left subtree on a new goroutine and its right
// one on the calling goroutine, halving the worker budget at each fork. The
// two subtrees reorder disjoint ranges of the buffer, and a node's own
// statistics are still accumulated serially from its range once both
// children are done, so the tree, the point order and every statistic are
// bit-identical for any worker count. For d == 2 (every serving build) the
// three per-node scans — the MBR extend, the median quickselect and the
// moment pass — run as loops over the interleaved coordinates with their
// running values in registers. They perform the generic loops' float
// operations in the same order and make the same swap sequence, so they
// change speed, not results; the generic loops serve d ≠ 2 and are the
// tests' reference.
package kdtree

import (
	"fmt"
	"math"
	"sync"

	"github.com/quadkdv/quad/internal/geom"
)

// DefaultLeafSize is the default maximum number of points per leaf.
const DefaultLeafSize = 30

// forkCutoff is the smallest node, in points, whose subtrees the build may
// put on two goroutines. A subtree this size builds in about a millisecond
// at d == 2, so smaller ones, and small trees, stay on one goroutine.
const forkCutoff = 4096

// Options configures the tree build.
type Options struct {
	// LeafSize caps the number of points per leaf; values < 1 mean
	// DefaultLeafSize.
	LeafSize int
	// Gram controls whether the d×d Gram matrix Σw·p·pᵀ is computed per
	// node. Only the Gaussian and quartic quadratic (QUAD) bounds need it;
	// disabling it saves O(d²) memory per node for the O(d)-bound kernels.
	Gram bool
	// Weights are optional per-point weights w_i ≥ 0 parallel to the point
	// buffer. The slice is reordered in place alongside the points during
	// the build. nil means uniform weight 1.
	Weights []float64
	// Workers bounds the goroutines the build runs on, the calling one
	// included; values < 2 build serially. The tree is the same for every
	// value.
	Workers int
}

// Node is one kd-tree node covering points [Start, End) of the tree's
// reordered buffer.
type Node struct {
	Rect        geom.Rect
	Left, Right *Node
	Start, End  int

	// Center is the reference point (the node MBR's center) the moment
	// statistics below are taken around.
	Center []float64
	// SumW is the total point weight Σw under the node; for an unweighted
	// build it equals the point count. Every moment below carries the same
	// per-point weight.
	SumW float64
	// SumP is Σw·(p−Center) — a_P in centered coordinates.
	SumP []float64
	// SumNorm2 is Σw·‖p−Center‖² — b_P centered.
	SumNorm2 float64
	// SumNorm2P is Σw·‖p−Center‖²·(p−Center) — v_P centered.
	SumNorm2P []float64
	// SumNorm4 is Σw·‖p−Center‖⁴ — h_P centered.
	SumNorm4 float64
	// Gram is Σw·(p−Center)·(p−Center)ᵀ flattened row-major (d×d), or nil
	// when the build disabled it.
	Gram []float64
	// Radius is the bounding-ball radius around Center: every point of the
	// node lies within Radius of Center. Combined with the MBR it yields
	// tighter min/max query distances (ball-tree-style bounds) at the cost
	// of one extra distance evaluation per node visit.
	Radius float64
}

// IsLeaf reports whether the node has no children.
func (n *Node) IsLeaf() bool { return n.Left == nil }

// Size returns the number of points under the node.
func (n *Node) Size() int { return n.End - n.Start }

// Tree is a built kd-tree over a point set.
type Tree struct {
	Pts geom.Points
	// Weights are the per-point weights parallel to Pts (nil when the build
	// was unweighted), in the tree's reordered point order.
	Weights  []float64
	Root     *Node
	LeafSize int
	hasGram  bool
	numNodes int
	// unrolled2 selects the d == 2 loops; only the tests build a 2-d tree
	// without them, as the reference.
	unrolled2 bool
}

// Build constructs a kd-tree over pts. The buffer (and, if supplied, the
// weight slice) is reordered in place; the caller must not assume any
// particular point order afterwards. Build returns an error (rather than
// panicking) for an empty input, since empty datasets are a caller-data
// condition.
func Build(pts geom.Points, opt Options) (*Tree, error) {
	return build(pts, opt, pts.Dim == 2)
}

// build is Build with the choice of the d == 2 loops made by the caller.
func build(pts geom.Points, opt Options, unrolled2 bool) (*Tree, error) {
	if pts.Len() == 0 {
		return nil, fmt.Errorf("kdtree: cannot build over empty point set")
	}
	if opt.Weights != nil {
		if len(opt.Weights) != pts.Len() {
			return nil, fmt.Errorf("kdtree: %d weights for %d points", len(opt.Weights), pts.Len())
		}
		for i, w := range opt.Weights {
			if !(w >= 0) || math.IsInf(w, 1) {
				return nil, fmt.Errorf("kdtree: weight %g at index %d is not finite and non-negative", w, i)
			}
		}
	}
	leaf := opt.LeafSize
	if leaf < 1 {
		leaf = DefaultLeafSize
	}
	t := &Tree{Pts: pts, Weights: opt.Weights, LeafSize: leaf, hasGram: opt.Gram, unrolled2: unrolled2}
	t.Root, t.numNodes = t.subtree(0, pts.Len(), opt.Workers)
	return t, nil
}

// WeightAt returns point i's weight (1 for unweighted trees).
func (t *Tree) WeightAt(i int) float64 {
	if t.Weights == nil {
		return 1
	}
	return t.Weights[i]
}

// swap exchanges points i and j together with their weights.
func (t *Tree) swap(i, j int) {
	t.Pts.Swap(i, j)
	if t.Weights != nil {
		t.Weights[i], t.Weights[j] = t.Weights[j], t.Weights[i]
	}
}

// NumNodes returns the total number of nodes in the tree.
func (t *Tree) NumNodes() int { return t.numNodes }

// HasGram reports whether nodes carry the Gram matrix statistic.
func (t *Tree) HasGram() bool { return t.hasGram }

// Dim returns the dimensionality of the indexed points.
func (t *Tree) Dim() int { return t.Pts.Dim }

// subtree builds the subtree over points [lo, hi) and returns its root and
// node count. workers is the subtree's goroutine budget, the calling
// goroutine included.
func (t *Tree) subtree(lo, hi, workers int) (*Node, int) {
	n := &Node{Start: lo, End: hi, Rect: geom.NewRect(t.Pts.Dim)}
	if t.unrolled2 {
		extend2(n.Rect, t.Pts.Coords[2*lo:2*hi])
	} else {
		for i := lo; i < hi; i++ {
			n.Rect.Extend(t.Pts.At(i))
		}
	}
	count := 1
	if hi-lo > t.LeafSize {
		axis := n.Rect.LongestAxis()
		mid := (lo + hi) / 2
		if t.unrolled2 {
			t.selectNth2(lo, hi, mid, axis)
		} else {
			t.selectNth(lo, hi, mid, axis)
		}
		// Degenerate guard: if every coordinate along the split axis is
		// identical the partition may be vacuous; the longest-axis choice
		// makes that possible only when the node's rect is a single point,
		// in which case we keep it as an (oversized) leaf.
		if n.Rect.Max[axis]-n.Rect.Min[axis] > 0 {
			var nl, nr int
			if workers > 1 && hi-lo >= forkCutoff {
				var wg sync.WaitGroup
				wg.Add(1)
				go func() {
					defer wg.Done()
					n.Left, nl = t.subtree(lo, mid, workers/2)
				}()
				n.Right, nr = t.subtree(mid, hi, workers-workers/2)
				wg.Wait()
			} else {
				n.Left, nl = t.subtree(lo, mid, 1)
				n.Right, nr = t.subtree(mid, hi, 1)
			}
			count += nl + nr
		}
	}
	t.computeStats(n)
	return n, count
}

// extend2 is the MBR extend for d == 2 over interleaved coordinates c: the
// generic loop's comparisons in its order, with the corners in registers.
func extend2(r geom.Rect, c []float64) {
	minX, maxX, minY, maxY := r.Min[0], r.Max[0], r.Min[1], r.Max[1]
	for ; len(c) >= 2; c = c[2:] {
		x, y := c[0], c[1]
		if x < minX {
			minX = x
		}
		if x > maxX {
			maxX = x
		}
		if y < minY {
			minY = y
		}
		if y > maxY {
			maxY = y
		}
	}
	r.Min[0], r.Max[0], r.Min[1], r.Max[1] = minX, maxX, minY, maxY
}

// selectNth partially sorts points [lo,hi) along axis so that the point at
// index nth is in its sorted position (Hoare quickselect with median-of-3
// pivoting).
func (t *Tree) selectNth(lo, hi, nth, axis int) {
	coord := func(i int) float64 { return t.Pts.Coords[i*t.Pts.Dim+axis] }
	for hi-lo > 1 {
		// Median-of-3 pivot.
		a, b, c := lo, (lo+hi)/2, hi-1
		if coord(a) > coord(b) {
			t.swap(a, b)
		}
		if coord(b) > coord(c) {
			t.swap(b, c)
			if coord(a) > coord(b) {
				t.swap(a, b)
			}
		}
		pivot := coord(b)
		i, j := lo, hi-1
		for i <= j {
			for coord(i) < pivot {
				i++
			}
			for coord(j) > pivot {
				j--
			}
			if i <= j {
				t.swap(i, j)
				i++
				j--
			}
		}
		switch {
		case nth <= j:
			hi = j + 1
		case nth >= i:
			lo = i
		default:
			return
		}
	}
}

// selectNth2 is selectNth for d == 2: the same comparisons and the same swap
// sequence, reading the split coordinate straight from the interleaved
// buffer and swapping both coordinates (and the weights) inline.
func (t *Tree) selectNth2(lo, hi, nth, axis int) {
	c, ws := t.Pts.Coords, t.Weights
	swap := func(i, j int) {
		c[2*i], c[2*j] = c[2*j], c[2*i]
		c[2*i+1], c[2*j+1] = c[2*j+1], c[2*i+1]
		if ws != nil {
			ws[i], ws[j] = ws[j], ws[i]
		}
	}
	for hi-lo > 1 {
		// Median-of-3 pivot.
		a, b, m := lo, (lo+hi)/2, hi-1
		if c[2*a+axis] > c[2*b+axis] {
			swap(a, b)
		}
		if c[2*b+axis] > c[2*m+axis] {
			swap(b, m)
			if c[2*a+axis] > c[2*b+axis] {
				swap(a, b)
			}
		}
		pivot := c[2*b+axis]
		i, j := lo, hi-1
		for i <= j {
			for c[2*i+axis] < pivot {
				i++
			}
			for c[2*j+axis] > pivot {
				j--
			}
			if i <= j {
				swap(i, j)
				i++
				j--
			}
		}
		switch {
		case nth <= j:
			hi = j + 1
		case nth >= i:
			lo = i
		default:
			return
		}
	}
}

// computeStats fills the node's centered, weighted moment statistics from
// its point range.
func (t *Tree) computeStats(n *Node) {
	d := t.Pts.Dim
	n.Center = make([]float64, d)
	n.Rect.Center(n.Center)
	n.SumP = make([]float64, d)
	n.SumNorm2P = make([]float64, d)
	if t.hasGram {
		n.Gram = make([]float64, d*d)
	}
	if t.unrolled2 {
		t.accumulate2(n)
		return
	}
	diff := make([]float64, d)
	var maxNorm2 float64
	for i := n.Start; i < n.End; i++ {
		p := t.Pts.At(i)
		w := 1.0
		if t.Weights != nil {
			w = t.Weights[i]
		}
		var norm2 float64
		for k := 0; k < d; k++ {
			diff[k] = p[k] - n.Center[k]
			norm2 += diff[k] * diff[k]
		}
		if norm2 > maxNorm2 {
			maxNorm2 = norm2
		}
		for k := 0; k < d; k++ {
			n.SumP[k] += w * diff[k]
			n.SumNorm2P[k] += w * norm2 * diff[k]
		}
		n.SumW += w
		n.SumNorm2 += w * norm2
		n.SumNorm4 += w * norm2 * norm2
		if n.Gram != nil {
			for r := 0; r < d; r++ {
				row := n.Gram[r*d : (r+1)*d]
				wdr := w * diff[r]
				for cIdx := 0; cIdx < d; cIdx++ {
					row[cIdx] += wdr * diff[cIdx]
				}
			}
		}
	}
	n.Radius = math.Sqrt(maxNorm2)
}

// accumulate2 is computeStats' moment pass for d == 2 with every running
// sum in a register. Each sum starts at zero and takes the generic loop's
// terms, rounded the same way, in point order: w·norm2 and w·diff[r] are
// the generic loop's left-to-right products, and the Gram's off-diagonal
// entries stay separate sums because (w·d0)·d1 and (w·d1)·d0 may round
// differently. norm2 = d0² + d1² equals the generic 0 + d0² + d1², since d0²
// is never −0.
func (t *Tree) accumulate2(n *Node) {
	cx, cy := n.Center[0], n.Center[1]
	c := t.Pts.Coords[2*n.Start : 2*n.End]
	var ws []float64
	if t.Weights != nil {
		ws = t.Weights[n.Start:n.End]
	}
	gram := n.Gram != nil
	var sp0, sp1, snp0, snp1, sw, sn2, sn4, g00, g01, g10, g11, maxNorm2 float64
	for i := 0; len(c) >= 2; i, c = i+1, c[2:] {
		w := 1.0
		if ws != nil {
			w = ws[i]
		}
		d0, d1 := c[0]-cx, c[1]-cy
		norm2 := d0*d0 + d1*d1
		if norm2 > maxNorm2 {
			maxNorm2 = norm2
		}
		wd0, wd1, wn2 := w*d0, w*d1, w*norm2
		sp0 += wd0
		sp1 += wd1
		snp0 += wn2 * d0
		snp1 += wn2 * d1
		sw += w
		sn2 += wn2
		sn4 += wn2 * norm2
		if gram {
			g00 += wd0 * d0
			g01 += wd0 * d1
			g10 += wd1 * d0
			g11 += wd1 * d1
		}
	}
	n.SumP[0], n.SumP[1] = sp0, sp1
	n.SumNorm2P[0], n.SumNorm2P[1] = snp0, snp1
	n.SumW, n.SumNorm2, n.SumNorm4 = sw, sn2, sn4
	if gram {
		n.Gram[0], n.Gram[1], n.Gram[2], n.Gram[3] = g00, g01, g10, g11
	}
	n.Radius = math.Sqrt(maxNorm2)
}

// Walk visits every node in pre-order and invokes fn; returning false from
// fn prunes the node's subtree.
func (t *Tree) Walk(fn func(*Node) bool) {
	var rec func(n *Node)
	rec = func(n *Node) {
		if n == nil || !fn(n) {
			return
		}
		rec(n.Left)
		rec(n.Right)
	}
	rec(t.Root)
}

// Height returns the height of the tree (a single node has height 1).
func (t *Tree) Height() int {
	var rec func(n *Node) int
	rec = func(n *Node) int {
		if n == nil {
			return 0
		}
		l, r := rec(n.Left), rec(n.Right)
		if r > l {
			l = r
		}
		return l + 1
	}
	return rec(t.Root)
}
