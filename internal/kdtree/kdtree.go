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
// its point range (an O(n·log n·d²) pass).
//
// The tree is a struct of arrays (Tree) indexed by an int32 node id in BFS
// order: child and point indices are int32, per-node scalars are one
// float64 array each, per-node vectors d-strided arrays and the optional
// Gram matrices d²-strided. The top of the tree — the part every query
// walks — occupies a contiguous prefix, and a node's two children are
// adjacent, so expanding a node touches one cache line of ids. Points are
// kept in a flat buffer that the build reorders in place, so leaves are
// contiguous coordinate ranges and the exact leaf scans are cache-friendly.
//
// Build writes those arrays directly, one level at a time. For each node of
// a level it computes the MBR; a node of more than LeafSize points selects
// its median along the MBR's longest axis (Hoare quickselect) and splits
// there unless that axis has zero extent. The nodes of a level own disjoint
// point ranges, so they run on up to Options.Workers goroutines and make
// the same swaps in any order. Once the point order is final, one parallel
// pass fills every node's moments over its own range. The point order, the
// weights and every array are therefore bit-identical for every worker
// count, and to a depth-first recursive build (the tests keep one as the
// reference). The quickselect's block partition makes exactly Hoare's
// swaps, and the d == 2 MBR and moment loops keep their running values in
// registers and perform the generic loops' float operations in the same
// order: they change speed, not results. The generic loops serve d ≠ 2.
//
// The d == 2 query-time loops are unrolled but never reassociated, so they
// return the generic loops' bits. The engine's output bits are pinned by
// the ledger (testdata/ledger.golden at the module root).
package kdtree

import (
	"fmt"
	"math"
	"sync"
	"sync/atomic"

	"github.com/quadkdv/quad/internal/geom"
)

// DefaultLeafSize is the default maximum number of points per leaf.
const DefaultLeafSize = 30

// grain is the fewest points of work a build goroutine takes at a time:
// runs of consecutive nodes are handed out until they cover grain points,
// and a pass over fewer than 2·grain points stays on the calling goroutine.
const grain = 2048

// blockSize is the length of the blocks partition scans without branches;
// a block's stop offsets fit in a byte.
const blockSize = 64

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

// Build constructs the kd-tree over pts. The buffer (and, if supplied, the
// weight slice) is reordered in place and aliased by the tree; the caller
// must not assume any particular point order afterwards. Build returns an
// error (rather than panicking) for an empty input and for more points or
// nodes than int32 ranges and ids can hold, since those are caller-data
// conditions.
func Build(pts geom.Points, opt Options) (*Tree, error) {
	n := pts.Len()
	leaf := opt.LeafSize
	if leaf < 1 {
		leaf = DefaultLeafSize
	}
	if err := checkLen(n, leaf); err != nil {
		return nil, err
	}
	if opt.Weights != nil {
		if len(opt.Weights) != n {
			return nil, fmt.Errorf("kdtree: %d weights for %d points", len(opt.Weights), n)
		}
		for i, w := range opt.Weights {
			if !(w >= 0) || math.IsInf(w, 1) {
				return nil, fmt.Errorf("kdtree: weight %g at index %d is not finite and non-negative", w, i)
			}
		}
	}
	d := pts.Dim
	// Ids are assigned level by level, so the tree never has more nodes
	// than nodeBound; duplicate points can only make it smaller.
	bound := nodeBound(n, leaf)
	t := &Tree{
		Pts: pts, Weights: opt.Weights, LeafSize: leaf, dim: d,
		Left: make([]int32, bound), Right: make([]int32, bound),
		Start: make([]int32, bound), End: make([]int32, bound),
		RectMin: make([]float64, bound*d), RectMax: make([]float64, bound*d),
	}
	t.End[0] = int32(n)
	// The nodes of one level are ids [lo, hi); their children take the next
	// ids in order, as a BFS queue would assign them.
	lo, hi := 0, 1
	for lo < hi {
		t.height++
		t.parallel(opt.Workers, lo, hi, t.splitNode)
		next := hi
		for id := lo; id < hi; id++ {
			if t.Left[id] == NoChild {
				t.Right[id] = NoChild
				continue
			}
			s, e := t.Start[id], t.End[id]
			mid := int32((int(s) + int(e)) / 2)
			t.Left[id], t.Right[id] = int32(next), int32(next+1)
			t.Start[next], t.End[next] = s, mid
			t.Start[next+1], t.End[next+1] = mid, e
			next += 2
		}
		lo, hi = hi, next
	}
	nn := hi
	t.numNodes = nn
	t.Left, t.Right, t.Start, t.End = t.Left[:nn], t.Right[:nn], t.Start[:nn], t.End[:nn]
	t.RectMin, t.RectMax = t.RectMin[:nn*d], t.RectMax[:nn*d]
	t.Center = make([]float64, nn*d)
	t.SumP = make([]float64, nn*d)
	t.SumNorm2P = make([]float64, nn*d)
	t.SumW = make([]float64, nn)
	t.SumNorm2 = make([]float64, nn)
	t.SumNorm4 = make([]float64, nn)
	t.Radius = make([]float64, nn)
	if opt.Gram {
		t.Gram = make([]float64, nn*d*d)
	}
	t.parallel(opt.Workers, 0, nn, t.nodeMoments)
	return t, nil
}

// checkLen rejects an empty point set, and one whose point ranges or node
// ids int32 cannot hold: more than math.MaxInt32 points, or a tree at
// leaf points per leaf that may have more than math.MaxInt32 nodes.
func checkLen(n, leaf int) error {
	if n == 0 {
		return fmt.Errorf("kdtree: cannot build over empty point set")
	}
	if n > math.MaxInt32 {
		return fmt.Errorf("kdtree: %d points exceed the index's limit of %d", n, math.MaxInt32)
	}
	if nodes := nodeBound(n, leaf); nodes > math.MaxInt32 {
		return fmt.Errorf("kdtree: %d points at leaf size %d can need %d nodes, more than the index's limit of %d",
			n, leaf, nodes, math.MaxInt32)
	}
	return nil
}

// nodeBound returns the node count of a build over n distinct points, in
// which every node of more than leaf points splits at its median. The sizes
// of one level's nodes differ by at most one, so it counts a level as ca
// nodes of a points and cb nodes of a+1.
func nodeBound(n, leaf int) int {
	total := 0
	a, ca, cb := n, 1, 0
	for ca+cb > 0 {
		total += ca + cb
		if a+1 <= leaf {
			break
		}
		if a <= leaf {
			ca = 0
		}
		if a%2 == 0 { // a → a/2, a/2; a+1 → a/2, a/2+1
			ca = 2*ca + cb
		} else { // a → a/2, a/2+1; a+1 → a/2+1, a/2+1
			cb = ca + 2*cb
		}
		a /= 2
	}
	return total
}

// parallel calls fn(id) for every node id in [lo, hi) on up to workers
// goroutines, the calling one included. The goroutines take runs of
// consecutive ids covering at least grain points, lowest ids first, so the
// largest nodes of a BFS range start first.
func (t *Tree) parallel(workers, lo, hi int, fn func(id int)) {
	workers = min(workers, hi-lo)
	if workers > 1 {
		points := 0
		for id := lo; id < hi && points < 2*grain; id++ {
			points += t.Size(int32(id))
		}
		if points < 2*grain {
			workers = 1
		}
	}
	if workers < 2 {
		for id := lo; id < hi; id++ {
			fn(id)
		}
		return
	}
	var next atomic.Int64
	next.Store(int64(lo))
	work := func() {
		for {
			id := int(next.Load())
			if id >= hi {
				return
			}
			end, points := id, 0
			for end < hi && points < grain {
				points += t.Size(int32(end))
				end++
			}
			if next.CompareAndSwap(int64(id), int64(end)) {
				for ; id < end; id++ {
					fn(id)
				}
			}
		}
	}
	var wg sync.WaitGroup
	wg.Add(workers - 1)
	for range workers - 1 {
		go func() {
			defer wg.Done()
			work()
		}()
	}
	work()
	wg.Wait()
}

// splitNode computes node id's MBR and, when the node holds more than
// LeafSize points, selects its median along the MBR's longest axis. It
// sets Left[id] to NoChild for a leaf and to 0, which is never a child id,
// for a node the level loop splits.
func (t *Tree) splitNode(id int) {
	lo, hi := int(t.Start[id]), int(t.End[id])
	r := t.Rect(int32(id))
	if t.dim == 2 {
		r.Min[0], r.Max[0], r.Min[1], r.Max[1] = extent2(t.Pts.Coords[2*lo : 2*hi])
	} else {
		for k := range r.Min {
			r.Min[k], r.Max[k] = math.Inf(1), math.Inf(-1)
		}
		for i := lo; i < hi; i++ {
			r.Extend(t.Pts.At(i))
		}
	}
	t.Left[id] = NoChild
	if hi-lo <= t.LeafSize {
		return
	}
	axis := r.LongestAxis()
	// The select runs even when the node cannot split: on a node of
	// identical points it still reorders their weights.
	t.selectNth(lo, hi, (lo+hi)/2, axis)
	// A zero extent along the longest axis makes the node's rect a single
	// point; it stays an (oversized) leaf.
	if r.Max[axis]-r.Min[axis] > 0 {
		t.Left[id] = 0
	}
}

// extent2 returns the MBR of the interleaved 2-d coordinates c: the
// generic Rect.Extend's comparisons in its order, the corners in registers.
func extent2(c []float64) (minX, maxX, minY, maxY float64) {
	minX, maxX, minY, maxY = math.Inf(1), math.Inf(-1), math.Inf(1), math.Inf(-1)
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
	return minX, maxX, minY, maxY
}

// swap exchanges points i and j together with their weights.
func (t *Tree) swap(i, j int) {
	d, c := t.dim, t.Pts.Coords
	a, b := c[i*d:i*d+d], c[j*d:j*d+d]
	for k := range a {
		a[k], b[k] = b[k], a[k]
	}
	if ws := t.Weights; ws != nil {
		ws[i], ws[j] = ws[j], ws[i]
	}
}

// selectNth partially sorts points [lo,hi) along axis so that the point at
// index nth is in its sorted position (Hoare quickselect with median-of-3
// pivoting).
func (t *Tree) selectNth(lo, hi, nth, axis int) {
	c, d := t.Pts.Coords, t.dim
	for hi-lo > 1 {
		// Median-of-3 pivot.
		a, b, m := lo, (lo+hi)/2, hi-1
		if c[a*d+axis] > c[b*d+axis] {
			t.swap(a, b)
		}
		if c[b*d+axis] > c[m*d+axis] {
			t.swap(b, m)
			if c[a*d+axis] > c[b*d+axis] {
				t.swap(a, b)
			}
		}
		i, j := t.partition(lo, hi, axis, c[b*d+axis])
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

// partition runs Hoare's partition of points [lo, hi) along axis around
// pivot, a value the range holds, and returns the final positions of its
// two scans: points before i are not above the pivot, points after j not
// below it.
//
// Hoare's left scan stops on the points not below the pivot in ascending
// order, and its right scan on those not above it in descending order.
// Until the scans cross, a swap touches only positions both have passed,
// so the k-th swap exchanges the k-th left stop with the k-th right stop.
// The block phase (BlockQuicksort, Edelkamp & Weiß, ESA 2016) therefore
// scans blocks of up to blockSize points from each end without branches,
// records their stops in order, and swaps them pairwise; a side takes its
// next block when it has no stop left to pair. Once every point is
// scanned, Hoare's loop resumes at the first unpaired stop on each side
// and handles the crossing. Both phases make Hoare's swaps, so the result
// is Hoare's bit for bit.
func (t *Tree) partition(lo, hi, axis int, pivot float64) (i, j int) {
	c, d := t.Pts.Coords, t.dim
	var offL, offR [blockSize]uint8
	var numL, numR, nextL, nextR, baseL, baseR int
	l, r := lo, hi // the unscanned points are [l, r)
	for l < r {
		if numL == 0 {
			size := min(blockSize, r-l)
			if numR == 0 { // leave the right side its half
				size = min(blockSize, (r-l+1)/2)
			}
			nextL, baseL = 0, l
			for k, p := 0, l*d+axis; k < size; k, p = k+1, p+d {
				offL[numL] = uint8(k)
				stop := 0
				if !(c[p] < pivot) {
					stop = 1
				}
				numL += stop
			}
			l += size
		}
		if numR == 0 {
			size := min(blockSize, r-l)
			nextR, baseR = 0, r-1
			for k, p := 0, (r-1)*d+axis; k < size; k, p = k+1, p-d {
				offR[numR] = uint8(k)
				stop := 0
				if !(c[p] > pivot) {
					stop = 1
				}
				numR += stop
			}
			r -= size
		}
		m := min(numL, numR)
		for k := 0; k < m; k++ {
			t.swap(baseL+int(offL[nextL+k]), baseR-int(offR[nextR+k]))
		}
		numL, numR, nextL, nextR = numL-m, numR-m, nextL+m, nextR+m
	}
	i, j = l, r-1
	if numL > 0 {
		i = baseL + int(offL[nextL])
	}
	if numR > 0 {
		j = baseR - int(offR[nextR])
	}
	for i <= j {
		for c[i*d+axis] < pivot {
			i++
		}
		for c[j*d+axis] > pivot {
			j--
		}
		if i <= j {
			t.swap(i, j)
			i++
			j--
		}
	}
	return i, j
}

// nodeMoments fills node id's center and its centered, weighted moment
// statistics from its point range.
func (t *Tree) nodeMoments(id int) {
	d := t.dim
	center := t.Rect(int32(id)).Center(t.CenterAt(int32(id)))
	var gram []float64
	if t.Gram != nil {
		gram = t.Gram[id*d*d : (id+1)*d*d]
	}
	switch {
	case d == 2:
		t.moments2(id, gram)
	default:
		lo, hi := int(t.Start[id]), int(t.End[id])
		sp, snp := t.SumP[id*d:(id+1)*d], t.SumNorm2P[id*d:(id+1)*d]
		var sw, sn2, sn4, maxNorm2 float64
		for i := lo; i < hi; i++ {
			p, w := t.Pts.At(i), t.WeightAt(i)
			var norm2 float64
			for k, v := range p {
				dk := v - center[k]
				norm2 += dk * dk
			}
			if norm2 > maxNorm2 {
				maxNorm2 = norm2
			}
			for k, v := range p {
				dk := v - center[k]
				sp[k] += w * dk
				snp[k] += w * norm2 * dk
			}
			sw += w
			sn2 += w * norm2
			sn4 += w * norm2 * norm2
			for r := 0; r < d && gram != nil; r++ {
				row := gram[r*d : (r+1)*d]
				wdr := w * (p[r] - center[r])
				for k, v := range p {
					row[k] += wdr * (v - center[k])
				}
			}
		}
		t.SumW[id], t.SumNorm2[id], t.SumNorm4[id] = sw, sn2, sn4
		t.Radius[id] = math.Sqrt(maxNorm2)
	}
}

// moments2 is the moment loop for d == 2, every running sum in a
// register. Each sum starts at zero and takes the generic loop's terms,
// rounded the same way, in point order: w·norm2 and w·diff[r] are the
// generic loop's left-to-right products, and the Gram's off-diagonal
// entries stay separate sums because (w·d0)·d1 and (w·d1)·d0 may round
// differently. norm2 = d0² + d1² equals the generic 0 + d0² + d1², since d0²
// is never −0.
func (t *Tree) moments2(id int, gram []float64) {
	cx, cy := t.Center[2*id], t.Center[2*id+1]
	lo, hi := int(t.Start[id]), int(t.End[id])
	c := t.Pts.Coords[2*lo : 2*hi]
	var ws []float64
	if t.Weights != nil {
		ws = t.Weights[lo:hi]
	}
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
		if gram != nil {
			g00 += wd0 * d0
			g01 += wd0 * d1
			g10 += wd1 * d0
			g11 += wd1 * d1
		}
	}
	t.SumP[2*id], t.SumP[2*id+1] = sp0, sp1
	t.SumNorm2P[2*id], t.SumNorm2P[2*id+1] = snp0, snp1
	t.SumW[id], t.SumNorm2[id], t.SumNorm4[id] = sw, sn2, sn4
	t.Radius[id] = math.Sqrt(maxNorm2)
	if gram != nil {
		gram[0], gram[1], gram[2], gram[3] = g00, g01, g10, g11
	}
}
