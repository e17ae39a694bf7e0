package kdtree

import (
	"math"

	"github.com/quadkdv/quad/internal/geom"
)

// refNode is one node of the reference build.
type refNode struct {
	rect             geom.Rect
	left, right      *refNode
	start, end       int
	center           []float64
	sumP, sumNorm2P  []float64
	gram             []float64
	sumW, sumNorm2   float64
	sumNorm4, radius float64
}

// refBuild is the bit-for-bit reference for Build: a serial, depth-first
// recursive build with the generic loops and the textbook Hoare partition,
// whose nodes are numbered in BFS order afterwards. It reorders pts and
// opt.Weights in place, as Build does.
func refBuild(pts geom.Points, opt Options) *Tree {
	leaf := opt.LeafSize
	if leaf < 1 {
		leaf = DefaultLeafSize
	}
	b := &refBuilder{pts: pts, weights: opt.Weights, leaf: leaf, gram: opt.Gram}
	root := b.subtree(0, pts.Len())

	d := pts.Dim
	t := &Tree{Pts: pts, Weights: opt.Weights, LeafSize: leaf, dim: d}
	queue := []*refNode{root}
	for head := 0; head < len(queue); head++ {
		nd := queue[head]
		if nd.left != nil {
			t.Left = append(t.Left, int32(len(queue)))
			t.Right = append(t.Right, int32(len(queue)+1))
			queue = append(queue, nd.left, nd.right)
		} else {
			t.Left = append(t.Left, NoChild)
			t.Right = append(t.Right, NoChild)
		}
		t.Start = append(t.Start, int32(nd.start))
		t.End = append(t.End, int32(nd.end))
		t.RectMin = append(t.RectMin, nd.rect.Min...)
		t.RectMax = append(t.RectMax, nd.rect.Max...)
		t.Center = append(t.Center, nd.center...)
		t.SumP = append(t.SumP, nd.sumP...)
		t.SumNorm2P = append(t.SumNorm2P, nd.sumNorm2P...)
		t.SumW = append(t.SumW, nd.sumW)
		t.SumNorm2 = append(t.SumNorm2, nd.sumNorm2)
		t.SumNorm4 = append(t.SumNorm4, nd.sumNorm4)
		t.Radius = append(t.Radius, nd.radius)
		if opt.Gram {
			t.Gram = append(t.Gram, nd.gram...)
		}
	}
	t.numNodes = len(queue)
	var height func(n *refNode) int
	height = func(n *refNode) int {
		if n == nil {
			return 0
		}
		return 1 + max(height(n.left), height(n.right))
	}
	t.height = height(root)
	return t
}

type refBuilder struct {
	pts     geom.Points
	weights []float64
	leaf    int
	gram    bool
}

func (b *refBuilder) swap(i, j int) {
	b.pts.Swap(i, j)
	if b.weights != nil {
		b.weights[i], b.weights[j] = b.weights[j], b.weights[i]
	}
}

func (b *refBuilder) subtree(lo, hi int) *refNode {
	n := &refNode{start: lo, end: hi, rect: geom.NewRect(b.pts.Dim)}
	for i := lo; i < hi; i++ {
		n.rect.Extend(b.pts.At(i))
	}
	if hi-lo > b.leaf {
		axis := n.rect.LongestAxis()
		mid := (lo + hi) / 2
		b.selectNth(lo, hi, mid, axis)
		if n.rect.Max[axis]-n.rect.Min[axis] > 0 {
			n.left = b.subtree(lo, mid)
			n.right = b.subtree(mid, hi)
		}
	}
	b.stats(n)
	return n
}

// selectNth is the Hoare quickselect with median-of-3 pivoting and the
// textbook partition loop.
func (b *refBuilder) selectNth(lo, hi, nth, axis int) {
	coord := func(i int) float64 { return b.pts.Coords[i*b.pts.Dim+axis] }
	for hi-lo > 1 {
		a, m, c := lo, (lo+hi)/2, hi-1
		if coord(a) > coord(m) {
			b.swap(a, m)
		}
		if coord(m) > coord(c) {
			b.swap(m, c)
			if coord(a) > coord(m) {
				b.swap(a, m)
			}
		}
		i, j := hoare(coord, b.swap, lo, hi, coord(m))
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

// hoare is the textbook Hoare partition of [lo, hi) around pivot.
func hoare(coord func(int) float64, swap func(i, j int), lo, hi int, pivot float64) (i, j int) {
	i, j = lo, hi-1
	for i <= j {
		for coord(i) < pivot {
			i++
		}
		for coord(j) > pivot {
			j--
		}
		if i <= j {
			swap(i, j)
			i++
			j--
		}
	}
	return i, j
}

// stats fills the node's centered, weighted moments from its point range.
func (b *refBuilder) stats(n *refNode) {
	d := b.pts.Dim
	n.center = n.rect.Center(make([]float64, d))
	n.sumP = make([]float64, d)
	n.sumNorm2P = make([]float64, d)
	if b.gram {
		n.gram = make([]float64, d*d)
	}
	diff := make([]float64, d)
	var maxNorm2 float64
	for i := n.start; i < n.end; i++ {
		p := b.pts.At(i)
		w := 1.0
		if b.weights != nil {
			w = b.weights[i]
		}
		var norm2 float64
		for k := 0; k < d; k++ {
			diff[k] = p[k] - n.center[k]
			norm2 += diff[k] * diff[k]
		}
		if norm2 > maxNorm2 {
			maxNorm2 = norm2
		}
		for k := 0; k < d; k++ {
			n.sumP[k] += w * diff[k]
			n.sumNorm2P[k] += w * norm2 * diff[k]
		}
		n.sumW += w
		n.sumNorm2 += w * norm2
		n.sumNorm4 += w * norm2 * norm2
		if n.gram != nil {
			for r := 0; r < d; r++ {
				wdr := w * diff[r]
				for c := 0; c < d; c++ {
					n.gram[r*d+c] += wdr * diff[c]
				}
			}
		}
	}
	n.radius = math.Sqrt(maxNorm2)
}
