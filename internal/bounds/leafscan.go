package bounds

import "github.com/quadkdv/quad/internal/kernel"

// Gaussian 2-D leaf scans behind FlatExactNode. The distance accumulation
// order (x-term then y-term, one running sum added point by point) is fixed;
// the exponentials go through kernel.Exp4 four points at a time, which
// returns bit-identical values to its scalar form kernel.Exp1, so the
// batching never changes the sum.

// gaussLeafSum2 returns Σ_i exp(−γ·‖q−p_i‖²) over the interleaved 2-D
// coordinate row (x0 y0 x1 y1 …).
func gaussLeafSum2(row []float64, q0, q1, gamma float64) float64 {
	var sum float64
	n := len(row) / 2
	i := 0
	for ; i+3 < n; i += 4 {
		r := row[2*i : 2*i+8 : 2*i+8]
		var d0, d1, d2, d3 float64
		dd := q0 - r[0]
		d0 += dd * dd
		dd = q1 - r[1]
		d0 += dd * dd
		dd = q0 - r[2]
		d1 += dd * dd
		dd = q1 - r[3]
		d1 += dd * dd
		dd = q0 - r[4]
		d2 += dd * dd
		dd = q1 - r[5]
		d2 += dd * dd
		dd = q0 - r[6]
		d3 += dd * dd
		dd = q1 - r[7]
		d3 += dd * dd
		e0, e1, e2, e3 := kernel.Exp4(-gamma*d0, -gamma*d1, -gamma*d2, -gamma*d3)
		sum += e0
		sum += e1
		sum += e2
		sum += e3
	}
	for ; i < n; i++ {
		var dist2 float64
		dd := q0 - row[2*i]
		dist2 += dd * dd
		dd = q1 - row[2*i+1]
		dist2 += dd * dd
		sum += kernel.Exp1(-gamma * dist2)
	}
	return sum
}

// gaussLeafSumW2 is gaussLeafSum2 with per-point weights (parallel to the
// points, i.e. ws[i] belongs to row[2i:2i+2]).
func gaussLeafSumW2(row []float64, ws []float64, q0, q1, gamma float64) float64 {
	var sum float64
	n := len(row) / 2
	i := 0
	for ; i+3 < n; i += 4 {
		r := row[2*i : 2*i+8 : 2*i+8]
		w := ws[i : i+4 : i+4]
		var d0, d1, d2, d3 float64
		dd := q0 - r[0]
		d0 += dd * dd
		dd = q1 - r[1]
		d0 += dd * dd
		dd = q0 - r[2]
		d1 += dd * dd
		dd = q1 - r[3]
		d1 += dd * dd
		dd = q0 - r[4]
		d2 += dd * dd
		dd = q1 - r[5]
		d2 += dd * dd
		dd = q0 - r[6]
		d3 += dd * dd
		dd = q1 - r[7]
		d3 += dd * dd
		e0, e1, e2, e3 := kernel.Exp4(-gamma*d0, -gamma*d1, -gamma*d2, -gamma*d3)
		sum += w[0] * e0
		sum += w[1] * e1
		sum += w[2] * e2
		sum += w[3] * e3
	}
	for ; i < n; i++ {
		var dist2 float64
		dd := q0 - row[2*i]
		dist2 += dd * dd
		dd = q1 - row[2*i+1]
		dist2 += dd * dd
		sum += ws[i] * kernel.Exp1(-gamma*dist2)
	}
	return sum
}
