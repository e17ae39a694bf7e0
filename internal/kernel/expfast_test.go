package kernel

import (
	"math"
	"math/big"
	"testing"
)

// ulpDiff returns the distance in representable float64 steps between a and
// b (0 when bit-identical), or MaxUint64 for NaN disagreements.
func ulpDiff(a, b float64) uint64 {
	if math.IsNaN(a) || math.IsNaN(b) {
		if math.IsNaN(a) && math.IsNaN(b) {
			return 0
		}
		return math.MaxUint64
	}
	ba, bb := math.Float64bits(a), math.Float64bits(b)
	if ba == bb {
		return 0
	}
	// Map to a monotone integer line (sign-magnitude to biased).
	conv := func(u uint64) uint64 {
		if u>>63 != 0 {
			return ^u
		}
		return u | (1 << 63)
	}
	ia, ib := conv(ba), conv(bb)
	if ia > ib {
		return ia - ib
	}
	return ib - ia
}

// TestExp1Accuracy sweeps exp's useful domain and edge cases and judges
// Exp1 against e^x correctly rounded, as FuzzExpFastLanes does (exp1Want).
// math.Exp cannot be the reference: on FMA hosts it is itself 2 ulps from
// Exp1 at −9.3759375, where the two round to opposite sides of e^x. It does
// bound the sweep's cost: where Exp1 returns math.Exp's bits and need not
// overflow, it is as close to e^x as math.Exp, which is within 1 ulp there
// (documented for the portable code, and so at every such sweep point on an
// amd64 FMA host), inside the 2 allowed. So only the sweep points where the
// two differ, about a tenth, go through the math/big reference; the table
// rows always do.
func TestExp1Accuracy(t *testing.T) {
	check := func(x float64) {
		got := Exp1(x)
		want, tol := exp1Want(x)
		if d := ulpDiff(got, want); d > tol {
			t.Fatalf("Exp1(%g) = %.17g, e^x = %.17g (%d ulp apart, %d allowed)", x, got, want, d, tol)
		}
	}
	for _, x := range []float64{
		0, math.Copysign(0, -1), 1, -1,
		709.78271289338397, 709.9, -744, -745.1, -745.2, -746, -1000,
		-708.5, 708.5, 1e-300, -1e-300, expLn2Hi, -expLn2Hi,
		-9.3759375, 0.3732649235368568,
	} {
		check(x)
	}
	sweep := func(x float64) {
		if math.Float64bits(Exp1(x)) == math.Float64bits(math.Exp(x)) && math.RoundToEven(x*expLog2E) < 1024 {
			return
		}
		check(x)
	}
	for x := -746.0; x <= 710; x += 0.013771 {
		sweep(x)
	}
	for x := -2.0; x <= 2; x += 0.000317 {
		sweep(x)
	}
}

// TestExp1Specials pins the special-case behavior to math.Exp's exactly.
func TestExp1Specials(t *testing.T) {
	for _, x := range []float64{math.Inf(1), math.Inf(-1), math.NaN(), 710, 1e300, -1e300} {
		got, want := Exp1(x), math.Exp(x)
		if math.Float64bits(got) != math.Float64bits(want) &&
			!(math.IsNaN(got) && math.IsNaN(want)) {
			t.Fatalf("Exp1(%g) = %g, math.Exp = %g", x, got, want)
		}
	}
}

// TestExp4MatchesExp1 requires every batch lane to be bit-identical to the
// scalar form — the property the engines' determinism rests on.
func TestExp4MatchesExp1(t *testing.T) {
	xs := []float64{
		0, math.Copysign(0, -1), 1, -1, math.Inf(1), math.Inf(-1), math.NaN(),
		709.78271289338397, 710, -744, -745.2, -746, -1000, -708.5, 708.5,
	}
	for x := -746.0; x <= 710; x += 0.13771 {
		xs = append(xs, x)
	}
	for i := 0; i+3 < len(xs); i += 4 {
		a, b, c, d := xs[i], xs[i+1], xs[i+2], xs[i+3]
		ea, eb, ec, ed := Exp4(a, b, c, d)
		for _, p := range [][2]float64{{a, ea}, {b, eb}, {c, ec}, {d, ed}} {
			want := Exp1(p[0])
			if math.Float64bits(p[1]) != math.Float64bits(want) &&
				!(math.IsNaN(p[1]) && math.IsNaN(want)) {
				t.Fatalf("Exp4(%g) = %x, Exp1 = %x", p[0],
					math.Float64bits(p[1]), math.Float64bits(want))
			}
		}
	}
}

// expRefPrec is the working precision of expRef, in bits.
const expRefPrec = 256

// bigLn2 is ln 2 to expRefPrec bits: 2·atanh(1/3) = Σ 2/((2i+1)·3^(2i+1)).
var bigLn2 = func() *big.Float {
	newF := func() *big.Float { return new(big.Float).SetPrec(expRefPrec) }
	third := newF().Quo(newF().SetInt64(1), newF().SetInt64(3))
	ninth := newF().Mul(third, third)
	sum, pow := newF(), newF().Set(third)
	for i := int64(0); i < expRefPrec; i++ {
		sum.Add(sum, newF().Quo(pow, newF().SetInt64(2*i+1)))
		pow.Mul(pow, ninth)
	}
	return sum.Mul(sum, newF().SetInt64(2))
}()

// expRef returns e^x correctly rounded to float64: x = k·ln 2 + r with
// |r| ≤ ln 2/2, e^r summed from its Taylor series, both in expRefPrec-bit
// math/big arithmetic, then scaled by 2^k and rounded once. (A true value
// within 2^-250 or so of a rounding boundary could round the wrong way;
// exp has no such argument in float64 that matters here.) math.Exp is not
// a fit reference: it is only within 1 ulp of e^x, and on amd64 hosts with
// FMA it can sit on the other side of the true value from Exp1.
func expRef(x float64) float64 {
	switch {
	case math.IsNaN(x):
		return x
	case x > 710:
		return math.Inf(1)
	case x < -746:
		return 0
	}
	newF := func() *big.Float { return new(big.Float).SetPrec(expRefPrec) }
	k := math.Round(x / math.Ln2)
	r := newF().SetFloat64(x)
	r.Sub(r, newF().Mul(bigLn2, newF().SetFloat64(k)))
	sum, term := newF().SetInt64(1), newF().SetInt64(1)
	for n := int64(1); ; n++ {
		term.Mul(term, r)
		term.Quo(term, newF().SetInt64(n))
		if term.Sign() == 0 || term.MantExp(nil) < sum.MantExp(nil)-expRefPrec {
			break
		}
		sum.Add(sum, term)
	}
	f, _ := sum.SetMantExp(sum, int(k)).Float64()
	return f
}

// exp1Want returns the value Exp1(x) is judged against and the ulps it may
// be from it. Exp1 reproduces amd64 math.Exp without FMA, whose error
// reaches about 1.5 ulps: of 596K sampled arguments, 33 came out 2 ulps
// from e^x correctly rounded (expRef; 0.3732649235368568 is one) and none
// further, so 2 ulps are allowed. Like that math.Exp it also overflows
// early: the result is scaled by 2^k last, and 2^1024 overflows, so once
// x·log2(e) rounds to 1024, e^x in (1.27e308, MaxFloat64] comes back +Inf.
func exp1Want(x float64) (want float64, tol uint64) {
	if math.RoundToEven(x*expLog2E) >= 1024 {
		return math.Inf(1), 0
	}
	return expRef(x), 2
}

// FuzzExpFastLanes fuzzes arbitrary arguments through all batch lanes,
// asserting lane-vs-scalar bit-identity and accuracy against e^x correctly
// rounded (exp1Want). −9.3759375 is where FMA math.Exp and Exp1 round to
// opposite sides of e^x, 2 ulps apart, so math.Exp cannot be the reference.
func FuzzExpFastLanes(f *testing.F) {
	for _, x := range []float64{0, -1, 1, -745.13, 709.78, -0.0001, 3.14, -708, 708.0001,
		-9.3759375, 0.3732649235368568} {
		f.Add(x)
	}
	f.Fuzz(func(t *testing.T, x float64) {
		ea, eb, ec, ed := Exp4(x, x/2, -x, x*1.0001)
		for i, p := range [][2]float64{{x, ea}, {x / 2, eb}, {-x, ec}, {x * 1.0001, ed}} {
			want := Exp1(p[0])
			if math.Float64bits(p[1]) != math.Float64bits(want) &&
				!(math.IsNaN(p[1]) && math.IsNaN(want)) {
				t.Fatalf("lane %d: Exp4(%g) = %x, Exp1 = %x", i, p[0],
					math.Float64bits(p[1]), math.Float64bits(want))
			}
			if math.IsNaN(p[0]) {
				continue
			}
			want, tol := exp1Want(p[0])
			if d := ulpDiff(p[1], want); d > tol {
				t.Fatalf("lane %d: Exp4(%g) = %x, %d ulp from %x", i, p[0],
					math.Float64bits(p[1]), d, math.Float64bits(want))
			}
		}
	})
}

func BenchmarkMathExp4x(b *testing.B) {
	var s float64
	for i := 0; i < b.N; i++ {
		x := -float64(i&1023) * 0.5
		s += math.Exp(x) + math.Exp(x-1) + math.Exp(x-2) + math.Exp(x-3)
	}
	sinkF = s
}

func BenchmarkExp4(b *testing.B) {
	var s float64
	for i := 0; i < b.N; i++ {
		x := -float64(i&1023) * 0.5
		ea, eb, ec, ed := Exp4(x, x-1, x-2, x-3)
		s += ea + eb + ec + ed
	}
	sinkF = s
}

var sinkF float64
