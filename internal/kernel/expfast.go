package kernel

import "math"

// Batched exponentials for the Gaussian leaf-scan hot path. Exp4 evaluates
// four exp(x) with the four dependency chains interleaved in branch-free
// straight-line code, so the out-of-order core overlaps them — the ~25-step
// serial chain of one exponential amortizes across lanes instead of
// serializing behind a math.Exp call per point.
//
// The algorithm is the Shibata/SLEEF polynomial that Go's amd64 assembly
// math.Exp implements, in its plain multiply/add variant (no fused ops).
// Its error reaches about 1.5 ulps: results are within 2 ulps of e^x
// correctly rounded (FuzzExpFastLanes), except that an x whose x·log2(e)
// rounds to 1024 overflows to +Inf, as in math.Exp, although e^x may be
// finite there. Exp1 returns the bits math.Exp returns on an amd64 CPU
// without FMA. On one with AVX and FMA, math.Exp takes a fused path and
// may differ in the last bit, so every exponential
// behind a raster — bound coefficients, kernel profiles, leaf scans and,
// through stats, the bandwidth — goes through Exp1. That makes rasters the
// same on every amd64 host, which TestLedgerHostIndependent checks by
// re-running the ledger under GODEBUG=cpu.fma=off. The Go compiler does not
// fuse x*y+z on amd64, even at GOAMD64=v3; other architectures are
// unverified, since their compilers may fuse and change these bits.
// math.Expm1 has no assembly on amd64 and stays as it is.

const (
	expOverflow = 7.09782712893384e+02
	expLog2E    = 1.4426950408889634073599246810018920
	expLn2Hi    = 0.69314718055966295651160180568695068359375
	expLn2Lo    = 0.28235290563031577122588448175013436025525412068e-12

	// Taylor coefficients of the reduced-argument polynomial.
	expC3 = 1.6666666666666666667e-1
	expC4 = 4.1666666666666666667e-2
	expC5 = 8.3333333333333333333e-3
	expC6 = 1.3888888888888888889e-3
	expC7 = 1.9841269841269841270e-4
	expC8 = 2.4801587301587301587e-5

	// expRoundMagic implements round-to-nearest-even to an integer under the
	// default rounding mode: t + magic − magic is exact for |t| < 2^51,
	// which covers every finite exp argument.
	expRoundMagic = 6755399441055744.0 // 1.5 * 2^52

	// expEasyLim brackets the arguments the batched core handles without
	// overflow, underflow, or denormal scaling; |x| ≤ 708 keeps the biased
	// result exponent strictly inside (0, 0x7FF).
	expEasyLim = 708.0
)

// expScale multiplies the polynomial result by 2^k with full denormal and
// overflow handling (the assembly's ldexp tail).
func expScale(x0 float64, k int32) float64 {
	e := k + 0x3FF
	if e <= 0 {
		if e < -52 {
			return 0
		}
		x0 *= math.Float64frombits(uint64(e+0x3FE) << 52)
		return x0 * math.Float64frombits(1<<52) // 2^-1022
	}
	if e >= 0x7FF {
		return math.Inf(1)
	}
	return x0 * math.Float64frombits(uint64(e)<<52)
}

// Exp1 is the scalar form of Exp4: one lane of the same operation sequence,
// bit-identical to a batch lane, with the special cases (NaN, ±Inf,
// overflow, denormal results) handled like math.Exp handles them.
func Exp1(x float64) float64 {
	b := math.Float64bits(x)
	if b&0x7FFFFFFFFFFFFFFF >= 0x7FF0000000000000 {
		if b == 0xFFF0000000000000 { // -Inf
			return 0
		}
		return x // NaN or +Inf
	}
	if x > expOverflow {
		return math.Inf(1)
	}
	f := (x*expLog2E + expRoundMagic) - expRoundMagic
	k := int32(f)
	x0 := x - f*expLn2Hi
	x0 -= f * expLn2Lo
	x0 *= 0.0625
	p := expC8 * x0
	p += expC7
	p *= x0
	p += expC6
	p *= x0
	p += expC5
	p *= x0
	p += expC4
	p *= x0
	p += expC3
	p *= x0
	p += 0.5
	p *= x0
	p += 1.0
	x0 = x0 * p
	p = 2 + x0
	x0 = x0 * p
	p = 2 + x0
	x0 = x0 * p
	p = 2 + x0
	x0 = x0 * p
	p = 2 + x0
	x0 = x0 * p
	x0 += 1.0
	return expScale(x0, k)
}

// Exp4 returns (exp(a), exp(b), exp(c), exp(d)), each bit-identical to
// Exp1 of the same argument.
func Exp4(a, b, c, d float64) (ea, eb, ec, ed float64) {
	// NaN fails both range comparisons, so specials also take the scalar
	// lane handlers.
	if !(a >= -expEasyLim && a <= expEasyLim &&
		b >= -expEasyLim && b <= expEasyLim &&
		c >= -expEasyLim && c <= expEasyLim &&
		d >= -expEasyLim && d <= expEasyLim) {
		return Exp1(a), Exp1(b), Exp1(c), Exp1(d)
	}
	fa := (a*expLog2E + expRoundMagic) - expRoundMagic
	fb := (b*expLog2E + expRoundMagic) - expRoundMagic
	fc := (c*expLog2E + expRoundMagic) - expRoundMagic
	fd := (d*expLog2E + expRoundMagic) - expRoundMagic
	xa := a - fa*expLn2Hi
	xb := b - fb*expLn2Hi
	xc := c - fc*expLn2Hi
	xd := d - fd*expLn2Hi
	xa -= fa * expLn2Lo
	xb -= fb * expLn2Lo
	xc -= fc * expLn2Lo
	xd -= fd * expLn2Lo
	xa *= 0.0625
	xb *= 0.0625
	xc *= 0.0625
	xd *= 0.0625
	pa := expC8 * xa
	pb := expC8 * xb
	pc := expC8 * xc
	pd := expC8 * xd
	pa += expC7
	pb += expC7
	pc += expC7
	pd += expC7
	pa *= xa
	pb *= xb
	pc *= xc
	pd *= xd
	pa += expC6
	pb += expC6
	pc += expC6
	pd += expC6
	pa *= xa
	pb *= xb
	pc *= xc
	pd *= xd
	pa += expC5
	pb += expC5
	pc += expC5
	pd += expC5
	pa *= xa
	pb *= xb
	pc *= xc
	pd *= xd
	pa += expC4
	pb += expC4
	pc += expC4
	pd += expC4
	pa *= xa
	pb *= xb
	pc *= xc
	pd *= xd
	pa += expC3
	pb += expC3
	pc += expC3
	pd += expC3
	pa *= xa
	pb *= xb
	pc *= xc
	pd *= xd
	pa += 0.5
	pb += 0.5
	pc += 0.5
	pd += 0.5
	pa *= xa
	pb *= xb
	pc *= xc
	pd *= xd
	pa += 1.0
	pb += 1.0
	pc += 1.0
	pd += 1.0
	xa = xa * pa
	xb = xb * pb
	xc = xc * pc
	xd = xd * pd
	pa = 2 + xa
	pb = 2 + xb
	pc = 2 + xc
	pd = 2 + xd
	xa = xa * pa
	xb = xb * pb
	xc = xc * pc
	xd = xd * pd
	pa = 2 + xa
	pb = 2 + xb
	pc = 2 + xc
	pd = 2 + xd
	xa = xa * pa
	xb = xb * pb
	xc = xc * pc
	xd = xd * pd
	pa = 2 + xa
	pb = 2 + xb
	pc = 2 + xc
	pd = 2 + xd
	xa = xa * pa
	xb = xb * pb
	xc = xc * pc
	xd = xd * pd
	pa = 2 + xa
	pb = 2 + xb
	pc = 2 + xc
	pd = 2 + xd
	xa = xa * pa
	xb = xb * pb
	xc = xc * pc
	xd = xd * pd
	xa += 1.0
	xb += 1.0
	xc += 1.0
	xd += 1.0
	// |x| ≤ 708 keeps every lane in expScale's normal branch, so the calls
	// stay branch-predictable.
	return expScale(xa, int32(fa)), expScale(xb, int32(fb)),
		expScale(xc, int32(fc)), expScale(xd, int32(fd))
}
