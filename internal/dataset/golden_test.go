package dataset

import (
	"math"
	"testing"
)

// goldenFirst8 pins the first 8 points of every analogue at (n=64, seed=42).
// The generators are the reproducibility root of the whole evaluation
// pipeline — benchmarks, conformance runs, and CI all assume that a (name,
// n, seed) triple names one immutable dataset. Any change to a generator's
// draw sequence (even an innocuous-looking refactor of its rng usage) breaks
// that contract and silently invalidates recorded results, so it must show
// up here as a test failure.
var goldenFirst8 = map[string][][]float64{
	"elnino": {
		{24.320744333339494, 12.967518017874662},
		{24.057511065289006, 8.7238018231432743},
		{27.536550502599244, 10.58812605522586},
		{27.917116947714909, 11.449352954007598},
		{24.185209579752435, 12.737335049216872},
		{26.830215215550652, 10.74699352916522},
		{23.556112760305581, 8.6918714549724179},
		{25.692926914464742, 12.795514722857266},
	},
	"crime": {
		{39.541853764465898, 64.338790087287364},
		{98.027053560134704, 29.939100976043989},
		{85.415150415993352, 68.950142266612474},
		{37.63728636715615, 64.870668506185794},
		{47.151026203652201, 87.656588714270185},
		{36.242421435715386, 12.667103695554411},
		{37.466025941958748, 6.4387669178935063},
		{18.824117827859681, 6.8103472034780328},
	},
	"home": {
		{18.876406296807378, 38.995212012060961},
		{25.843559603737489, 55.503687982589383},
		{20.670401871322341, 42.699551932691399},
		{20.837741636465722, 43.430877640749571},
		{18.74489840514542, 37.144698577528175},
		{17.593639931002794, 35.508183953555779},
		{25.718834042073802, 57.152377389323519},
		{17.692208069435246, 34.541011986435088},
	},
	"hep": {
		{7.3705300460020657, 0.45295022456460454, -2.0254678281737593, 5.7865744108564376, 0.91511173075797181, 5.2178766436853516, -2.6105330330925534, 2.2682217775797051, 6.5869203142835486, -4.6827314332330197},
		{1.696072793350291, 2.7674274611155876, -3.9840401142633834, 0.65240882406263079, -1.1217438027099316, 2.1029977942720941, 5.5882273510057079, 3.843695173137164, 3.7694528076631295, -1.9835213012135733},
		{1.2570396707088918, 3.0838147547553225, -2.9597928758229761, 0.56486206843489883, -0.86303631782855628, 1.3710364180283783, 6.0068302067745156, 3.1685875146482099, 2.7096591731280322, -2.2775553875957892},
		{0.34985065736243681, 4.9916879420508309, -1.1518885157681154, -2.8631605799414412, -1.4493481166693059, 6.5077957581600838, -4.764873660168826, 9.0581411871790039, -3.4772448040371491, -0.27084534519573222},
		{-0.074535092012660731, 1.1535092373336084, -0.14527185885789257, -1.1952025864374975, -1.2146091800081611, 2.1936730162866356, -4.7395859011792103, -2.1098211927048469, -4.0801884262038683, 3.6511997870513233},
		{7.077624800000347, 0.67998716185228303, -2.0675932465683124, 5.7840948626236415, 0.81344175022322462, 5.7669631822377507, -2.464443712493313, 3.0878224861047459, 7.0633316782491402, -4.2005584858442564},
		{3.8130452476453174, 5.5280420954951124, 1.5251561723964207, -3.3312286663258637, 8.1091998406990786, -2.0060980147741603, -6.3133304865186846, -1.2550951173935816, 0.090153664174695836, 1.9363950966142045},
		{0.031695716431946068, 1.3652873901700919, -0.33233236493080476, -1.4663670888145275, -0.8959542204810429, 2.0857981396263017, -4.594851824552185, -1.8478478996256296, -4.1489268559056613, 3.5430498835058759},
	},
}

// TestGeneratorsGolden locks every analogue's draw sequence to the recorded
// constants, bit for bit (%.17g round-trips float64 exactly).
func TestGeneratorsGolden(t *testing.T) {
	for _, name := range Names() {
		want, ok := goldenFirst8[name]
		if !ok {
			t.Fatalf("no golden points recorded for %q", name)
		}
		pts, err := Generate(name, 64, 42)
		if err != nil {
			t.Fatal(err)
		}
		for i, wp := range want {
			got := pts.At(i)
			if len(got) != len(wp) {
				t.Fatalf("%s point %d: dimension %d, golden %d", name, i, len(got), len(wp))
			}
			for j := range wp {
				if math.Float64bits(got[j]) != math.Float64bits(wp[j]) {
					t.Errorf("%s point %d coord %d = %.17g, golden %.17g — generator draw sequence changed",
						name, i, j, got[j], wp[j])
				}
			}
		}
	}
}

// TestGeneratorsReproducible: the same (name, n, seed) must reproduce the
// identical coordinate buffer, and a different seed must not.
func TestGeneratorsReproducible(t *testing.T) {
	for _, name := range Names() {
		a, err := Generate(name, 200, 7)
		if err != nil {
			t.Fatal(err)
		}
		b, err := Generate(name, 200, 7)
		if err != nil {
			t.Fatal(err)
		}
		if len(a.Coords) != len(b.Coords) {
			t.Fatalf("%s: lengths differ across identical calls", name)
		}
		for i := range a.Coords {
			if math.Float64bits(a.Coords[i]) != math.Float64bits(b.Coords[i]) {
				t.Fatalf("%s coord %d differs across identical calls", name, i)
			}
		}
		c, err := Generate(name, 200, 8)
		if err != nil {
			t.Fatal(err)
		}
		same := true
		for i := range a.Coords {
			if a.Coords[i] != c.Coords[i] {
				same = false
				break
			}
		}
		if same {
			t.Errorf("%s: seeds 7 and 8 produced identical datasets", name)
		}
	}
}

// TestGeneratorsPrefix: growing n extends the dataset without perturbing
// earlier points — every generator does its (n-independent) setup first and
// then draws points one at a time, so Generate(name, m, s) is a prefix of
// Generate(name, n, s) for m < n. Benchmark sweeps over n rely on this to
// compare cardinalities on nested datasets.
func TestGeneratorsPrefix(t *testing.T) {
	for _, name := range Names() {
		small, err := Generate(name, 8, 42)
		if err != nil {
			t.Fatal(err)
		}
		big, err := Generate(name, 64, 42)
		if err != nil {
			t.Fatal(err)
		}
		for i := range small.Coords {
			if math.Float64bits(small.Coords[i]) != math.Float64bits(big.Coords[i]) {
				t.Fatalf("%s: coord %d of the n=8 dataset is not a prefix of n=64", name, i)
			}
		}
	}
}

// TestGenerate2DGolden: Generate2D is First2D(Generate) bit for bit, for
// every analogue at several sizes and seeds — hep's 2-d path must draw the
// same random stream as its 10-d one.
func TestGenerate2DGolden(t *testing.T) {
	for _, name := range Names() {
		for _, c := range []struct {
			n    int
			seed int64
		}{{1, 1}, {64, 42}, {1000, 7}, {5001, 31}} {
			want, err := Generate(name, c.n, c.seed)
			if err != nil {
				t.Fatal(err)
			}
			want = First2D(want)
			got, err := Generate2D(name, c.n, c.seed)
			if err != nil {
				t.Fatal(err)
			}
			if got.Dim != 2 || len(got.Coords) != len(want.Coords) {
				t.Fatalf("%s n=%d seed=%d: dim %d, %d coords; want 2, %d",
					name, c.n, c.seed, got.Dim, len(got.Coords), len(want.Coords))
			}
			for i := range want.Coords {
				if math.Float64bits(got.Coords[i]) != math.Float64bits(want.Coords[i]) {
					t.Fatalf("%s n=%d seed=%d: coordinate %d is %v, want %v",
						name, c.n, c.seed, i, got.Coords[i], want.Coords[i])
				}
			}
		}
	}
	if _, err := Generate2D("nope", 10, 1); err == nil {
		t.Error("Generate2D accepted an unknown name")
	}
}

// BenchmarkGenerate2D times the 2-d hep projection a server builds a KDV
// from, generated directly and through the 10-d buffer.
func BenchmarkGenerate2D(b *testing.B) {
	const n, seed = 50000, 7
	b.Run("hep/Generate2D", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := Generate2D("hep", n, seed); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("hep/First2D(Generate)", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			pts, err := Generate("hep", n, seed)
			if err != nil {
				b.Fatal(err)
			}
			First2D(pts)
		}
	})
}
