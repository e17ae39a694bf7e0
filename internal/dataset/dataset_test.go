package dataset

import (
	"bytes"
	"math"
	"path/filepath"
	"strings"
	"testing"

	"github.com/quadkdv/quad/internal/geom"
)

func TestGenerateKnownNames(t *testing.T) {
	for _, name := range Names() {
		pts, err := Generate(name, 1000, 42)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if pts.Len() != 1000 {
			t.Errorf("%s: len = %d", name, pts.Len())
		}
		wantDim := 2
		if name == "hep" {
			wantDim = 10
		}
		if pts.Dim != wantDim {
			t.Errorf("%s: dim = %d, want %d", name, pts.Dim, wantDim)
		}
		for _, v := range pts.Coords[:20] {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				t.Fatalf("%s: non-finite coordinate", name)
			}
		}
	}
}

func TestGenerateUnknownName(t *testing.T) {
	if _, err := Generate("nope", 10, 1); err == nil {
		t.Error("unknown dataset accepted")
	}
}

func TestGenerateDefaultSizes(t *testing.T) {
	pts, err := Generate("elnino", 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	if pts.Len() != PaperSizes["elnino"] {
		t.Errorf("default size = %d, want %d", pts.Len(), PaperSizes["elnino"])
	}
}

func TestDeterminism(t *testing.T) {
	a, _ := Generate("crime", 5000, 7)
	b, _ := Generate("crime", 5000, 7)
	c, _ := Generate("crime", 5000, 8)
	if !equalCoords(a.Coords, b.Coords) {
		t.Error("same seed produced different data")
	}
	if equalCoords(a.Coords, c.Coords) {
		t.Error("different seeds produced identical data")
	}
}

func equalCoords(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestCrimeDensitySkew: the crime analogue must be strongly skewed (hotspot
// structure), measured as a high ratio between dense-cell and median-cell
// occupancy on a coarse histogram.
func TestCrimeDensitySkew(t *testing.T) {
	pts := Crime(50000, 3)
	const cells = 20
	var hist [cells * cells]int
	r := geom.BoundingRect(pts)
	for i := 0; i < pts.Len(); i++ {
		p := pts.At(i)
		cx := int((p[0] - r.Min[0]) / (r.Max[0] - r.Min[0]) * (cells - 1e-9))
		cy := int((p[1] - r.Min[1]) / (r.Max[1] - r.Min[1]) * (cells - 1e-9))
		if cx < 0 {
			cx = 0
		}
		if cx >= cells {
			cx = cells - 1
		}
		if cy < 0 {
			cy = 0
		}
		if cy >= cells {
			cy = cells - 1
		}
		hist[cy*cells+cx]++
	}
	max := 0
	for _, c := range hist {
		if c > max {
			max = c
		}
	}
	mean := pts.Len() / (cells * cells)
	if max < 10*mean {
		t.Errorf("crime analogue insufficiently skewed: max cell %d vs mean %d", max, mean)
	}
}

// TestHomeTwoModes: the home analogue must show two separated temperature
// modes.
func TestHomeTwoModes(t *testing.T) {
	pts := Home(20000, 5)
	var lo, hi int
	for i := 0; i < pts.Len(); i++ {
		temp := pts.At(i)[0]
		if temp < 22.5 {
			lo++
		} else {
			hi++
		}
	}
	if lo < pts.Len()/10 || hi < pts.Len()/10 {
		t.Errorf("home analogue modes unbalanced: %d vs %d", lo, hi)
	}
}

func TestHepDimensions(t *testing.T) {
	pts := Hep(1000, 6, 1)
	if pts.Dim != 6 {
		t.Errorf("dim = %d", pts.Dim)
	}
	pts = Hep(1000, 1, 1) // clamped up to 2
	if pts.Dim != 2 {
		t.Errorf("clamped dim = %d", pts.Dim)
	}
}

func TestFirst2D(t *testing.T) {
	pts := Hep(100, 5, 1)
	p2 := First2D(pts)
	if p2.Dim != 2 || p2.Len() != 100 {
		t.Fatalf("First2D: dim=%d len=%d", p2.Dim, p2.Len())
	}
	for i := 0; i < 100; i++ {
		if p2.At(i)[0] != pts.At(i)[0] || p2.At(i)[1] != pts.At(i)[1] {
			t.Fatalf("First2D mismatch at %d", i)
		}
	}
	same := First2D(p2)
	if &same.Coords[0] != &p2.Coords[0] {
		t.Error("First2D of 2-d data should be a no-op")
	}
}

func TestSubsample(t *testing.T) {
	pts := ElNino(10000, 1)
	sub := Subsample(pts, 1000, 2)
	if sub.Len() != 1000 {
		t.Errorf("subsample len = %d", sub.Len())
	}
	all := Subsample(pts, 20000, 2)
	if all.Len() != 10000 {
		t.Errorf("oversized subsample len = %d", all.Len())
	}
}

func TestCSVRoundTrip(t *testing.T) {
	pts := Crime(500, 9)
	var buf bytes.Buffer
	if err := WriteCSV(&buf, pts); err != nil {
		t.Fatal(err)
	}
	got, err := ReadCSV(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() != pts.Len() || got.Dim != pts.Dim {
		t.Fatalf("round trip: len=%d dim=%d", got.Len(), got.Dim)
	}
	for i := 0; i < got.Len(); i++ {
		a, b := got.At(i), pts.At(i)
		if a[0] != b[0] || a[1] != b[1] {
			t.Fatalf("round trip mismatch at %d: %v vs %v", i, a, b)
		}
	}
}

func TestReadCSVHeaderAndComments(t *testing.T) {
	in := "x,y\n# comment\n1,2\n\n3,4\n"
	got, err := ReadCSV(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() != 2 {
		t.Errorf("len = %d, want 2", got.Len())
	}
}

func TestReadCSVErrors(t *testing.T) {
	if _, err := ReadCSV(strings.NewReader("")); err == nil {
		t.Error("empty input accepted")
	}
	if _, err := ReadCSV(strings.NewReader("1,2\n3\n")); err == nil {
		t.Error("ragged rows accepted")
	}
	if _, err := ReadCSV(strings.NewReader("1,2\nx,y\n")); err == nil {
		t.Error("mid-file non-numeric row accepted")
	}
	for _, c := range []struct {
		in   string
		line string
	}{
		{"NaN,2\n", "line 1"},
		{"1,2\n3,Inf\n", "line 2"},
		{"1,2\n\n-inf,4\n", "line 3"},
		{"x,y\n1,+Inf\n", "line 2"},
	} {
		_, err := ReadCSV(strings.NewReader(c.in))
		if err == nil {
			t.Errorf("non-finite value accepted: %q", c.in)
		} else if !strings.Contains(err.Error(), c.line) {
			t.Errorf("%q: error %q does not name %s", c.in, err, c.line)
		}
	}
}

func TestSaveLoadFile(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "pts.csv")
	pts := Home(200, 4)
	if err := SaveFile(path, pts); err != nil {
		t.Fatal(err)
	}
	got, err := LoadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() != 200 {
		t.Errorf("loaded %d points", got.Len())
	}
	if _, err := LoadFile(filepath.Join(dir, "missing.csv")); err == nil {
		t.Error("missing file accepted")
	}
}
