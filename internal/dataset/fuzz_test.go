package dataset

import (
	"bytes"
	"math"
	"strings"
	"testing"
)

// FuzzReadCSV: arbitrary text must never panic the parser, everything it
// accepts must be finite, and it must survive a write/read round trip.
func FuzzReadCSV(f *testing.F) {
	f.Add("1,2\n3,4\n")
	f.Add("x,y\n1,2\n")
	f.Add("# comment\n\n1.5e-3,-2\n")
	f.Add("1\n2\n3\n")
	f.Add(",,,\n")
	f.Add("nan,inf\n")
	f.Fuzz(func(t *testing.T, input string) {
		pts, err := ReadCSV(strings.NewReader(input))
		if err != nil {
			return
		}
		if pts.Len() == 0 || pts.Dim == 0 {
			t.Fatalf("accepted input produced empty points: %q", input)
		}
		for _, v := range pts.Coords {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				t.Fatalf("accepted non-finite value %g from %q", v, input)
			}
		}
		var buf bytes.Buffer
		if err := WriteCSV(&buf, pts); err != nil {
			t.Fatalf("write-back failed: %v", err)
		}
		back, err := ReadCSV(&buf)
		if err != nil {
			t.Fatalf("round trip failed: %v (from %q)", err, input)
		}
		if back.Len() != pts.Len() || back.Dim != pts.Dim {
			t.Fatalf("round trip shape changed: %dx%d → %dx%d", pts.Len(), pts.Dim, back.Len(), back.Dim)
		}
	})
}
