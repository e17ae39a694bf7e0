package dataset

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"os"
	"strconv"
	"strings"

	"github.com/quadkdv/quad/internal/geom"
)

// WriteCSV writes the points as comma-separated rows (no header), one point
// per line, to w.
func WriteCSV(w io.Writer, pts geom.Points) error {
	bw := bufio.NewWriter(w)
	n := pts.Len()
	for i := 0; i < n; i++ {
		p := pts.At(i)
		for j, v := range p {
			if j > 0 {
				if err := bw.WriteByte(','); err != nil {
					return err
				}
			}
			if _, err := bw.WriteString(strconv.FormatFloat(v, 'g', -1, 64)); err != nil {
				return err
			}
		}
		if err := bw.WriteByte('\n'); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// ReadCSV parses comma-separated numeric rows into a point buffer. All rows
// must have the same number of columns and only finite values; blank lines
// and lines starting with '#' are skipped, and a non-numeric first row is
// treated as a header.
func ReadCSV(r io.Reader) (geom.Points, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<16), 1<<22)
	var coords []float64
	dim := 0
	line := 0
	for sc.Scan() {
		line++
		text := strings.TrimSpace(sc.Text())
		if text == "" || strings.HasPrefix(text, "#") {
			continue
		}
		fields := strings.Split(text, ",")
		row := make([]float64, 0, len(fields))
		bad := false
		for _, f := range fields {
			v, err := strconv.ParseFloat(strings.TrimSpace(f), 64)
			if err != nil {
				bad = true
				break
			}
			row = append(row, v)
		}
		if bad {
			if dim == 0 {
				continue // header row
			}
			return geom.Points{}, fmt.Errorf("dataset: non-numeric value on line %d", line)
		}
		for _, v := range row {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return geom.Points{}, fmt.Errorf("dataset: non-finite value %g on line %d", v, line)
			}
		}
		if dim == 0 {
			dim = len(row)
		} else if len(row) != dim {
			return geom.Points{}, fmt.Errorf("dataset: line %d has %d columns, want %d", line, len(row), dim)
		}
		coords = append(coords, row...)
	}
	if err := sc.Err(); err != nil {
		return geom.Points{}, err
	}
	if dim == 0 {
		return geom.Points{}, fmt.Errorf("dataset: no data rows")
	}
	return geom.NewPoints(coords, dim), nil
}

// SaveFile writes the points to a CSV file at path.
func SaveFile(path string, pts geom.Points) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := WriteCSV(f, pts); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// LoadFile reads a CSV point file from path.
func LoadFile(path string) (geom.Points, error) {
	f, err := os.Open(path)
	if err != nil {
		return geom.Points{}, err
	}
	defer f.Close()
	return ReadCSV(f)
}
