package progressive

import (
	"context"
	"testing"
	"time"

	"github.com/quadkdv/quad/internal/grid"
)

func TestLevelsRecorded(t *testing.T) {
	o, err := BuildOrder(grid.Resolution{W: 16, H: 16})
	if err != nil {
		t.Fatal(err)
	}
	if len(o.Levels) != o.Len() {
		t.Fatalf("Levels length %d, order length %d", len(o.Levels), o.Len())
	}
	if o.Levels[0] != 0 {
		t.Errorf("first level = %d, want 0", o.Levels[0])
	}
	// Levels are non-decreasing (breadth-first order).
	for i := 1; i < len(o.Levels); i++ {
		if o.Levels[i] < o.Levels[i-1] {
			t.Fatalf("levels not monotone at %d: %d < %d", i, o.Levels[i], o.Levels[i-1])
		}
	}
	// A 16×16 raster refines 0..4 levels.
	if got := o.Levels[len(o.Levels)-1]; got != 4 {
		t.Errorf("deepest level = %d, want 4", got)
	}
}

func TestRunStreamEmitsPerLevel(t *testing.T) {
	o, _ := BuildOrder(grid.Resolution{W: 16, H: 16})
	var snaps []Snapshot
	r, _ := Run(context.Background(), o, func(px, py int) float64 { return float64(px) }, 0, 0, func(s Snapshot) bool {
		// Copy scalar fields only; Values aliases the live raster.
		snaps = append(snaps, Snapshot{Evaluated: s.Evaluated, Level: s.Level, Final: s.Final})
		return true
	})
	if !r.Complete {
		t.Fatal("run incomplete")
	}
	// Levels 0..4 complete → 4 boundary snapshots + 1 final.
	if len(snaps) != 5 {
		t.Fatalf("got %d snapshots, want 5", len(snaps))
	}
	if !snaps[len(snaps)-1].Final {
		t.Error("last snapshot not marked final")
	}
	for i := 1; i < len(snaps); i++ {
		if snaps[i].Evaluated <= snaps[i-1].Evaluated {
			t.Errorf("snapshot %d did not add evaluations: %d → %d", i, snaps[i-1].Evaluated, snaps[i].Evaluated)
		}
	}
	// First snapshot is the single whole-raster evaluation.
	if snaps[0].Evaluated != 1 || snaps[0].Level != 0 {
		t.Errorf("first snapshot %+v", snaps[0])
	}
}

func TestRunStreamEarlyStop(t *testing.T) {
	o, _ := BuildOrder(grid.Resolution{W: 32, H: 32})
	evals := 0
	r, _ := Run(context.Background(), o, func(px, py int) float64 {
		evals++
		return 0
	}, 0, 0, func(s Snapshot) bool {
		return s.Level < 1 // stop after the second level boundary
	})
	if r.Complete {
		t.Error("stopped run reported complete")
	}
	if evals >= o.Len() {
		t.Errorf("early stop evaluated everything (%d)", evals)
	}
}

func TestRunStreamNilEmit(t *testing.T) {
	o, _ := BuildOrder(grid.Resolution{W: 8, H: 8})
	r, _ := Run(context.Background(), o, func(px, py int) float64 { return 1 }, 0, 0, nil)
	if !r.Complete {
		t.Error("nil-emit run incomplete")
	}
}

func TestRunStreamBudget(t *testing.T) {
	o, _ := BuildOrder(grid.Resolution{W: 64, H: 64})
	final := Snapshot{}
	r, _ := Run(context.Background(), o, func(px, py int) float64 {
		time.Sleep(100 * time.Microsecond)
		return 0
	}, 3*time.Millisecond, 0, func(s Snapshot) bool {
		final = s
		return true
	})
	if r.Complete {
		t.Error("budgeted run completed 4096 slow evals in 3ms")
	}
	if !final.Final {
		t.Error("no final snapshot after budget expiry")
	}
}
