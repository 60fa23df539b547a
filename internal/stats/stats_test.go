package stats

import (
	"math"
	"testing"
	"testing/quick"
)

func almost(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestGeomean(t *testing.T) {
	if g := Geomean(nil); g != 1 {
		t.Errorf("Geomean(nil) = %f", g)
	}
	if g := Geomean([]float64{2, 8}); !almost(g, 4) {
		t.Errorf("Geomean(2,8) = %f, want 4", g)
	}
	if g := Geomean([]float64{1, 1, 1}); !almost(g, 1) {
		t.Errorf("Geomean(1,1,1) = %f", g)
	}
	if g := Geomean([]float64{0, 4}); math.IsNaN(g) || math.IsInf(g, 0) {
		t.Errorf("Geomean with zero produced %f", g)
	}
}

func TestGeomeanBoundsProperty(t *testing.T) {
	f := func(raw []float64) bool {
		xs := make([]float64, 0, len(raw))
		lo, hi := math.Inf(1), 0.0
		for _, x := range raw {
			x = math.Abs(x)
			// Restrict to a range where exp(log(x)) cannot overflow.
			if x < 1e-100 || x > 1e100 || math.IsNaN(x) {
				continue
			}
			xs = append(xs, x)
			if x < lo {
				lo = x
			}
			if x > hi {
				hi = x
			}
		}
		if len(xs) == 0 {
			return true
		}
		g := Geomean(xs)
		return g >= lo-1e-9 && g <= hi+1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestWeightedSpeedup(t *testing.T) {
	ws, err := WeightedSpeedup([]float64{1, 1}, []float64{2, 2})
	if err != nil {
		t.Fatal(err)
	}
	if !almost(ws, 1.0) {
		t.Errorf("WeightedSpeedup = %f, want 1.0", ws)
	}
}

func TestWeightedSpeedupLengthMismatch(t *testing.T) {
	if _, err := WeightedSpeedup([]float64{1}, []float64{1, 2}); err == nil {
		t.Error("length mismatch did not return an error")
	}
}

func TestCoverage(t *testing.T) {
	if c := Coverage(100, 40); !almost(c, 0.6) {
		t.Errorf("Coverage = %f, want 0.6", c)
	}
	if c := Coverage(100, 120); !almost(c, -0.2) {
		t.Errorf("negative coverage = %f, want -0.2", c)
	}
	if c := Coverage(0, 10); c != 0 {
		t.Errorf("zero baseline coverage = %f", c)
	}
}

func TestOverPrediction(t *testing.T) {
	if o := OverPrediction(100, 60, 200); !almost(o, 0.2) {
		t.Errorf("OverPrediction = %f, want 0.2", o)
	}
	if o := OverPrediction(10, 20, 100); o != 0 {
		t.Errorf("clamped over-prediction = %f, want 0", o)
	}
	if o := OverPrediction(5, 1, 0); o != 0 {
		t.Errorf("zero-baseline over-prediction = %f", o)
	}
}

func TestSpeedupAndRatio(t *testing.T) {
	if s := Speedup(3, 2); !almost(s, 1.5) {
		t.Errorf("Speedup = %f", s)
	}
	if s := Speedup(3, 0); s != 0 {
		t.Errorf("Speedup/0 = %f", s)
	}
	if r := Ratio(1, 4); !almost(r, 0.25) {
		t.Errorf("Ratio = %f", r)
	}
	if r := Ratio(1, 0); r != 0 {
		t.Errorf("Ratio/0 = %f", r)
	}
}

func TestWeightedSpeedupSkipsZeroAlone(t *testing.T) {
	// A zero "alone" IPC (broken run) must not produce Inf.
	ws, err := WeightedSpeedup([]float64{1, 1}, []float64{0, 2})
	if err != nil {
		t.Fatal(err)
	}
	if math.IsInf(ws, 0) || math.IsNaN(ws) {
		t.Errorf("WS with zero alone = %f", ws)
	}
}
