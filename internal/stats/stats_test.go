package stats

import (
	"math"
	"testing"
	"testing/quick"
)

func almost(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestMean(t *testing.T) {
	if !almost(Mean([]float64{1, 2, 3, 4}), 2.5) {
		t.Error("mean wrong")
	}
	if Mean(nil) != 0 {
		t.Error("empty mean must be 0")
	}
}

func TestMedian(t *testing.T) {
	if !almost(Median([]float64{3, 1, 2}), 2) {
		t.Error("odd median wrong")
	}
	if !almost(Median([]float64{4, 1, 2, 3}), 2.5) {
		t.Error("even median must interpolate")
	}
	if Median(nil) != 0 {
		t.Error("empty median must be 0")
	}
}

func TestPercentile(t *testing.T) {
	xs := []float64{10, 20, 30, 40, 50}
	cases := []struct{ p, want float64 }{
		{0, 10}, {100, 50}, {50, 30}, {25, 20}, {-5, 10}, {105, 50}, {12.5, 15},
	}
	for _, c := range cases {
		if got := Percentile(xs, c.p); !almost(got, c.want) {
			t.Errorf("P%g = %g, want %g", c.p, got, c.want)
		}
	}
	// The input must not be reordered.
	orig := []float64{3, 1, 2}
	Percentile(orig, 50)
	if orig[0] != 3 || orig[1] != 1 {
		t.Error("Percentile mutated its input")
	}
}

func TestLog2Bucket(t *testing.T) {
	for _, c := range []struct {
		x    uint64
		n    int
		want int
	}{
		{0, 40, 0}, {1, 40, 0}, {2, 40, 1}, {3, 40, 1}, {1024, 40, 10},
		{2_000_000, 40, 20}, {1 << 39, 40, 39}, {1 << 62, 40, 39},
		{1 << 63, 64, 63}, {math.MaxUint64, 64, 63},
	} {
		if got := Log2Bucket(c.x, c.n); got != c.want {
			t.Errorf("Log2Bucket(%d, %d) = %d, want %d", c.x, c.n, got, c.want)
		}
	}
}

func TestStddev(t *testing.T) {
	if !almost(Stddev([]float64{2, 4, 4, 4, 5, 5, 7, 9}), 2) {
		t.Errorf("stddev = %g, want 2", Stddev([]float64{2, 4, 4, 4, 5, 5, 7, 9}))
	}
	if Stddev([]float64{5}) != 0 || Stddev(nil) != 0 {
		t.Error("degenerate stddev must be 0")
	}
}

func TestMinMax(t *testing.T) {
	xs := []float64{3, -1, 7, 2}
	if Min(xs) != -1 || Max(xs) != 7 {
		t.Error("min/max wrong")
	}
	if Min(nil) != 0 || Max(nil) != 0 {
		t.Error("empty min/max must be 0")
	}
}

func TestPctChange(t *testing.T) {
	if !almost(PctChange(200, 230), 15) {
		t.Error("PctChange(200,230) != 15")
	}
	if !almost(PctChange(100, 80), -20) {
		t.Error("PctChange(100,80) != -20")
	}
	if PctChange(0, 5) != 0 {
		t.Error("zero base must give 0")
	}
	// The paper's Table II: 290.51 -> 457.38 is +57.4%.
	if math.Abs(PctChange(290.51, 457.38)-57.4) > 0.1 {
		t.Error("Table II cross-check failed")
	}
}

// Property: min <= p5 <= median <= p95 <= max and min <= mean <= max.
func TestOrderingProperty(t *testing.T) {
	f := func(raw []int16) bool {
		if len(raw) == 0 {
			return true
		}
		xs := make([]float64, len(raw))
		for i, r := range raw {
			xs[i] = float64(r)
		}
		lo, p5, med, p95, hi, mean := Min(xs), Percentile(xs, 5), Median(xs), Percentile(xs, 95), Max(xs), Mean(xs)
		return lo <= p5+1e-9 && p5 <= med+1e-9 &&
			med <= p95+1e-9 && p95 <= hi+1e-9 &&
			lo <= mean+1e-9 && mean <= hi+1e-9 &&
			Stddev(xs) >= 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: mean and median are translation-equivariant.
func TestTranslationProperty(t *testing.T) {
	f := func(raw []int16, shift int16) bool {
		if len(raw) == 0 {
			return true
		}
		xs := make([]float64, len(raw))
		ys := make([]float64, len(raw))
		for i, r := range raw {
			xs[i] = float64(r)
			ys[i] = float64(r) + float64(shift)
		}
		return almost(Mean(ys), Mean(xs)+float64(shift)) &&
			almost(Median(ys), Median(xs)+float64(shift)) &&
			math.Abs(Stddev(ys)-Stddev(xs)) < 1e-6
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
