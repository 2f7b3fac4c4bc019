package bench

import (
	"math"
	"testing"
)

func TestMedian(t *testing.T) {
	for _, c := range []struct {
		in   []float64
		want float64
	}{
		{nil, 0},
		{[]float64{7}, 7},
		{[]float64{3, 1, 2}, 2},
		{[]float64{4, 1, 3, 2}, 2.5},
	} {
		if got := Median(c.in); got != c.want {
			t.Errorf("Median(%v) = %v, want %v", c.in, got, c.want)
		}
	}
}

// The expected quartiles are what Python's statistics.quantiles(xs,
// n=4) returns, the definition the acceptance check uses.
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		in   []float64
		want [3]float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{1, 2}, [3]float64{0.75, 1.5, 2.25}},
		{[]float64{3, 1, 2}, [3]float64{1, 2, 3}},
		{[]float64{5, 1, 4, 2.5, 9}, [3]float64{1.75, 4, 7}},
	} {
		s := Summarize(c.in)
		got := [3]float64{s.Q1, s.Median, s.Q3}
		for i := range got {
			if math.Abs(got[i]-c.want[i]) > 1e-12 {
				t.Errorf("quartiles(%v) = %v, want %v", c.in, got, c.want)
				break
			}
		}
	}
}

// The tail is the highest standard percentile with at least ten samples
// beyond it.
func TestTailPercentile(t *testing.T) {
	sample := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(n - i)
		}
		return xs
	}
	for _, c := range []struct {
		n         int
		pct, tail float64
	}{
		{19, 0, 0},
		{20, 50, 10},
		{40, 75, 30},
		{100, 90, 90},
		{200, 95, 190},
		{999, 95, 950},
		{1000, 99, 990},
		{10000, 99.9, 9990},
	} {
		s := Summarize(sample(c.n))
		if s.TailPct != c.pct || s.Tail != c.tail || s.N != c.n {
			t.Errorf("n=%d: tail p%v = %v (n=%d), want p%v = %v", c.n, s.TailPct, s.Tail, s.N, c.pct, c.tail)
		}
	}
}

func TestPercentile(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3}
	for _, c := range []struct{ p, want float64 }{{0, 1}, {20, 1}, {50, 3}, {99, 5}, {100, 5}} {
		if got := Percentile(xs, c.p); got != c.want {
			t.Errorf("p%v = %v, want %v", c.p, got, c.want)
		}
	}
}

func TestBoundCheck(t *testing.T) {
	for _, c := range []struct {
		first, second, bound float64
		diff                 float64
		agree                bool
	}{
		{100, 100, 0.1, 0, true},
		{100, 110, 0.1, 0.1, true},
		{100, 90, 0.1, -0.1, true},
		{100, 111, 0.1, 0.11, false},
		{100, 85, 0.1, -0.15, false},
		{-2, -1, 0.5, 0.5, true},
		{0, 0, 0.1, 0, true},
		{0, 1, 0.25, math.Inf(1), false},
	} {
		if d := RelDiff(c.first, c.second); math.Abs(d-c.diff) > 1e-12 && !(math.IsInf(d, 1) && math.IsInf(c.diff, 1)) {
			t.Errorf("RelDiff(%v, %v) = %v, want %v", c.first, c.second, d, c.diff)
		}
		if got := Agree(c.first, c.second, c.bound); got != c.agree {
			t.Errorf("Agree(%v, %v, %v) = %v, want %v", c.first, c.second, c.bound, got, c.agree)
		}
	}
}
