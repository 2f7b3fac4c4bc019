package bench

import (
	"math"
	"sort"
	"time"
)

// Summary describes a sample: its median, quartiles and size, plus the
// tail — the highest standard percentile that still has at least ten
// samples beyond it (TailPct is 0 when the sample is too small for one).
type Summary struct {
	N       int     `json:"n"`
	Median  float64 `json:"median"`
	Q1      float64 `json:"q1"`
	Q3      float64 `json:"q3"`
	TailPct float64 `json:"tail_pct,omitempty"`
	Tail    float64 `json:"tail,omitempty"`
}

// Summarize computes the summary of xs; xs is not modified.
func Summarize(xs []float64) Summary {
	if len(xs) == 0 {
		return Summary{}
	}
	s := sorted(xs)
	q := quartiles(s)
	sum := Summary{N: len(s), Median: median(s), Q1: q[0], Q3: q[2]}
	sum.TailPct, sum.Tail = tail(s)
	return sum
}

// Median returns the median of xs (0 for an empty sample).
func Median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	return median(sorted(xs))
}

// Percentile returns the nearest-rank p-th percentile of xs.
func Percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sorted(xs)
	r := int(math.Ceil(p * float64(len(s)) / 100))
	return s[min(max(r, 1), len(s))-1]
}

func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

func median(s []float64) float64 {
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles matches Python's statistics.quantiles(data, n=4), whose
// default "exclusive" method the acceptance check uses, so spreads
// computed here and there agree.
func quartiles(s []float64) [3]float64 {
	var out [3]float64
	ld := len(s)
	if ld == 1 {
		return [3]float64{s[0], s[0], s[0]}
	}
	const n = 4
	m := ld + 1
	for i := 1; i < n; i++ {
		j := i * m / n
		if j < 1 {
			j = 1
		} else if j > ld-1 {
			j = ld - 1
		}
		delta := float64(i*m - j*n)
		out[i-1] = (s[j-1]*(n-delta) + s[j]*delta) / n
	}
	return out
}

// tailPercentiles are the candidates for a sample's reported tail,
// highest first.
var tailPercentiles = []float64{99.9, 99, 95, 90, 75, 50}

// tail picks the highest candidate percentile with at least ten samples
// strictly above its rank.
func tail(s []float64) (pct, value float64) {
	for _, p := range tailPercentiles {
		r := int(math.Ceil(p * float64(len(s)) / 100))
		if len(s)-r >= 10 {
			return p, s[r-1]
		}
	}
	return 0, 0
}

// RelDiff is the change from first to second as a share of first.
func RelDiff(first, second float64) float64 {
	if first == 0 {
		if second == 0 {
			return 0
		}
		return math.Inf(1)
	}
	return (second - first) / math.Abs(first)
}

// Agree reports whether two measurements of one metric differ, in
// either direction, by no more than bound as a share of the first.
func Agree(first, second, bound float64) bool {
	return math.Abs(RelDiff(first, second)) <= bound
}

// micros, millis and secs convert durations to the float units the
// metrics are reported in.
func micros(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
func millis(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func secs(d time.Duration) float64   { return d.Seconds() }

// durations converts a duration sample with f.
func durations(ds []time.Duration, f func(time.Duration) float64) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = f(d)
	}
	return out
}
