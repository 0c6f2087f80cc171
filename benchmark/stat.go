package main

import "sort"

// sample summarises repeated measurements of one quantity. With the handful
// of repetitions a run makes, no percentile above the median is supported;
// min and max are given so a reader sees the whole range.
type sample struct {
	Median float64 `json:"median"`
	Min    float64 `json:"min"`
	Max    float64 `json:"max"`
	N      int     `json:"n"`
}

// summarize returns the median, min and max of xs (the zero sample when xs
// is empty). An even count takes the mean of the two middle values.
func summarize(xs []float64) sample {
	if len(xs) == 0 {
		return sample{}
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	med := s[n/2]
	if n%2 == 0 {
		med = (s[n/2-1] + s[n/2]) / 2
	}
	return sample{Median: med, Min: s[0], Max: s[n-1], N: n}
}

// ratio is a/b, or 0 when b is 0, so a metric of an empty quick-scale run
// prints as 0 and never as NaN (which JSON cannot carry).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
