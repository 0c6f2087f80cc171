// Package stats computes the performance metrics DIABLO reports: average
// throughput, average and percentile latency, commit ratios, per-second
// time series and latency CDFs. Definitions follow the paper: throughput is
// committed transactions divided by experiment duration; latency is the
// difference between a transaction's decision time and submission time as
// recorded by the Secondaries.
package stats

import (
	"math"
	"sort"
	"time"
)

// TxRecord is the per-transaction observation a Secondary produces.
type TxRecord struct {
	// Submit is the time the transaction was sent to a blockchain node.
	Submit time.Duration
	// Commit is the time the transaction was observed inside a block, or
	// negative if it was never committed (dropped or still pending when the
	// experiment ended).
	Commit time.Duration
	// Aborted reports that the blockchain definitively rejected the
	// transaction (e.g. out of gas) rather than leaving it pending.
	Aborted bool
}

// Committed reports whether the transaction made it into a block.
func (r TxRecord) Committed() bool { return r.Commit >= 0 && !r.Aborted }

// Latency returns the commit latency, or 0 for uncommitted transactions.
func (r TxRecord) Latency() time.Duration {
	if !r.Committed() {
		return 0
	}
	return r.Commit - r.Submit
}

// Summary aggregates an experiment's transaction records.
type Summary struct {
	Submitted int
	Committed int
	Aborted   int
	Pending   int
	// CommittedInWindow counts commits that landed within the workload
	// window; stragglers committed during the observation tail count
	// toward Committed and the latency distribution but not throughput.
	CommittedInWindow int
	Duration          time.Duration // workload window
	AvgLoadTPS        float64       // submitted / duration
	ThroughputTPS     float64       // committed within window / duration
	AvgLatency        time.Duration
	MedianLatency     time.Duration
	P95Latency        time.Duration
	P99Latency        time.Duration
	MaxLatency        time.Duration
	CommitRatio       float64 // committed / submitted
}

// Summarize computes a Summary over records. duration must be the length of
// the observation window; if zero it is inferred as the maximum commit or
// submit timestamp seen.
func Summarize(records []TxRecord, duration time.Duration) Summary {
	var s Summary
	s.Submitted = len(records)
	var lats []time.Duration
	var maxT time.Duration
	for _, r := range records {
		if r.Submit > maxT {
			maxT = r.Submit
		}
		if r.Commit > maxT {
			maxT = r.Commit
		}
		switch {
		case r.Aborted:
			s.Aborted++
		case r.Committed():
			s.Committed++
			lats = append(lats, r.Latency())
		default:
			s.Pending++
		}
	}
	if duration <= 0 {
		duration = maxT
	}
	s.Duration = duration
	for _, r := range records {
		if r.Committed() && r.Commit <= duration {
			s.CommittedInWindow++
		}
	}
	if duration > 0 {
		s.ThroughputTPS = float64(s.CommittedInWindow) / duration.Seconds()
		s.AvgLoadTPS = float64(s.Submitted) / duration.Seconds()
	}
	if s.Submitted > 0 {
		s.CommitRatio = float64(s.Committed) / float64(s.Submitted)
	}
	if len(lats) > 0 {
		sort.Slice(lats, func(i, j int) bool { return lats[i] < lats[j] })
		var sum time.Duration
		for _, l := range lats {
			sum += l
		}
		s.AvgLatency = sum / time.Duration(len(lats))
		s.MedianLatency = percentileSorted(lats, 50)
		s.P95Latency = percentileSorted(lats, 95)
		s.P99Latency = percentileSorted(lats, 99)
		s.MaxLatency = lats[len(lats)-1]
	}
	return s
}

// percentileSorted returns the p-th percentile (0 < p <= 100) of an
// ascending-sorted slice using nearest-rank.
func percentileSorted(sorted []time.Duration, p float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	rank := int(math.Ceil(p / 100 * float64(len(sorted))))
	if rank < 1 {
		rank = 1
	}
	if rank > len(sorted) {
		rank = len(sorted)
	}
	return sorted[rank-1]
}

// Percentile returns the p-th percentile of latencies (unsorted input).
func Percentile(lats []time.Duration, p float64) time.Duration {
	c := append([]time.Duration(nil), lats...)
	sort.Slice(c, func(i, j int) bool { return c[i] < c[j] })
	return percentileSorted(c, p)
}

// TimeSeries buckets transaction events into fixed-width intervals, as used
// to plot submitted/committed transactions per second.
type TimeSeries struct {
	Bucket time.Duration
	Counts []int
}

// NewTimeSeries creates a series with the given bucket width covering
// [0, horizon).
func NewTimeSeries(bucket, horizon time.Duration) *TimeSeries {
	if bucket <= 0 {
		panic("stats: bucket must be positive")
	}
	n := int(horizon / bucket)
	if horizon%bucket != 0 {
		n++
	}
	if n == 0 {
		n = 1
	}
	return &TimeSeries{Bucket: bucket, Counts: make([]int, n)}
}

// Add records one event at time t, growing the series if needed.
func (ts *TimeSeries) Add(t time.Duration) {
	if t < 0 {
		return
	}
	i := int(t / ts.Bucket)
	for i >= len(ts.Counts) {
		ts.Counts = append(ts.Counts, 0)
	}
	ts.Counts[i]++
}

// Rate returns the per-second rate of bucket i.
func (ts *TimeSeries) Rate(i int) float64 {
	if i < 0 || i >= len(ts.Counts) {
		return 0
	}
	return float64(ts.Counts[i]) / ts.Bucket.Seconds()
}

// Peak returns the maximum per-second rate across buckets.
func (ts *TimeSeries) Peak() float64 {
	var max float64
	for i := range ts.Counts {
		if r := ts.Rate(i); r > max {
			max = r
		}
	}
	return max
}

// Total returns the total number of events recorded.
func (ts *TimeSeries) Total() int {
	sum := 0
	for _, c := range ts.Counts {
		sum += c
	}
	return sum
}

// CDF is an empirical cumulative distribution over latencies.
type CDF struct {
	sorted []time.Duration
	// total is the population size the fractions are computed against. It
	// may exceed len(sorted): the paper's Fig. 6 plots CDFs that plateau
	// below 1.0 because uncommitted transactions never get a latency.
	total int
}

// NewCDF builds a CDF from observed latencies out of a total population of
// size total (total >= len(lats)). If total is zero, len(lats) is used.
func NewCDF(lats []time.Duration, total int) *CDF {
	c := append([]time.Duration(nil), lats...)
	sort.Slice(c, func(i, j int) bool { return c[i] < c[j] })
	if total < len(c) {
		total = len(c)
	}
	if total == 0 {
		total = 1
	}
	return &CDF{sorted: c, total: total}
}

// At returns the fraction of the population with latency <= d.
func (c *CDF) At(d time.Duration) float64 {
	i := sort.Search(len(c.sorted), func(i int) bool { return c.sorted[i] > d })
	return float64(i) / float64(c.total)
}

// Plateau returns the maximum fraction the CDF reaches (the commit ratio).
func (c *CDF) Plateau() float64 {
	return float64(len(c.sorted)) / float64(c.total)
}

// Quantile returns the smallest latency d such that At(d) >= q, or -1 if the
// CDF plateaus below q.
func (c *CDF) Quantile(q float64) time.Duration {
	if q <= 0 {
		return 0
	}
	need := int(math.Ceil(q * float64(c.total)))
	if need > len(c.sorted) {
		return -1
	}
	if need < 1 {
		need = 1
	}
	return c.sorted[need-1]
}

// Points samples the CDF at n evenly spaced latencies in [0, max] and
// returns (latency, fraction) pairs suitable for plotting.
func (c *CDF) Points(n int, max time.Duration) [][2]float64 {
	if n < 2 {
		n = 2
	}
	pts := make([][2]float64, 0, n)
	for i := 0; i < n; i++ {
		d := time.Duration(int64(max) * int64(i) / int64(n-1))
		pts = append(pts, [2]float64{d.Seconds(), c.At(d)})
	}
	return pts
}
