package stats

import (
	"math/rand"
	"testing"
	"testing/quick"
	"time"
)

func rec(submit, commit time.Duration) TxRecord {
	return TxRecord{Submit: submit, Commit: commit}
}

func TestSummarizeBasics(t *testing.T) {
	records := []TxRecord{
		rec(0, 2*time.Second),
		rec(time.Second, 3*time.Second),
		rec(2*time.Second, 6*time.Second),
		{Submit: 3 * time.Second, Commit: -1},                // pending
		{Submit: 4 * time.Second, Commit: -1, Aborted: true}, // aborted
	}
	s := Summarize(records, 10*time.Second)
	if s.Submitted != 5 || s.Committed != 3 || s.Pending != 1 || s.Aborted != 1 {
		t.Fatalf("counts wrong: %+v", s)
	}
	if s.ThroughputTPS != 0.3 {
		t.Fatalf("throughput = %v, want 0.3", s.ThroughputTPS)
	}
	if s.AvgLoadTPS != 0.5 {
		t.Fatalf("load = %v, want 0.5", s.AvgLoadTPS)
	}
	// latencies: 2s, 2s, 4s -> avg 2.666s, median 2s, max 4s
	if s.MedianLatency != 2*time.Second {
		t.Fatalf("median = %v, want 2s", s.MedianLatency)
	}
	if s.MaxLatency != 4*time.Second {
		t.Fatalf("max = %v, want 4s", s.MaxLatency)
	}
	wantAvg := (2*time.Second + 2*time.Second + 4*time.Second) / 3
	if s.AvgLatency != wantAvg {
		t.Fatalf("avg = %v, want %v", s.AvgLatency, wantAvg)
	}
	if s.CommitRatio != 0.6 {
		t.Fatalf("ratio = %v, want 0.6", s.CommitRatio)
	}
}

func TestSummarizeEmpty(t *testing.T) {
	s := Summarize(nil, 0)
	if s.Submitted != 0 || s.ThroughputTPS != 0 || s.AvgLatency != 0 {
		t.Fatalf("empty summary not zero: %+v", s)
	}
}

func TestSummarizeInferredDuration(t *testing.T) {
	records := []TxRecord{rec(0, 4*time.Second), rec(time.Second, 2*time.Second)}
	s := Summarize(records, 0)
	if s.Duration != 4*time.Second {
		t.Fatalf("inferred duration = %v, want 4s", s.Duration)
	}
}

func TestPercentileNearestRank(t *testing.T) {
	lats := []time.Duration{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	cases := []struct {
		p    float64
		want time.Duration
	}{{50, 5}, {95, 10}, {99, 10}, {10, 1}, {100, 10}}
	for _, c := range cases {
		if got := Percentile(lats, c.p); got != c.want {
			t.Errorf("P%v = %v, want %v", c.p, got, c.want)
		}
	}
}

func TestTimeSeries(t *testing.T) {
	ts := NewTimeSeries(time.Second, 10*time.Second)
	for i := 0; i < 30; i++ {
		ts.Add(time.Duration(i) * 100 * time.Millisecond) // 0..2.9s
	}
	if ts.Counts[0] != 10 || ts.Counts[1] != 10 || ts.Counts[2] != 10 {
		t.Fatalf("bucket counts wrong: %v", ts.Counts[:3])
	}
	if ts.Total() != 30 {
		t.Fatalf("total = %d, want 30", ts.Total())
	}
	if ts.Peak() != 10 {
		t.Fatalf("peak = %v, want 10", ts.Peak())
	}
	if ts.Rate(5) != 0 {
		t.Fatalf("empty bucket rate = %v", ts.Rate(5))
	}
}

func TestTimeSeriesGrowsAndIgnoresNegative(t *testing.T) {
	ts := NewTimeSeries(time.Second, time.Second)
	ts.Add(100 * time.Second)
	ts.Add(-time.Second)
	if ts.Total() != 1 {
		t.Fatalf("total = %d, want 1", ts.Total())
	}
	if ts.Counts[100] != 1 {
		t.Fatal("event not placed in grown bucket")
	}
}

func TestCDFBasics(t *testing.T) {
	lats := []time.Duration{time.Second, 2 * time.Second, 3 * time.Second, 4 * time.Second}
	c := NewCDF(lats, 8) // half the population never committed
	if got := c.At(2 * time.Second); got != 0.25 {
		t.Fatalf("At(2s) = %v, want 0.25", got)
	}
	if got := c.At(10 * time.Second); got != 0.5 {
		t.Fatalf("At(10s) = %v, want plateau 0.5", got)
	}
	if c.Plateau() != 0.5 {
		t.Fatalf("plateau = %v, want 0.5", c.Plateau())
	}
	if q := c.Quantile(0.25); q != 2*time.Second {
		t.Fatalf("Quantile(0.25) = %v, want 2s", q)
	}
	if q := c.Quantile(0.9); q != -1 {
		t.Fatalf("Quantile above plateau = %v, want -1", q)
	}
}

func TestCDFPoints(t *testing.T) {
	c := NewCDF([]time.Duration{time.Second}, 1)
	pts := c.Points(5, 4*time.Second)
	if len(pts) != 5 {
		t.Fatalf("points = %d, want 5", len(pts))
	}
	if pts[0][1] != 0 && pts[0][0] != 0 {
		t.Fatalf("first point should be at 0: %v", pts[0])
	}
	if pts[4][1] != 1 {
		t.Fatalf("last point fraction = %v, want 1", pts[4][1])
	}
}

// Property: a CDF is monotonically non-decreasing and bounded by its plateau.
func TestCDFMonotoneProperty(t *testing.T) {
	f := func(seed int64, n uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		count := int(n%50) + 1
		lats := make([]time.Duration, count)
		for i := range lats {
			lats[i] = time.Duration(rng.Intn(1000)) * time.Millisecond
		}
		c := NewCDF(lats, count*2)
		prev := -1.0
		for d := time.Duration(0); d <= time.Second; d += 10 * time.Millisecond {
			v := c.At(d)
			if v < prev || v > c.Plateau()+1e-9 {
				return false
			}
			prev = v
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: percentiles are drawn from the input and ordered by p.
func TestPercentileOrderedProperty(t *testing.T) {
	f := func(seed int64, n uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		count := int(n%100) + 1
		lats := make([]time.Duration, count)
		for i := range lats {
			lats[i] = time.Duration(rng.Intn(10000)) * time.Millisecond
		}
		p50 := Percentile(lats, 50)
		p95 := Percentile(lats, 95)
		p99 := Percentile(lats, 99)
		return p50 <= p95 && p95 <= p99
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: Summarize counts always partition the record set.
func TestSummarizePartitionProperty(t *testing.T) {
	f := func(seed int64, n uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		count := int(n % 100)
		records := make([]TxRecord, count)
		for i := range records {
			records[i].Submit = time.Duration(rng.Intn(100)) * time.Second
			switch rng.Intn(3) {
			case 0:
				records[i].Commit = records[i].Submit + time.Duration(rng.Intn(30))*time.Second
			case 1:
				records[i].Commit = -1
			case 2:
				records[i].Commit = -1
				records[i].Aborted = true
			}
		}
		s := Summarize(records, time.Minute)
		return s.Committed+s.Pending+s.Aborted == s.Submitted
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
