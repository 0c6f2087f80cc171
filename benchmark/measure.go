package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"
	"runtime"
	"runtime/metrics"
	"time"

	"diablo/internal/bench"
)

// heapSampleEvery is the heap sampler's period. It is the only helper
// goroutine of a run: the simulation itself stays on the main goroutine.
const heapSampleEvery = 5 * time.Millisecond

// heapSampler tracks the maximum of the live heap while a pass runs.
type heapSampler struct {
	stop chan struct{}
	peak chan uint64
}

func startHeapSampler() *heapSampler {
	h := &heapSampler{stop: make(chan struct{}), peak: make(chan uint64, 1)}
	go func() {
		s := []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}
		t := time.NewTicker(heapSampleEvery)
		defer t.Stop()
		var peak uint64
		for {
			metrics.Read(s)
			if v := s[0].Value.Uint64(); v > peak {
				peak = v
			}
			select {
			case <-h.stop:
				h.peak <- peak
				return
			case <-t.C:
			}
		}
	}()
	return h
}

// peakMB stops the sampler, waits for it to exit and returns its maximum.
func (h *heapSampler) peakMB() float64 {
	close(h.stop)
	return float64(<-h.peak) / (1 << 20)
}

// simDigest hashes the cell's seed and what its simulation produced: the
// summary, the chain length, the virtual time, the execution and rejection
// counts and every transaction's submit time, commit time and abort flag.
// Two runs of one cell at one seed must agree on it whatever the host did.
// The seed is part of it because some cells' timings do not depend on the
// seed at all (IBFT draws no randomness, and FIFA's add() takes no
// arguments: only keys and hashes change), and equal digests must mean equal
// inputs too.
func simDigest(out *bench.Outcome) [32]byte {
	h := sha256.New()
	fmt.Fprintf(h, "%d|%+v|%d|%d|%d|%d|%d|%d|%d|", out.Experiment.Seed, out.Summary, out.Blocks, out.VirtualTime,
		out.ExecutedTxs, out.ReplayedTxs, out.Dropped, out.AbortedExec, out.TimedOut)
	var buf [17]byte
	for _, r := range out.Records {
		binary.BigEndian.PutUint64(buf[0:], uint64(r.Submit))
		binary.BigEndian.PutUint64(buf[8:], uint64(r.Commit))
		buf[16] = 0
		if r.Aborted {
			buf[16] = 1
		}
		h.Write(buf[:])
	}
	var d [32]byte
	h.Sum(d[:0])
	return d
}

// pass is one serial run over a workload's cells: the load is closed, one
// cell at a time, the next starting when the previous returns.
type pass struct {
	wall      float64   // host seconds inside bench.Run, summed over cells
	cellWall  []float64 // the same per cell
	mallocs   uint64    // MemStats.Mallocs delta inside bench.Run
	bytes     uint64    // MemStats.TotalAlloc delta inside bench.Run
	gcCycles  uint32    // MemStats.NumGC delta inside bench.Run
	peakMB    float64
	submitted int
	digests   [][32]byte
	failures  []string
}

// digest folds the per-cell digests into the workload's.
func (p *pass) digest() string {
	h := sha256.New()
	for _, d := range p.digests {
		h.Write(d[:])
	}
	return hex.EncodeToString(h.Sum(nil))
}

// runPass runs every cell once. cold, when given, is the cold repetition
// whose digests this pass must reproduce. arm, when given, may switch on
// observers on a cell's experiment before it runs, and inspect sees the
// outcome before it is dropped. Only the time and memory inside bench.Run
// are counted: building, checking and digesting stay outside.
func (r *runner) runPass(name string, cells []cell, cold *pass, arm func(*bench.Experiment), inspect func(*bench.Outcome)) *pass {
	p := &pass{}
	r.spans.begin(name)
	defer r.spans.end()
	sampler := startHeapSampler()
	var before, after runtime.MemStats
	for i, c := range cells {
		exp := c.exp
		if arm != nil {
			arm(&exp)
		}
		r.spans.begin("bench.Run " + c.name)
		runtime.ReadMemStats(&before)
		start := time.Now()
		out, err := bench.Run(exp)
		wall := time.Since(start)
		runtime.ReadMemStats(&after)
		r.spans.end()

		p.wall += wall.Seconds()
		p.cellWall = append(p.cellWall, wall.Seconds())
		p.mallocs += after.Mallocs - before.Mallocs
		p.bytes += after.TotalAlloc - before.TotalAlloc
		p.gcCycles += after.NumGC - before.NumGC

		var d [32]byte
		fail := ""
		switch {
		case err != nil:
			fail = err.Error()
		case out.DeployErr != nil:
			fail = "deploy: " + out.DeployErr.Error()
		case out.Summary.Submitted != c.want:
			fail = fmt.Sprintf("submitted %d of %d", out.Summary.Submitted, c.want)
		case len(out.Violations) > 0:
			fail = "invariant: " + out.Violations[0].String()
		default:
			d = simDigest(out)
			if cold != nil && d != cold.digests[i] {
				fail = "sim digest differs from the cold repetition"
			}
		}
		if err == nil {
			p.submitted += out.Summary.Submitted
			if inspect != nil {
				inspect(out)
			}
		}
		p.digests = append(p.digests, d)
		if fail != "" {
			p.failures = append(p.failures, fmt.Sprintf("%s/%s: %s", name, c.name, fail))
		}
	}
	p.peakMB = sampler.peakMB()
	return p
}

// minTimedReps is the fewest timed repetitions a run makes however short
// --seconds is, so that a median exists.
const minTimedReps = 3

// measured is what the untraced protocol yields for one workload.
type measured struct {
	cells  []cell
	cold   *pass
	timed  []*pass
	setupS float64
}

// measure builds the workload's inputs, runs one cold repetition and then
// timed repetitions, each after a forced collection: reps of them, or with
// reps 0 as many as fit in budget (at least minTimedReps). Set-up time runs from the start to the
// first timed repetition, so process-wide lazy state (compiled DApps, heap
// growth) lands there and not in wall_s.
func (r *runner) measure(w workload, budget time.Duration, reps int) (*measured, error) {
	start := time.Now()
	r.spans.begin("setup")
	cells, err := w.build(r.opts.seed, r.opts.quick)
	if err != nil {
		r.spans.end()
		return nil, fmt.Errorf("building %s: %w", w.name, err)
	}
	m := &measured{cells: cells}
	m.cold = r.runPass("cold", cells, nil, nil, nil)
	r.spans.end()
	m.setupS = time.Since(start).Seconds()

	// fits reports whether another repetition like the slowest so far would
	// still end inside the budget.
	timedStart := time.Now()
	fits := func() bool {
		slowest := 0.0
		for _, p := range m.timed {
			slowest = math.Max(slowest, p.wall)
		}
		return time.Since(timedStart).Seconds()+slowest <= budget.Seconds()
	}
	for i := 0; i < reps || (reps == 0 && (i < minTimedReps || fits())); i++ {
		runtime.GC()
		m.timed = append(m.timed, r.runPass(fmt.Sprintf("rep %d", i+1), cells, m.cold, nil, nil))
	}
	return m, nil
}

// series extracts one number per timed repetition.
func (m *measured) series(f func(*pass) float64) []float64 {
	xs := make([]float64, len(m.timed))
	for i, p := range m.timed {
		xs[i] = f(p)
	}
	return xs
}

// failures lists every failed cell run, cold and timed.
func (m *measured) failures() []string {
	out := append([]string(nil), m.cold.failures...)
	for _, p := range m.timed {
		out = append(out, p.failures...)
	}
	return out
}

// ops counts cell runs attempted, cold and timed.
func (m *measured) ops() int { return len(m.cells) * (1 + len(m.timed)) }
