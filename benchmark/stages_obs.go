package main

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"diablo/internal/bench"
	"diablo/internal/collect"
	"diablo/internal/stats"
	"diablo/internal/workloads"
)

// stageReport times what happens to a cell's records after the event loop:
// summarising them and writing the result document with every transaction.
// The input is the fifa-quorum cell cut to its first 30 s, about 142k records;
// both costs are per record. Reporting is outside every timed region, so
// collect.* moves no end-to-end metric.
func (s *stages) stageReport() error {
	cells, err := fifaQuorum(s.seed, s.quick)
	if err != nil {
		return err
	}
	exp := cells[0].exp
	if !s.quick {
		exp.Traces = []*workloads.Trace{exp.Traces[0].Truncated(30 * time.Second)}
	}
	var out *bench.Outcome
	s.spans.time("bench.Run fifa-quorum[:30s]", func() { out, err = bench.Run(exp) })
	if err != nil {
		return err
	}
	n := len(out.Records)

	reps := s.n(10, 1)
	d := s.spans.time("stats.Summarize", func() {
		for i := 0; i < reps; i++ {
			stats.Summarize(out.Records, out.Summary.Duration)
		}
	})
	s.l.put("stats.summarize_ns_per_tx", perOp(d, reps*n, time.Nanosecond))

	reps = s.n(3, 1)
	d = s.spans.time("collect.FromOutcome+WriteJSON", func() {
		for i := 0; i < reps && err == nil; i++ {
			err = collect.WriteJSON(io.Discard, collect.FromOutcome(out, true), false)
		}
	})
	if err != nil {
		return err
	}
	s.l.put("collect.report_ns_per_tx", perOp(d, reps*n, time.Nanosecond))
	return nil
}

// stageObservers runs the quorum-chaos cell with each observer on and with
// all of them off, and reports on over off. Every variant must leave the
// simulation untouched: its digest has to equal the plain run's. Tracing is
// off in every timed repetition, so these ratios move no end-to-end metric.
func (s *stages) stageObservers() error {
	c, err := chaosCell(s.seed, s.quick)
	if err != nil {
		return err
	}
	off := c.exp
	off.Invariants = false
	run := func(name string, exp bench.Experiment) (time.Duration, *bench.Outcome, error) {
		var out *bench.Outcome
		var err error
		d := s.spans.time("bench.Run quorum-chaos "+name, func() { out, err = bench.Run(exp) })
		return d, out, err
	}
	// Two plain runs; the faster is the base, so that warming up does not
	// read as an observer's cost.
	base, plain, err := run("plain", off)
	if err != nil {
		return err
	}
	again, _, err := run("plain", off)
	if err != nil {
		return err
	}
	base = min(base, again)
	want := simDigest(plain)

	ckDir := filepath.Join(s.outDir, "checkpoints")
	defer os.RemoveAll(ckDir)
	for _, v := range []struct {
		name   string
		metric string
		arm    func(*bench.Experiment)
	}{
		{"trace+metrics", "obs.trace_overhead_ratio", func(e *bench.Experiment) { e.Trace, e.Metrics = io.Discard, true }},
		{"spans", "span.record_overhead_ratio", func(e *bench.Experiment) { e.Spans = io.Discard }},
		{"checkpoints", "snapshot.capture_ms", func(e *bench.Experiment) { e.CheckpointEvery, e.CheckpointDir = 25*time.Second, ckDir }},
		{"invariants", "invariant.overhead_ratio", func(e *bench.Experiment) { e.Invariants = true }},
	} {
		exp := off
		v.arm(&exp)
		d, out, err := run(v.name, exp)
		if err != nil {
			return err
		}
		s.check(simDigest(out) == want, "stage observers: "+v.name+" changed the sim digest")
		if v.name == "checkpoints" {
			if len(out.Checkpoints) == 0 {
				return fmt.Errorf("checkpointing run wrote no checkpoint")
			}
			s.l.put(v.metric, perOp(d-base, len(out.Checkpoints), time.Millisecond))
			continue
		}
		s.l.put(v.metric, ratio(float64(d), float64(base)))
	}
	return nil
}

// stageSweep runs the chains-devnet cells through bench.RunMany serially and
// on every CPU, checks that both give the same simulations, and reports
// serial over parallel. The serial pass also gives the wall time of each
// chain's devnet cell, as the program itself measures it.
func (s *stages) stageSweep() error {
	cells, err := chainsDevnet(s.seed, s.quick)
	if err != nil {
		return err
	}
	exps := make([]bench.Experiment, len(cells))
	for i, c := range cells {
		exps[i] = c.exp
	}
	sweep := func(workers int) ([]*bench.Outcome, time.Duration, error) {
		var outs []*bench.Outcome
		var err error
		d := s.spans.time(fmt.Sprintf("bench.RunMany workers=%d", workers), func() { outs, err = bench.RunMany(workers, exps) })
		return outs, d, err
	}
	serial, serialD, err := sweep(1)
	if err != nil {
		return err
	}
	parallel, parallelD, err := sweep(runtime.GOMAXPROCS(0))
	if err != nil {
		return err
	}
	for i, c := range cells {
		s.l.put("cell."+c.name+".wall_s", serial[i].WallTime.Seconds())
		s.check(simDigest(serial[i]) == simDigest(parallel[i]), "stage core.ForEach: parallel "+c.name+" differs from serial")
	}
	s.l.put("core.sweep_speedup", ratio(float64(serialD), float64(parallelD)))
	return nil
}
