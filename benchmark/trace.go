package main

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"strconv"
	"strings"
	"time"

	"diablo/internal/bench"
)

// foldedSelf reads folded stacks ("a;b;c <nanoseconds>" per line, as
// Experiment.SpansWall writes them) and sums the self time by leaf label.
func foldedSelf(r io.Reader) (map[string]time.Duration, error) {
	self := map[string]time.Duration{}
	sc := bufio.NewScanner(r)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		stack, ns, ok := strings.Cut(line, " ")
		if !ok {
			return nil, fmt.Errorf("folded stack %q: want \"stack nanoseconds\"", line)
		}
		n, err := strconv.ParseInt(strings.TrimSpace(ns), 10, 64)
		if err != nil {
			return nil, fmt.Errorf("folded stack %q: %w", line, err)
		}
		leaf := stack[strings.LastIndexByte(stack, ';')+1:]
		self[leaf] += time.Duration(n)
	}
	return self, sc.Err()
}

// selfLabels maps the span labels the program's wall profile uses to the
// layer metric each one feeds. Whatever the traced wall holds beyond these
// five (world assembly, heap operations, other event kinds, summarising) is
// sim.other_self_s, so the six sum to the traced wall.
var selfLabels = []struct{ label, metric string }{
	{"workload.submit", "core.submit_self_s"},
	{"client.rpc", "chain.rpc_self_s"},
	{"consensus.step", "consensus.step_self_s"},
	{"exec.apply", "chain.exec_self_s"},
	{"net.deliver", "simnet.deliver_self_s"},
}

// sampledCounts maps the final value of a sampled registry column to the
// count metric it feeds, summed over the workload's cells.
var sampledCounts = []struct{ column, metric string }{
	{"sched.executed", "sim.events"},
	{"net.delivered", "simnet.msgs"},
	{"net.bytes", "simnet.bytes"},
	{"consensus.rounds", "consensus.rounds"},
	{"consensus.viewchanges", "consensus.viewchanges"},
	{"chain.blocks", "chain.blocks"},
	{"tx.submitted", "tx.submitted"},
	{"tx.admitted", "tx.admitted"},
	{"tx.rejected", "tx.rejected"},
	{"tx.included", "tx.included"},
	{"tx.decided", "tx.decided"},
	{"tx.retries", "tx.retries"},
	{"tx.timeouts", "tx.timeouts"},
}

// column returns the sampled series of one registry column of an outcome
// run with Experiment.Metrics, or nil when it has none.
func column(out *bench.Outcome, name string) []float64 {
	if out.Metrics == nil {
		return nil
	}
	for i, n := range out.Metrics.Names {
		if n == name {
			return out.Metrics.Series[i]
		}
	}
	return nil
}

// finalCount returns the last sampled value of a registry column.
func finalCount(out *bench.Outcome, name string) float64 {
	series := column(out, name)
	if len(series) == 0 {
		return 0
	}
	return series[len(series)-1]
}

// cellTrace accumulates what the traced repetition observes through the
// program's public hooks, Experiment.SpansWall and Experiment.Metrics.
type cellTrace struct {
	folded    bytes.Buffer
	self      map[string]time.Duration
	counts    map[string]float64 // by sampledCounts column
	depthPeak float64
	executed  float64
	replayed  float64
	err       error
}

func (t *cellTrace) arm(exp *bench.Experiment) {
	t.folded.Reset()
	exp.SpansWall = &t.folded
	exp.Metrics = true
}

func (t *cellTrace) inspect(out *bench.Outcome) {
	self, err := foldedSelf(&t.folded)
	if err != nil && t.err == nil {
		t.err = err
	}
	for label, d := range self {
		t.self[label] += d
	}
	t.executed += float64(out.ExecutedTxs)
	t.replayed += float64(out.ReplayedTxs)
	for _, c := range sampledCounts {
		t.counts[c.column] += finalCount(out, c.column)
	}
	for _, depth := range column(out, "mempool.depth") {
		t.depthPeak = max(t.depthPeak, depth)
	}
}

// traceWorkload re-runs the workload once with the wall profile and the
// metrics registry on, and writes the cell-trace metrics into l. m holds the
// untraced repetitions of the same process, the base of the overhead ratio.
func (r *runner) traceWorkload(m *measured, l *ledger) (*pass, error) {
	t := &cellTrace{self: map[string]time.Duration{}, counts: map[string]float64{}}
	p := r.runPass("traced", m.cells, m.cold, t.arm, t.inspect)
	if t.err != nil {
		return nil, t.err
	}

	other := p.wall
	for _, s := range selfLabels {
		sec := t.self[s.label].Seconds()
		l.put(s.metric, sec)
		other -= sec
	}
	l.put("sim.other_self_s", other)

	wall := summarize(m.series(func(p *pass) float64 { return p.wall })).Median
	l.put("trace.overhead_ratio", ratio(p.wall, wall))
	for _, c := range sampledCounts {
		l.put(c.metric, t.counts[c.column])
	}
	l.put("mempool.depth_peak", t.depthPeak)
	l.put("chain.executed", t.executed)
	l.put("chain.replayed", t.replayed)
	l.put("chain.cache_hit_ratio", ratio(t.replayed, t.executed+t.replayed))
	events := t.counts["sched.executed"]
	l.put("sim.host_ns_per_event", ratio(wall*1e9, events))
	l.put("sim.events_per_tx", ratio(events, t.counts["tx.submitted"]))
	l.put("runtime.gc_cycles", summarize(m.series(func(p *pass) float64 { return float64(p.gcCycles) })).Median)
	return p, nil
}
