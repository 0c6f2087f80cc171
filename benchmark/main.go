// Command benchmark is the repository's benchmark: five workloads of full
// experiment cells run through bench.Run, five end-to-end host-cost metrics
// per workload, and, in a separate traced run, a per-layer ledger measured
// only from outside the program. README.md in this directory records every
// workload and metric with its reason.
//
//	go run ./benchmark --workload fifa-quorum --seed 1 --seconds 15 --trace 0
//	go run ./benchmark --trace 1 --out DIR     # all five workloads, traced
//	go run ./benchmark --compare A/result.json B/result.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"time"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// options are the command line of one run.
type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	quick    bool
	out      string
}

// runSeconds is BENCHMARK.json's run_seconds and the default of --seconds.
const runSeconds = 15

// tracedBaseReps is how many untraced repetitions a traced run makes first:
// they are the base of trace.overhead_ratio and sim.host_ns_per_event.
const tracedBaseReps = 3

// header records where and how a result was measured.
type header struct {
	GoVersion  string  `json:"go_version"`
	NumCPU     int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	Seed       int64   `json:"seed"`
	Commit     string  `json:"commit"`
	Seconds    float64 `json:"seconds"`
	Traced     bool    `json:"traced"`
	// Quick marks numbers taken at the test scale; they are not comparable
	// with anything.
	Quick bool `json:"quick"`
}

// workloadResult is everything one workload's run produced.
type workloadResult struct {
	Name      string   `json:"name"`
	Reps      int      `json:"timed_reps"`
	Ops       int      `json:"ops"`
	OpsFailed int      `json:"ops_failed"`
	Failures  []string `json:"failures,omitempty"`
	Digest    string   `json:"digest"`
	Submitted int      `json:"submitted"`
	// EndToEnd holds the untraced run's metrics; Cells the wall time of each
	// of the workload's cells over the same repetitions.
	EndToEnd map[string]sample `json:"end_to_end,omitempty"`
	Cells    map[string]sample `json:"cells,omitempty"`
	// PerLayer holds the traced run's metrics.
	PerLayer map[string]value `json:"per_layer,omitempty"`
}

// runFile is the document written to <out>/result.json and read back by
// --compare.
type runFile struct {
	Header    header            `json:"header"`
	Workloads []*workloadResult `json:"workloads"`
}

// resultLine is the last line a workload prints: the driver's contract.
type resultLine struct {
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
}

// runner carries one process's state across its workloads.
type runner struct {
	opts   options
	spans  *spanLog
	stdout io.Writer
	// stage holds the layer stages' ledger once they have run; the stages
	// do not depend on the workload, so a process runs them once.
	stage *stages
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var o options
	fs.StringVar(&o.workload, "workload", "", "workload to run (default: all five, in order)")
	fs.Int64Var(&o.seed, "seed", 1, "seed of every cell's Experiment.Seed and of every stage input")
	fs.Float64Var(&o.seconds, "seconds", runSeconds, "how long the timed repetitions of a workload may take in all")
	trace := fs.Int("trace", 0, "0: untraced run, end-to-end metrics; 1: traced run, per-layer metrics")
	fs.BoolVar(&o.quick, "quick", false, "test scale: tiny cells and stages, numbers not comparable")
	fs.StringVar(&o.out, "out", ".bench_out", "directory for result.json and spans.jsonl")
	compare := fs.Bool("compare", false, "compare two result.json files given as arguments")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *compare {
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "usage: benchmark --compare A/result.json B/result.json")
			return 2
		}
		return compareFiles(fs.Arg(0), fs.Arg(1), stdout, stderr)
	}
	if fs.NArg() != 0 || (*trace != 0 && *trace != 1) || o.seconds <= 0 {
		fmt.Fprintln(stderr, "usage: benchmark [--workload NAME] [--seed N] [--seconds S] [--trace 0|1] [--quick] [--out DIR]")
		return 2
	}
	o.trace = *trace == 1

	todo := workloadTable
	if o.workload != "" {
		w, ok := workloadByName(o.workload)
		if !ok {
			fmt.Fprintf(stderr, "benchmark: unknown workload %q\n", o.workload)
			return 2
		}
		todo = []workload{w}
	}

	// The collector's pacing is part of what is measured; pin it whatever
	// GOGC says.
	debug.SetGCPercent(100)
	if err := os.MkdirAll(o.out, 0o755); err != nil {
		fmt.Fprintf(stderr, "benchmark: %v\n", err)
		return 1
	}

	r := &runner{opts: o, spans: newSpanLog(), stdout: stdout}
	file := &runFile{Header: header{
		GoVersion:  runtime.Version(),
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Seed:       o.seed,
		Commit:     commitID(),
		Seconds:    o.seconds,
		Traced:     o.trace,
		Quick:      o.quick,
	}}
	h := file.Header
	fmt.Fprintf(stdout, "diablo benchmark: %s nproc=%d GOMAXPROCS=%d seed=%d commit=%s seconds=%g trace=%d\n",
		h.GoVersion, h.NumCPU, h.GOMAXPROCS, h.Seed, h.Commit, h.Seconds, *trace)
	if o.quick {
		fmt.Fprintln(stdout, "QUICK SCALE: these numbers are not comparable with anything")
	}

	failed := false
	for _, w := range todo {
		res, err := r.runWorkload(w)
		if err != nil {
			fmt.Fprintf(stderr, "benchmark: %s: %v\n", w.name, err)
			return 1
		}
		file.Workloads = append(file.Workloads, res)
		failed = failed || res.OpsFailed > 0
		r.print(res)
	}
	if err := r.writeOut(file); err != nil {
		fmt.Fprintf(stderr, "benchmark: %v\n", err)
		return 1
	}
	if failed {
		return 1
	}
	return 0
}

// commitID is `git rev-parse HEAD` when the working directory is a git
// checkout, and "unknown" anywhere else.
func commitID() string {
	if _, err := os.Stat(".git"); err != nil {
		return "unknown"
	}
	out, err := exec.Command("git", "rev-parse", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

// runWorkload runs one workload under the protocol of the selected mode.
func (r *runner) runWorkload(w workload) (*workloadResult, error) {
	r.spans.begin("workload " + w.name)
	defer r.spans.end()

	reps := 0 // as many as fit in --seconds
	switch {
	case r.opts.quick:
		reps = 1
	case r.opts.trace:
		reps = tracedBaseReps
	}
	m, err := r.measure(w, time.Duration(r.opts.seconds*float64(time.Second)), reps)
	if err != nil {
		return nil, err
	}
	res := &workloadResult{
		Name:      w.name,
		Reps:      len(m.timed),
		Ops:       m.ops(),
		Failures:  m.failures(),
		Digest:    m.cold.digest(),
		Submitted: m.cold.submitted,
		Cells:     map[string]sample{},
	}
	for i, c := range m.cells {
		res.Cells[c.name] = summarize(m.series(func(p *pass) float64 { return p.cellWall[i] }))
	}

	if !r.opts.trace {
		perTx := func(p *pass, v uint64) float64 { return ratio(float64(v), float64(p.submitted)) }
		res.EndToEnd = map[string]sample{
			"wall_s":        summarize(m.series(func(p *pass) float64 { return p.wall })),
			"allocs_per_tx": summarize(m.series(func(p *pass) float64 { return perTx(p, p.mallocs) })),
			"bytes_per_tx":  summarize(m.series(func(p *pass) float64 { return perTx(p, p.bytes) })),
			"peak_heap_mb":  summarize(m.series(func(p *pass) float64 { return p.peakMB })),
			"setup_s":       summarize([]float64{m.setupS}),
		}
	} else {
		l := newLedger()
		p, err := r.traceWorkload(m, l)
		if err != nil {
			return nil, err
		}
		res.Ops += len(m.cells)
		res.Failures = append(res.Failures, p.failures...)
		if r.stage == nil {
			st := &stages{l: newLedger(), spans: r.spans, seed: r.opts.seed, quick: r.opts.quick, outDir: r.opts.out}
			if err := st.run(); err != nil {
				return nil, err
			}
			r.stage = st
		}
		for name, v := range r.stage.l.vals {
			l.vals[name] = v
		}
		res.Ops += r.stage.checks
		res.Failures = append(res.Failures, r.stage.failures...)
		res.PerLayer = l.vals
	}
	res.OpsFailed = len(res.Failures)
	return res, nil
}

// line is the workload's contract line: every end-to-end metric of an
// untraced run, every per-layer metric of a traced one.
func (res *workloadResult) line() resultLine {
	line := resultLine{Correct: res.OpsFailed == 0, Attempted: res.Ops, Failed: res.OpsFailed, Metrics: map[string]value{}}
	for _, d := range endToEnd {
		if s, ok := res.EndToEnd[d.Name]; ok {
			line.Metrics[d.Name] = value{Value: s.Median, Unit: d.Unit}
		}
	}
	for name, v := range res.PerLayer {
		line.Metrics[name] = v
	}
	return line
}

// print writes the workload's tables and, last, its contract line.
func (r *runner) print(res *workloadResult) {
	w := r.stdout
	mode := "untraced"
	if r.opts.trace {
		mode = "traced"
	}
	fmt.Fprintf(w, "\n== %s (%s): 1 cold + %d timed reps, %d tx per rep; ops %d, ops_failed %d\n",
		res.Name, mode, res.Reps, res.Submitted, res.Ops, res.OpsFailed)
	fmt.Fprintf(w, "   sim digest %s\n", res.Digest)
	for _, f := range res.Failures {
		fmt.Fprintf(w, "   FAILED %s\n", f)
	}
	row := func(name, unit string, s sample) {
		fmt.Fprintf(w, "   %-28s %-10s %14.4f %14.4f %14.4f %3d\n", name, unit, s.Median, s.Min, s.Max, s.N)
	}
	fmt.Fprintf(w, "   %-28s %-10s %14s %14s %14s %3s\n", "metric", "unit", "median", "min", "max", "n")
	for _, d := range endToEnd {
		if s, ok := res.EndToEnd[d.Name]; ok {
			row(d.Name, d.Unit, s)
		}
	}
	cells := make([]string, 0, len(res.Cells))
	for name := range res.Cells {
		cells = append(cells, name)
	}
	sort.Strings(cells)
	for _, name := range cells {
		row("cell "+name+" wall", "s", res.Cells[name])
	}
	fmt.Fprintf(w, "   (n = %d repetitions support no percentile above the median)\n", res.Reps)
	if res.PerLayer != nil {
		traced := 0.0
		for _, s := range selfLabels {
			traced += res.PerLayer[s.metric].Value
		}
		traced += res.PerLayer["sim.other_self_s"].Value
		fmt.Fprintf(w, "   %-44s %-10s %16s\n", "per-layer metric", "unit", "value")
		for _, d := range perLayer {
			v := res.PerLayer[d.Name]
			share := ""
			if strings.HasSuffix(d.Name, "_self_s") {
				share = fmt.Sprintf("  %5.1f%% of traced wall", 100*ratio(v.Value, traced))
			}
			fmt.Fprintf(w, "   %-44s %-10s %16.4f%s\n", d.Name, v.Unit, v.Value, share)
		}
	}
	line, err := json.Marshal(res.line())
	if err != nil {
		panic(err) // only NaN or Inf could do this, and ratio() rules them out
	}
	fmt.Fprintf(w, "%s\n", line)
}

// writeOut writes result.json and spans.jsonl into the output directory.
func (r *runner) writeOut(file *runFile) error {
	data, err := json.MarshalIndent(file, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(filepath.Join(r.opts.out, "result.json"), append(data, '\n'), 0o644); err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(r.opts.out, "spans.jsonl"))
	if err != nil {
		return err
	}
	if err := r.spans.write(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
