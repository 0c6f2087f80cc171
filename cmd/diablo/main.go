// Command diablo is the DIABLO benchmark CLI, mirroring the paper's usage
// (§5.3):
//
//	diablo primary -vvv --port=5000 --output=results.json --compress \
//	       --stat 10 setup.yaml workload.yaml
//	diablo secondary -vvv --port=5000 --primary=HOST --tag=us-east-2
//	diablo run setup.yaml workload.yaml            (single-process mode)
//
// The primary coordinates the experiment over TCP: it waits for the given
// number of secondaries, sends them the two spec documents, verifies the
// transactions they pre-sign and runs on them the experiment `diablo run`
// runs in one process, against the simulated blockchain deployment named
// in the setup file.
package main

import (
	"flag"
	"fmt"
	"io"
	"log"
	"net"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"time"

	"diablo/internal/bench"
	"diablo/internal/collect"
	"diablo/internal/obs"
	"diablo/internal/remote"
	"diablo/internal/report"
	"diablo/internal/snapshot"
	"diablo/internal/spec"
)

func main() {
	log.SetFlags(0)
	os.Exit(run(os.Args[1:], os.Stderr))
}

// run dispatches one subcommand and returns the process exit status: 0 on
// success, 1 when the command fails, 2 on a usage error.
func run(args []string, stderr io.Writer) int {
	if len(args) == 0 {
		usage(stderr)
		return 2
	}
	var err error
	switch args[0] {
	case "primary":
		err = runPrimary(args[1:])
	case "secondary":
		err = runSecondary(args[1:])
	case "run":
		err = runLocal(args[1:])
	case "help", "-h", "--help":
		usage(stderr)
	default:
		usage(stderr)
		return 2
	}
	if err != nil {
		fmt.Fprintf(stderr, "diablo: %v\n", err)
		return 1
	}
	return 0
}

func usage(w io.Writer) {
	fmt.Fprintln(w, `usage:
  diablo primary   [flags] <secondaries> <setup.yaml> <workload.yaml>
  diablo secondary [flags]
  diablo run       [flags] <setup.yaml> <workload.yaml>

primary flags:
  --port=5000         port the secondaries connect to
  --output=FILE       write the aggregated results JSON
  --compress          gzip the output
  --stat              print summary statistics to standard output
  -v / -vv / -vvv     verbosity

secondary flags:
  --primary=HOST:PORT address of the primary
  --port=5000         primary port (used when --primary has no port)
  --tag=LOCATION      the secondary's location tag

run flags:
  --output=FILE --compress --tail=120s          (as above)
  --stat[=N]          print statistics; with N, also a progress line every
                      N sim-seconds (mempool depth, block rate, commit lag)
  --trace=FILE        write a JSONL transaction lifecycle trace (.gz = gzip)
  --spans=FILE        write the causal span stream (.gz = gzip): every event,
                      delivery, consensus phase and conflict as one causal
                      tree per transaction; feed to "diablo-report spans"
  --spans-wall=FILE   write the wall-clock folded-stack self-profile (which
                      span labels burn real CPU; not deterministic)
  --metrics           sample the metrics registry every sim-second and embed
                      the timelines in the output JSON
  --repeat=N --workers=M    run N seeds (seed..seed+N-1), M cells at a time
  --checkpoint-every=N      write a state checkpoint every N sim-seconds;
                            with --repeat, each seed gets DIR/seed-<N>/
  --checkpoint-dir=DIR      where checkpoints go (default: checkpoints)
  --checkpoint-keep=N       retain only the newest N checkpoints (0 = all)
  --checkpoint-from=T       only write checkpoints inside [from, until]; used
  --checkpoint-until=T      to re-run a diablo-report bisect window with a
                            finer --checkpoint-every (observer-only, cannot
                            change the run's trajectory)
  --resume=FILE|DIR         fast-forward deterministically and verify every
                            subsystem against the checkpoint at its virtual
                            time, then continue to completion; a directory
                            resolves each seed's latest checkpoint
  --invariants              arm the agreement/validity/integrity/inclusion
                            monitors; any violation is printed and the run
                            exits non-zero
  --exec-workers=N          parallel intra-block execution workers; results
                            are byte-identical at any count (-1 = take the
                            spec's parallel-execution setting, 0/1 = serial)`)
}

// verbosity consumes -v/-vv/-vvv flags, returning the level and the rest.
func verbosity(args []string) (int, []string) {
	level := 0
	var rest []string
	for _, a := range args {
		switch a {
		case "-v":
			level = 1
		case "-vv":
			level = 2
		case "-vvv":
			level = 3
		default:
			rest = append(rest, a)
		}
	}
	return level, rest
}

func logger(level int) func(string, ...any) {
	if level == 0 {
		return func(string, ...any) {}
	}
	return func(format string, args ...any) { log.Printf(format, args...) }
}

func runPrimary(args []string) error {
	level, args := verbosity(args)
	fs := flag.NewFlagSet("primary", flag.ExitOnError)
	port := fs.Int("port", 5000, "listen port")
	output := fs.String("output", "", "results JSON path")
	compress := fs.Bool("compress", false, "gzip the output")
	stat := fs.Bool("stat", false, "print statistics to standard output")
	if err := fs.Parse(args); err != nil {
		return err
	}
	rest := fs.Args()
	if len(rest) != 3 {
		return fmt.Errorf("primary needs <secondaries> <setup.yaml> <workload.yaml>")
	}
	secondaries, err := strconv.Atoi(rest[0])
	if err != nil || secondaries <= 0 {
		return fmt.Errorf("bad secondary count %q", rest[0])
	}
	sp, err := loadSpecs(rest[1], rest[2])
	if err != nil {
		return err
	}
	exp, err := bench.FromSpec(sp.setup, sp.benchmark)
	if err != nil {
		return err
	}
	out, secStats, err := remote.RunPrimary(remote.PrimaryConfig{
		Listen:        fmt.Sprintf(":%d", *port),
		Secondaries:   secondaries,
		Experiment:    exp,
		SetupYAML:     sp.setupSrc,
		BenchmarkYAML: sp.benchSrc,
		Log:           logger(level),
	})
	if err != nil {
		return err
	}
	if err := present(out, *stat, "", *output, *compress, logger(level)); err != nil {
		return err
	}
	if *stat {
		for i, st := range secStats {
			fmt.Printf("secondary %d (%s): sent %d, committed %d, avg latency %.1f s\n",
				i, st.Location, st.Sent, st.Committed, st.AvgLatS)
		}
	}
	if n := len(out.Violations); n > 0 {
		return fmt.Errorf("%d invariant violation(s) detected", n)
	}
	return nil
}

func runSecondary(args []string) error {
	level, args := verbosity(args)
	fs := flag.NewFlagSet("secondary", flag.ExitOnError)
	primary := fs.String("primary", "127.0.0.1", "primary address")
	port := fs.Int("port", 5000, "primary port")
	tag := fs.String("tag", "", "location tag")
	if err := fs.Parse(args); err != nil {
		return err
	}
	addr := *primary
	if _, _, err := net.SplitHostPort(addr); err != nil {
		addr = net.JoinHostPort(addr, strconv.Itoa(*port))
	}
	st, err := remote.RunSecondary(remote.SecondaryConfig{
		Primary:  addr,
		Location: *tag,
		Log:      logger(level),
	})
	if err != nil {
		return err
	}
	fmt.Printf("secondary done: sent %d, committed %d, avg latency %.1f s\n",
		st.Sent, st.Committed, st.AvgLatS)
	return nil
}

func runLocal(args []string) error {
	level, args := verbosity(args)
	fs := flag.NewFlagSet("run", flag.ExitOnError)
	output := fs.String("output", "", "results JSON path")
	compress := fs.Bool("compress", false, "gzip the output")
	stat := &statFlag{enabled: true}
	fs.Var(stat, "stat", "print statistics; --stat N also prints a progress line every N sim-seconds")
	tail := fs.Duration("tail", bench.DefaultTail, "observation tail after the last submission")
	repeat := fs.Int("repeat", 1, "run this many seeds (seed..seed+N-1)")
	workers := fs.Int("workers", 0, "concurrent cells (0 = GOMAXPROCS, 1 = serial)")
	tracePath := fs.String("trace", "", "write a JSONL transaction lifecycle trace (a .gz path is gzip-compressed)")
	spansPath := fs.String("spans", "", "write the causal span stream (a .gz path is gzip-compressed)")
	spansWallPath := fs.String("spans-wall", "", "write the wall-clock folded-stack self-profile (non-deterministic)")
	metrics := fs.Bool("metrics", false, "sample the metrics registry every sim-second and embed the timelines in the output")
	ckEvery := fs.String("checkpoint-every", "", "write a state checkpoint every N sim-seconds (plain number or duration)")
	ckDir := fs.String("checkpoint-dir", "checkpoints", "directory for checkpoint files")
	ckKeep := fs.Int("checkpoint-keep", 0, "retain only the newest N checkpoints, pruning older .snap files after each capture (0 = keep all)")
	ckFrom := fs.String("checkpoint-from", "", "only write checkpoints at or after this virtual time (bisect refinement; plain number or duration)")
	ckUntil := fs.String("checkpoint-until", "", "only write checkpoints at or before this virtual time (bisect refinement; plain number or duration)")
	resume := fs.String("resume", "", "resume from a checkpoint file or directory: fast-forward deterministically and verify every subsystem at its virtual time")
	invariants := fs.Bool("invariants", false, "arm the safety/liveness invariant monitors and exit non-zero on any violation")
	execWorkers := fs.Int("exec-workers", -1, "parallel intra-block execution workers (results are byte-identical at any count; -1 = take the spec's parallel-execution setting, 0/1 = serial)")
	if err := fs.Parse(mergeStatValue(args)); err != nil {
		return err
	}
	rest := fs.Args()
	if len(rest) != 2 {
		return fmt.Errorf("run needs <setup.yaml> <workload.yaml>")
	}
	sp, err := loadSpecs(rest[0], rest[1])
	if err != nil {
		return err
	}
	base, err := bench.FromSpec(sp.setup, sp.benchmark)
	if err != nil {
		return err
	}
	ckInterval, err := parseSimSeconds(*ckEvery)
	if err != nil {
		return fmt.Errorf("--checkpoint-every: %w", err)
	}
	ckWindowFrom, err := parseSimSeconds(*ckFrom)
	if err != nil {
		return fmt.Errorf("--checkpoint-from: %w", err)
	}
	ckWindowUntil, err := parseSimSeconds(*ckUntil)
	if err != nil {
		return fmt.Errorf("--checkpoint-until: %w", err)
	}
	if ckWindowUntil > 0 && ckWindowFrom > ckWindowUntil {
		return fmt.Errorf("--checkpoint-from %s is after --checkpoint-until %s", ckWindowFrom, ckWindowUntil)
	}
	if *repeat < 1 {
		*repeat = 1
	}
	// A sweep checkpoints into per-seed subdirectories (<dir>/seed-<N>/),
	// so concurrent cells never interleave .snap files; resuming a sweep
	// takes the checkpoint directory and resolves each seed's latest
	// checkpoint (a seed without one starts fresh). Only a single
	// checkpoint *file* is tied to one seed and refuses --repeat.
	resumeIsDir := false
	if *resume != "" {
		if fi, err := os.Stat(*resume); err == nil && fi.IsDir() {
			resumeIsDir = true
		}
	}
	if *resume != "" && !resumeIsDir && *repeat > 1 {
		return fmt.Errorf("--resume with a single checkpoint file does not combine with --repeat; pass the checkpoint directory instead")
	}
	logger(level)("running %s on %s (%d workload traces, %d streams, %d seeds)",
		base.Chain, base.Config.Name, len(base.Traces), len(base.Streams), *repeat)
	if base.Faults != nil {
		logger(level)("chaos schedule: %d faults", len(base.Faults.Events))
	}
	if base.Byzantine != nil {
		logger(level)("byzantine schedule: %d behavior windows", len(base.Byzantine.Events))
	}
	base.Tail = *tail
	base.Invariants = base.Invariants || *invariants
	base.Metrics = *metrics
	base.SpecHash = sp.hash()
	if *execWorkers >= 0 {
		base.ExecWorkers = *execWorkers
	}
	if base.ExecWorkers > 1 {
		logger(level)("parallel execution: %d workers", base.ExecWorkers)
	}
	exps := make([]bench.Experiment, *repeat)
	var sinks []io.Closer
	closeSinks := func() error {
		var first error
		for _, s := range sinks {
			if err := s.Close(); err != nil && first == nil {
				first = err
			}
		}
		sinks = nil
		return first
	}
	defer closeSinks()
	for i := range exps {
		exps[i] = base
		exps[i].Seed = base.Seed + int64(i)
		// A resumed run re-records checkpoints at the recorded cadence so
		// the original and resumed runs can be bisected against each other.
		if ckInterval > 0 || *resume != "" {
			exps[i].CheckpointEvery = ckInterval
			exps[i].CheckpointDir = seedDir(*ckDir, *repeat, exps[i].Seed)
			exps[i].CheckpointKeep = *ckKeep
			exps[i].CheckpointFrom = ckWindowFrom
			exps[i].CheckpointUntil = ckWindowUntil
		}
		switch {
		case *resume == "":
		case resumeIsDir:
			cp, err := latestSnap(seedDir(*resume, *repeat, exps[i].Seed))
			if err != nil {
				return err
			}
			if cp == "" {
				logger(level)("seed %d: no checkpoint under %s, starting fresh", exps[i].Seed, *resume)
			}
			exps[i].Resume = cp
		default:
			exps[i].Resume = *resume
		}
		if *tracePath != "" {
			path := *tracePath
			if *repeat > 1 {
				path = seedSuffixed(path, exps[i].Seed)
			}
			w, err := obs.OpenSink(path)
			if err != nil {
				return err
			}
			sinks = append(sinks, w)
			exps[i].Trace = w
			logger(level)("tracing to %s", path)
		}
		if *spansPath != "" {
			path := *spansPath
			if *repeat > 1 {
				path = seedSuffixed(path, exps[i].Seed)
			}
			w, err := obs.OpenSink(path)
			if err != nil {
				return err
			}
			sinks = append(sinks, w)
			exps[i].Spans = w
			logger(level)("spans to %s", path)
		}
		if *spansWallPath != "" {
			path := *spansWallPath
			if *repeat > 1 {
				path = seedSuffixed(path, exps[i].Seed)
			}
			w, err := obs.OpenSink(path)
			if err != nil {
				return err
			}
			sinks = append(sinks, w)
			exps[i].SpansWall = w
			logger(level)("wall profile to %s", path)
		}
	}
	// The periodic progress line only makes sense for a single serial run.
	if stat.every > 0 && *repeat == 1 {
		exps[0].ProgressEvery = stat.every
		// Wall-clock pacing rides along: events/s of real time and how much
		// faster than real time the simulation advances. Both live only in
		// this progress line — the deterministic outputs never see them.
		var lastEvents uint64
		var lastVT time.Duration
		lastWall := time.Now()
		exps[0].Progress = func(p bench.Progress) {
			lag := int64(p.Submitted) - int64(p.Decided) - int64(p.TimedOut)
			wall := time.Now()
			dw := wall.Sub(lastWall).Seconds()
			evRate, speedup := 0.0, 0.0
			if dw > 0 {
				evRate = float64(p.Events-lastEvents) / dw
				speedup = (p.At - lastVT).Seconds() / dw
			}
			fmt.Printf("[t=%4.0fs] submitted %d, committed %d (lag %d), mempool %d, blocks %d (%.1f/s), %.0f events/s wall, %.0fx real time\n",
				p.At.Seconds(), p.Submitted, p.Decided, lag, p.Mempool, p.Blocks, p.BlockRate, evRate, speedup)
			lastEvents, lastVT, lastWall = p.Events, p.At, wall
		}
	}
	// Independent seeds sweep concurrently; outcomes come back in seed
	// order and are identical to a serial sweep.
	outs, err := bench.RunMany(*workers, exps)
	if cerr := closeSinks(); err == nil {
		err = cerr
	}
	if err != nil {
		return err
	}
	violated := 0
	for _, out := range outs {
		if len(out.Checkpoints) > 0 {
			logger(level)("%d checkpoints written to %s", len(out.Checkpoints), out.Experiment.CheckpointDir)
		}
		if out.Verified >= 0 {
			fmt.Printf("resume checkpoint verified at t=%.0fs: all subsystems match the recorded state\n",
				out.Verified.Seconds())
		}
		label, path := "", *output
		if *repeat > 1 {
			label = fmt.Sprintf("seed %d: ", out.Experiment.Seed)
			if path != "" {
				path = seedSuffixed(path, out.Experiment.Seed)
			}
		}
		if err := present(out, stat.enabled, label, path, *compress, logger(level)); err != nil {
			return err
		}
		violated += len(out.Violations)
	}
	if violated > 0 {
		return fmt.Errorf("%d invariant violation(s) detected", violated)
	}
	return nil
}

// present prints an outcome's statistics (when stat is set, after label)
// and its invariant violations, and writes its report to path unless that
// is empty.
func present(out *bench.Outcome, stat bool, label, path string, compress bool, logf func(string, ...any)) error {
	rep := collect.FromOutcome(out, true)
	if stat {
		fmt.Println(label + collect.StatLine(rep))
		report.RenderRecovery(os.Stdout, rep.Recovery)
		report.RenderAdversary(os.Stdout, rep.Adversary)
		report.RenderInvariants(os.Stdout, rep.Invariants)
	}
	if out.Experiment.Invariants {
		if len(out.Violations) == 0 {
			logf("invariants ok: %s", strings.Join(out.InvariantsChecked, ", "))
		}
		for _, v := range out.Violations {
			fmt.Fprintln(os.Stderr, v.String())
		}
	}
	if path == "" {
		return nil
	}
	if err := writeReport(path, rep, compress); err != nil {
		return err
	}
	logf("results written to %s", path)
	return nil
}

// seedDir places a sweep cell's checkpoints under <dir>/seed-<N>/ so
// concurrent cells never share a directory; a single run keeps dir as-is.
func seedDir(dir string, repeat int, seed int64) string {
	if repeat <= 1 {
		return dir
	}
	return filepath.Join(dir, fmt.Sprintf("seed-%d", seed))
}

// latestSnap returns the newest checkpoint file (by virtual time — the
// file names sort lexically) in dir, or "" when the directory does not
// exist or holds no checkpoints, which resumes as a fresh run.
func latestSnap(dir string) (string, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		if os.IsNotExist(err) {
			return "", nil
		}
		return "", err
	}
	latest := ""
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".snap") {
			continue
		}
		if e.Name() > latest {
			latest = e.Name()
		}
	}
	if latest == "" {
		return "", nil
	}
	return filepath.Join(dir, latest), nil
}

// statFlag is the run command's --stat: a boolean ("--stat",
// "--stat=false") that also accepts a period in seconds ("--stat=10" or
// "--stat 10") enabling the periodic progress line.
type statFlag struct {
	enabled bool
	every   time.Duration
}

func (f *statFlag) IsBoolFlag() bool { return true }

func (f *statFlag) String() string {
	if f.every > 0 {
		return strconv.Itoa(int(f.every / time.Second))
	}
	return strconv.FormatBool(f.enabled)
}

func (f *statFlag) Set(v string) error {
	switch v {
	case "", "true":
		f.enabled = true
		return nil
	case "false":
		f.enabled = false
		f.every = 0
		return nil
	}
	n, err := strconv.Atoi(v)
	if err != nil || n <= 0 {
		return fmt.Errorf("--stat wants true, false or a period in seconds, got %q", v)
	}
	f.enabled = true
	f.every = time.Duration(n) * time.Second
	return nil
}

// parseSimSeconds parses a checkpoint cadence: a plain number is taken as
// sim-seconds ("25"), anything else as a Go duration ("25s", "1m30s").
// Empty means disabled.
func parseSimSeconds(v string) (time.Duration, error) {
	if v == "" {
		return 0, nil
	}
	if n, err := strconv.Atoi(v); err == nil {
		if n <= 0 {
			return 0, fmt.Errorf("want a positive number of sim-seconds, got %d", n)
		}
		return time.Duration(n) * time.Second, nil
	}
	d, err := time.ParseDuration(v)
	if err != nil || d <= 0 {
		return 0, fmt.Errorf("want sim-seconds or a positive duration, got %q", v)
	}
	return d, nil
}

// mergeStatValue rewrites the paper's "--stat 10" spelling into "--stat=10"
// so the flag package's boolean-flag parsing accepts it.
func mergeStatValue(args []string) []string {
	out := make([]string, 0, len(args))
	for i := 0; i < len(args); i++ {
		a := args[i]
		if (a == "--stat" || a == "-stat") && i+1 < len(args) {
			if _, err := strconv.Atoi(args[i+1]); err == nil {
				out = append(out, a+"="+args[i+1])
				i++
				continue
			}
		}
		out = append(out, a)
	}
	return out
}

// seedSuffixed inserts "-seed<N>" before the path's extension, treating a
// trailing ".gz" as part of a compound extension (results.json.gz →
// results-seed3.json.gz), which also keeps the suffix OpenSink gzips on.
func seedSuffixed(path string, seed int64) string {
	gz := ""
	if strings.HasSuffix(path, ".gz") {
		path, gz = path[:len(path)-3], ".gz"
	}
	ext := ""
	base := path
	if i := lastDot(path); i > 0 {
		base, ext = path[:i], path[i:]
	}
	return fmt.Sprintf("%s-seed%d%s%s", base, seed, ext, gz)
}

func lastDot(s string) int {
	for i := len(s) - 1; i >= 0; i-- {
		switch s[i] {
		case '.':
			return i
		case '/':
			return -1
		}
	}
	return -1
}

// specs is a parsed setup and workload pair with the text of each.
type specs struct {
	setup     *spec.Setup
	benchmark *spec.Benchmark
	setupSrc  string
	benchSrc  string
}

func loadSpecs(setupPath, workloadPath string) (*specs, error) {
	setupSrc, err := os.ReadFile(setupPath)
	if err != nil {
		return nil, err
	}
	setup, err := spec.ParseSetup(string(setupSrc))
	if err != nil {
		return nil, err
	}
	benchSrc, err := os.ReadFile(workloadPath)
	if err != nil {
		return nil, err
	}
	benchmark, err := spec.ParseBenchmark(string(benchSrc))
	if err != nil {
		return nil, err
	}
	return &specs{setup, benchmark, string(setupSrc), string(benchSrc)}, nil
}

// hash is the FNV-1a digest of the raw spec bytes, which ties checkpoint
// files to the exact setup+workload pair.
func (s *specs) hash() uint64 {
	h := snapshot.NewHash()
	h.Bytes([]byte(s.setupSrc))
	h.Bytes([]byte(s.benchSrc))
	return h.Sum()
}

func writeReport(path string, rep *collect.Report, compress bool) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	return collect.WriteJSON(f, rep, compress)
}
