// Command diablo-report converts DIABLO result JSON files (optionally
// gzip-compressed) to CSV, like the artifact's csv-results script, and
// renders transaction lifecycle traces:
//
//	diablo-report results.json > results.csv
//	diablo-report --summary results.json.gz
//	diablo-report trace out.jsonl.gz          ("where time goes" report)
//	diablo-report trace --check out.jsonl.gz  (schema validation only)
//	diablo-report spans spans.jsonl.gz        (critical-path digest)
//	diablo-report spans --flame spans.jsonl.gz > out.folded
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"

	"diablo/internal/collect"
	"diablo/internal/obs"
	"diablo/internal/report"
	"diablo/internal/snapshot"
	"diablo/internal/span"
)

// writeJSON pretty-prints a value.
func writeJSON(w io.Writer, v any) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(v)
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// errUsage reports a command line whose usage text has been printed.
var errUsage = errors.New("usage")

// run dispatches one subcommand and returns the process exit status: 0 on
// success, 1 when the command fails, 2 on a usage error.
func run(args []string, stdout, stderr io.Writer) int {
	cmd := ""
	if len(args) > 0 {
		cmd = args[0]
	}
	var err error
	switch cmd {
	case "trace":
		err = runTrace(args[1:], stdout, stderr)
	case "spans":
		err = runSpans(args[1:], stdout, stderr)
	case "bisect":
		err = runBisect(args[1:], stdout, stderr)
	default:
		err = runResults(args, stdout, stderr)
	}
	switch {
	case err == nil, errors.Is(err, flag.ErrHelp):
		return 0
	case errors.Is(err, errUsage):
		return 2
	}
	fmt.Fprintf(stderr, "diablo-report: %v\n", err)
	return 1
}

// flagSet returns a subcommand's flag set, printing usage to stderr.
func flagSet(name, usage string, stderr io.Writer) *flag.FlagSet {
	fs := flag.NewFlagSet(name, flag.ContinueOnError)
	fs.SetOutput(stderr)
	fs.Usage = func() {
		fmt.Fprintln(stderr, usage)
		fs.PrintDefaults()
	}
	return fs
}

// parse parses a subcommand's flags and requires nargs(fs.NArg()); a bad
// flag or operand count is a usage error.
func parse(fs *flag.FlagSet, args []string, nargs func(int) bool) error {
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return err
		}
		return errUsage
	}
	if !nargs(fs.NArg()) {
		fs.Usage()
		return errUsage
	}
	return nil
}

func some(n int) bool { return n > 0 }

// runResults converts result JSON files to CSV, or prints each one's
// summary line with --summary.
func runResults(args []string, stdout, stderr io.Writer) error {
	fs := flagSet("diablo-report", `usage:
  diablo-report [--summary] <results.json>...
  diablo-report trace [--check] [--json] <trace.jsonl[.gz]>...
  diablo-report spans [--critical-path|--flame|--json] <spans.jsonl[.gz]>...
  diablo-report bisect [--json] <run-a-dir> <run-b-dir>`, stderr)
	summary := fs.Bool("summary", false, "print the summary line instead of CSV")
	if err := parse(fs, args, some); err != nil {
		return err
	}
	for _, path := range fs.Args() {
		f, err := os.Open(path)
		if err != nil {
			return err
		}
		rep, err := collect.ReadJSON(f)
		f.Close()
		if err != nil {
			return fmt.Errorf("%s: %w", path, err)
		}
		if *summary {
			fmt.Fprintln(stdout, collect.StatLine(rep))
			report.RenderAdversary(stdout, rep.Adversary)
			report.RenderInvariants(stdout, rep.Invariants)
			continue
		}
		if err := collect.WriteCSV(stdout, rep); err != nil {
			return err
		}
	}
	return nil
}

// runTrace parses lifecycle traces and renders the latency attribution
// report (or just validates the schema with --check).
func runTrace(args []string, stdout, stderr io.Writer) error {
	fs := flagSet("trace", "usage: diablo-report trace [--check] [--json] <trace.jsonl[.gz]>...", stderr)
	check := fs.Bool("check", false, "validate the trace schema and print a one-line summary only")
	asJSON := fs.Bool("json", false, "print the attribution as JSON instead of text")
	if err := parse(fs, args, some); err != nil {
		return err
	}
	for _, path := range fs.Args() {
		f, err := os.Open(path)
		if err != nil {
			return err
		}
		tr, err := obs.ReadTrace(f)
		f.Close()
		if err != nil {
			return fmt.Errorf("%s: %w", path, err)
		}
		if *check {
			fmt.Fprintf(stdout, "%s: ok — %d events, %d txs, %d blocks, %d samples, %d faults, %d byzantine, %d violations\n",
				path, tr.Events, tr.Submitted, len(tr.Blocks), len(tr.Samples), len(tr.Faults), len(tr.Byzantine), len(tr.Violations))
			continue
		}
		att := obs.Attribute(tr)
		if *asJSON {
			if err := writeJSON(stdout, att); err != nil {
				return err
			}
			continue
		}
		report.RenderTrace(stdout, tr, att)
	}
	return nil
}

// runSpans parses causal span files (`diablo run --spans=FILE`) and renders
// the critical-path digest, the per-transaction paths, the folded
// flamegraph stacks, or the analysis JSON.
func runSpans(args []string, stdout, stderr io.Writer) error {
	fs := flagSet("spans", "usage: diablo-report spans [--critical-path|--flame|--json] <spans.jsonl[.gz]>...", stderr)
	crit := fs.Bool("critical-path", false, "print every committed transaction's critical path")
	flame := fs.Bool("flame", false, "print folded flamegraph stacks in virtual time (flamegraph.pl / speedscope input)")
	asJSON := fs.Bool("json", false, "print the analysis as JSON instead of text")
	if err := parse(fs, args, some); err != nil {
		return err
	}
	for _, path := range fs.Args() {
		f, err := span.ReadFile(path)
		if err != nil {
			return fmt.Errorf("%s: %w", path, err)
		}
		switch {
		case *flame:
			if err := f.WriteFolded(stdout); err != nil {
				return err
			}
		case *crit:
			report.RenderTxPaths(stdout, f)
		case *asJSON:
			if err := writeJSON(stdout, span.Analyze(f)); err != nil {
				return err
			}
		default:
			report.RenderSpans(stdout, span.Analyze(f))
		}
	}
	return nil
}

// runBisect diffs two checkpoint directories and reports the first
// virtual-time window and subsystem where their state digests diverge.
// Exits 1 (via the returned error) when the runs differ so scripts can
// gate on the result.
func runBisect(args []string, stdout, stderr io.Writer) error {
	fs := flagSet("bisect", "usage: diablo-report bisect [--json] <run-a-dir> <run-b-dir>", stderr)
	asJSON := fs.Bool("json", false, "print the bisect report as JSON instead of text")
	if err := parse(fs, args, func(n int) bool { return n == 2 }); err != nil {
		return err
	}
	rep, err := snapshot.Bisect(fs.Arg(0), fs.Arg(1))
	if err != nil {
		return err
	}
	if *asJSON {
		if err := writeJSON(stdout, rep); err != nil {
			return err
		}
	} else {
		fmt.Fprint(stdout, rep.Format())
	}
	if !rep.Identical {
		return fmt.Errorf("runs diverge (first divergent subsystem: %s)", divergentNames(rep))
	}
	return nil
}

// divergentNames summarizes which sections diverged for the error line.
func divergentNames(rep *snapshot.BisectReport) string {
	names := ""
	for i, d := range rep.Divergent {
		if i > 0 {
			names += ", "
		}
		names += d.Name
	}
	if names == "" {
		names = "none recorded"
	}
	return names
}
