package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"diablo/internal/bench"
	"diablo/internal/collect"
	"diablo/internal/configs"
	"diablo/internal/spec"
	"diablo/internal/workloads"
)

// fixtures runs one small quorum cell and writes its result JSON, lifecycle
// trace and span file into dir, returning their paths.
func fixtures(t *testing.T, dir string) (result, trace, spans string) {
	t.Helper()
	var tr, sp bytes.Buffer
	out, err := bench.Run(bench.Experiment{
		Chain:      "quorum",
		Config:     configs.Devnet,
		Traces:     []*workloads.Trace{workloads.NativeConstant(20, 5*time.Second)},
		Seed:       3,
		Tail:       30 * time.Second,
		ScaleNodes: 2,
		Trace:      &tr,
		Spans:      &sp,
	})
	if err != nil {
		t.Fatal(err)
	}
	var res bytes.Buffer
	if err := collect.WriteJSON(&res, collect.FromOutcome(out, true), false); err != nil {
		t.Fatal(err)
	}
	result, trace, spans = filepath.Join(dir, "result.json"), filepath.Join(dir, "trace.jsonl"), filepath.Join(dir, "spans.jsonl")
	for path, b := range map[string][]byte{result: res.Bytes(), trace: tr.Bytes(), spans: sp.Bytes()} {
		if err := os.WriteFile(path, b, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return result, trace, spans
}

// specTrace runs the setup file (under specs/) with its byzantine schedule
// and invariant monitors on 20 TPS of native transfers for 20 s, and
// writes the lifecycle trace into dir, returning its path.
func specTrace(t *testing.T, dir, setupFile string) string {
	t.Helper()
	src, err := os.ReadFile(filepath.Join("..", "..", "specs", setupFile))
	if err != nil {
		t.Fatal(err)
	}
	setup, err := spec.ParseSetup(string(src))
	if err != nil {
		t.Fatal(err)
	}
	var tr bytes.Buffer
	if _, err := bench.Run(bench.Experiment{
		Chain: setup.Chain, Config: setup.Config, ScaleNodes: setup.NodeScale, Seed: setup.Seed,
		Traces:    []*workloads.Trace{workloads.NativeConstant(20, 20*time.Second)},
		Tail:      30 * time.Second,
		Byzantine: setup.Byzantine, Invariants: setup.Invariants, InclusionHorizon: setup.InclusionHorizon,
		Trace: &tr,
	}); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, strings.TrimSuffix(setupFile, ".yaml")+".jsonl")
	if err := os.WriteFile(path, tr.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// withLine writes a copy of the file at path with one more line at its end
// and returns the copy's path and the added line's number.
func withLine(t *testing.T, path, line string) (string, int) {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	out := path + ".extra"
	if err := os.WriteFile(out, append(b, line+"\n"...), 0o644); err != nil {
		t.Fatal(err)
	}
	return out, bytes.Count(b, []byte("\n")) + 1
}

func TestRun(t *testing.T) {
	dir := t.TempDir()
	result, trace, spans := fixtures(t, dir)
	// A trace and a span file as the removed parallel executor wrote them
	// (diablo run --exec-workers=4): both kinds are unknown now, and the
	// reader refuses them naming the line.
	pexecTrace, pexecLine := withLine(t, trace, `{"t":1522316302,"kind":"pexec","block":2,"spec":1,"fallback":12,"edges":24}`)
	conflictSpans, conflictLine := withLine(t, spans, `{"kind":"conflict","key":"storage:9f2b58f3d97f3c7c23e8b24a5bbb16e18e875ea2:0","count":24}`)
	missing := filepath.Join(dir, "missing.json")
	byzantine := specTrace(t, dir, "setup-quorum-byzantine.yaml")
	unsafe := specTrace(t, dir, "setup-quorum-byzantine-unsafe.yaml")

	cases := []struct {
		name   string
		args   []string
		code   int
		stdout string // substring of stdout
		stderr string // substring of stderr
	}{
		{"csv", []string{result}, 0, "chain,workload,submit_s,latency_s,status\nquorum,", ""},
		{"summary", []string{"--summary", result}, 0, "100 transactions sent, 100 committed", ""},
		{"trace", []string{"trace", trace}, 0, "trace: quorum seed 3", ""},
		{"trace check", []string{"trace", "--check", trace}, 0, trace + ": ok — ", ""},
		{"trace json", []string{"trace", "--json", trace}, 0, `"components"`, ""},
		{"byzantine trace check", []string{"trace", "--check", byzantine}, 0, " faults, 10 byzantine, 0 violations", ""},
		{"byzantine trace", []string{"trace", byzantine}, 0, "\nbyzantine:\n", ""},
		{"violation trace", []string{"trace", unsafe}, 0, "\nviolations:\n", ""},
		{"spans", []string{"spans", spans}, 0, "spans: quorum seed 3", ""},
		{"spans json", []string{"spans", "--json", spans}, 0, `"tx_shares"`, ""},
		{"spans flame", []string{"spans", "--flame", spans}, 0, "consensus.step", ""},
		{"missing result", []string{missing}, 1, "", missing},
		{"pexec trace line", []string{"trace", pexecTrace}, 1, "",
			fmt.Sprintf(`trace line %d: unknown kind "pexec"`, pexecLine)},
		{"conflict span record", []string{"spans", conflictSpans}, 1, "",
			fmt.Sprintf(`line %d: unknown record kind "conflict"`, conflictLine)},
		{"no args", nil, 2, "", "usage:"},
		{"unknown flag", []string{"--frobnicate", result}, 2, "", "usage:"},
		{"trace without files", []string{"trace"}, 2, "", "usage: diablo-report trace"},
		{"trace unknown flag", []string{"trace", "--frobnicate", trace}, 2, "", "usage: diablo-report trace"},
		{"spans without files", []string{"spans"}, 2, "", "usage: diablo-report spans"},
		{"bisect with one directory", []string{"bisect", dir}, 2, "", "usage: diablo-report bisect"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			var stdout, stderr bytes.Buffer
			if code := run(c.args, &stdout, &stderr); code != c.code {
				t.Fatalf("exit %d, want %d; stderr:\n%s", code, c.code, stderr.String())
			}
			if !strings.Contains(stdout.String(), c.stdout) {
				t.Fatalf("stdout lacks %q:\n%s", c.stdout, stdout.String())
			}
			if !strings.Contains(stderr.String(), c.stderr) {
				t.Fatalf("stderr lacks %q:\n%s", c.stderr, stderr.String())
			}
		})
	}
}
