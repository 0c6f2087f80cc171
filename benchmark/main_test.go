package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
	"time"
)

var update = flag.Bool("update", false, "rewrite ../BENCHMARK.json from the program's tables")

// manifest is BENCHMARK.json as the program's tables define it.
type manifest struct {
	Command    []string           `json:"command"`
	Paths      []string           `json:"paths"`
	RunSeconds int                `json:"run_seconds"`
	Workloads  []manifestWorkload `json:"workloads"`
	EndToEnd   []metricDef        `json:"end_to_end"`
	PerLayer   []metricDef        `json:"per_layer"`
}

type manifestWorkload struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

func programManifest() manifest {
	m := manifest{
		Command:    []string{"sh", "benchmark/run.sh"},
		Paths:      []string{"benchmark"},
		RunSeconds: runSeconds,
		EndToEnd:   endToEnd,
		PerLayer:   perLayer,
	}
	for _, w := range workloadTable {
		m.Workloads = append(m.Workloads, manifestWorkload{w.name, w.why})
	}
	return m
}

// TestManifestMatchesProgram keeps BENCHMARK.json byte-equal to what the
// program's tables say, and the tables inside the limits a manifest has.
// `go test ./benchmark -run Manifest -update` rewrites the file.
func TestManifestMatchesProgram(t *testing.T) {
	m := programManifest()
	want, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	want = append(want, '\n')
	path := filepath.Join("..", "BENCHMARK.json")
	if *update {
		if err := os.WriteFile(path, want, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("BENCHMARK.json differs from the program's tables; run `go test ./benchmark -run Manifest -update`")
	}

	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	checkName := func(n string) {
		if !name.MatchString(n) {
			t.Errorf("name %q is outside [A-Za-z0-9_.-]{1,64}", n)
		}
		if seen[n] {
			t.Errorf("name %q is used twice", n)
		}
		seen[n] = true
	}
	if n := len(m.Workloads); n < 2 || n > 8 {
		t.Errorf("%d workloads, want 2 to 8", n)
	}
	for _, w := range m.Workloads {
		checkName(w.Name)
		if len(w.Why) > 200 || strings.ContainsAny(w.Why, "\r\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters, has %d", w.Name, len(w.Why))
		}
	}
	if n := len(m.PerLayer); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics, want 1 to 128", n)
	}
	hasSetup := false
	for _, d := range m.EndToEnd {
		checkName(d.Name)
		if d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("end-to-end metric %s: bound %g outside (0, 0.25]", d.Name, d.Bound)
		}
		hasSetup = hasSetup || (d.Name == "setup_s" && d.Unit == "s" && d.Better == "lower")
	}
	if !hasSetup {
		t.Error("no setup_s metric in seconds, lower is better")
	}
	for _, d := range append(append([]metricDef(nil), m.EndToEnd...), m.PerLayer...) {
		if !unit.MatchString(d.Unit) {
			t.Errorf("metric %s: unit %q is outside [A-Za-z0-9_/%%.-]{1,16}", d.Name, d.Unit)
		}
		if d.Better != "lower" && d.Better != "higher" {
			t.Errorf("metric %s: better is %q", d.Name, d.Better)
		}
	}
	for _, d := range m.PerLayer {
		checkName(d.Name)
		if d.Bound != 0 {
			t.Errorf("per-layer metric %s has a bound", d.Name)
		}
	}
}

// quickRun runs every workload in one process at the test scale and returns
// the result file it wrote and the contract lines it printed, in order.
func quickRun(t *testing.T, args ...string) (*runFile, []string) {
	t.Helper()
	out := t.TempDir()
	var stdout, stderr bytes.Buffer
	if code := run(append([]string{"--quick", "--out", out}, args...), &stdout, &stderr); code != 0 {
		t.Fatalf("benchmark %v: exit %d\n%s%s", args, code, stdout.String(), stderr.String())
	}
	if !strings.Contains(stdout.String(), "QUICK SCALE") {
		t.Error("a quick run must mark its numbers as not comparable")
	}
	var lines []string
	for _, l := range strings.Split(stdout.String(), "\n") {
		if strings.HasPrefix(l, "{") {
			lines = append(lines, l)
		}
	}
	file, err := readRunFile(filepath.Join(out, "result.json"))
	if err != nil {
		t.Fatal(err)
	}
	if len(lines) != len(workloadTable) || len(file.Workloads) != len(workloadTable) {
		t.Fatalf("%d result lines and %d results for %d workloads", len(lines), len(file.Workloads), len(workloadTable))
	}
	for i, w := range workloadTable {
		if file.Workloads[i].Name != w.name {
			t.Errorf("result %d is %s, want %s", i, file.Workloads[i].Name, w.name)
		}
	}
	if spans, err := os.ReadFile(filepath.Join(out, "spans.jsonl")); err != nil || !bytes.Contains(spans, []byte(`"name":"bench.Run quorum"`)) {
		t.Errorf("spans.jsonl missing or without a bench.Run span: %v", err)
	}
	return file, lines
}

// emittedOnce checks a contract line: exactly the four keys, a correct run,
// and every wanted metric in it exactly once with its unit. The metrics object is read token by token, because decoding into a
// map would hide a repeated key.
func emittedOnce(t *testing.T, line string, want []metricDef) {
	t.Helper()
	var top map[string]json.RawMessage
	if err := json.Unmarshal([]byte(line), &top); err != nil {
		t.Fatal(err)
	}
	if len(top) != 4 || string(top["correct"]) != "true" || string(top["failed"]) != "0" {
		t.Fatalf("result line is not a correct run with exactly four keys: %.200s", line)
	}
	var attempted int
	if err := json.Unmarshal(top["attempted"], &attempted); err != nil || attempted < 1 {
		t.Errorf("attempted = %s", top["attempted"])
	}
	dec := json.NewDecoder(bytes.NewReader(top["metrics"]))
	if _, err := dec.Token(); err != nil { // the opening brace
		t.Fatal(err)
	}
	count := map[string]int{}
	units := map[string]string{}
	for dec.More() {
		key, err := dec.Token()
		if err != nil {
			t.Fatal(err)
		}
		var v value
		if err := dec.Decode(&v); err != nil {
			t.Fatal(err)
		}
		count[key.(string)]++
		units[key.(string)] = v.Unit
	}
	for _, d := range want {
		if count[d.Name] != 1 {
			t.Errorf("metric %s emitted %d times, want once", d.Name, count[d.Name])
		}
		if units[d.Name] != d.Unit {
			t.Errorf("metric %s has unit %q, want %q", d.Name, units[d.Name], d.Unit)
		}
		delete(count, d.Name)
	}
	for extra := range count {
		t.Errorf("metric %s emitted but not named in BENCHMARK.json", extra)
	}
}

// TestQuickRuns drives the whole program at the test scale: every workload
// untraced and traced, every named metric emitted exactly once, equal seeds
// giving equal digests and counts, another seed another digest.
func TestQuickRuns(t *testing.T) {
	untraced, lines := quickRun(t)
	for _, l := range lines {
		emittedOnce(t, l, endToEnd)
	}
	traced, lines := quickRun(t, "--trace", "1")
	for _, l := range lines {
		emittedOnce(t, l, perLayer)
	}
	again, _ := quickRun(t, "--trace", "1")
	other, _ := quickRun(t, "--seed", "2")

	for i, w := range workloadTable {
		if untraced.Workloads[i].Digest != traced.Workloads[i].Digest {
			t.Errorf("%s: traced and untraced runs at one seed differ in digest", w.name)
		}
		if simChanged(traced.Workloads[i], again.Workloads[i]) {
			t.Errorf("%s: two traced runs at one seed differ in digest or exact counts", w.name)
		}
		if untraced.Workloads[i].Digest == other.Workloads[i].Digest {
			t.Errorf("%s: seeds 1 and 2 give one digest", w.name)
		}
		if untraced.Workloads[i].Submitted == 0 {
			t.Errorf("%s: nothing submitted", w.name)
		}
	}
	var report bytes.Buffer
	if code := compareRuns(traced, again, &report); code != 0 {
		t.Errorf("comparing two runs of one seed: exit %d\n%s", code, report.String())
	}
}

func TestUsageErrors(t *testing.T) {
	for _, args := range [][]string{
		{"--workload", "no-such"},
		{"--trace", "2"},
		{"--seconds", "0"},
		{"--compare", "only-one.json"},
		{"stray"},
	} {
		var stdout, stderr bytes.Buffer
		if code := run(args, &stdout, &stderr); code != 2 {
			t.Errorf("benchmark %v: exit %d, want 2", args, code)
		}
		if stdout.Len() != 0 {
			t.Errorf("benchmark %v printed a result: %s", args, stdout.String())
		}
	}
}

func TestFoldedSelf(t *testing.T) {
	self, err := foldedSelf(strings.NewReader(
		"consensus.step 100\nconsensus.step;exec.apply 40\nnet.deliver;exec.apply 2\n\nworkload.submit 7\n"))
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]time.Duration{"consensus.step": 100, "exec.apply": 42, "workload.submit": 7}
	if len(self) != len(want) {
		t.Errorf("got %v, want %v", self, want)
	}
	for label, d := range want {
		if self[label] != d {
			t.Errorf("%s: self time %d, want %d", label, self[label], d)
		}
	}
	for _, bad := range []string{"consensus.step", "consensus.step x12"} {
		if _, err := foldedSelf(strings.NewReader(bad)); err == nil {
			t.Errorf("folded line %q parsed", bad)
		}
	}
}

func TestSummarize(t *testing.T) {
	for _, c := range []struct {
		xs   []float64
		want sample
	}{
		{nil, sample{}},
		{[]float64{3}, sample{3, 3, 3, 1}},
		{[]float64{5, 1, 3}, sample{3, 1, 5, 3}},
		{[]float64{4, 1, 3, 2}, sample{2.5, 1, 4, 4}},
	} {
		if got := summarize(c.xs); got != c.want {
			t.Errorf("summarize(%v) = %+v, want %+v", c.xs, got, c.want)
		}
	}
	if xs := []float64{2, 1}; summarize(xs) == (sample{}) || xs[0] != 2 {
		t.Error("summarize must not reorder its input")
	}
}

func TestVerdicts(t *testing.T) {
	tight := func(m float64) sample { return sample{Median: m, Min: m * 0.99, Max: m * 1.01, N: 5} }
	for _, c := range []struct {
		name string
		a, b sample
		want string
	}{
		{"equal", tight(1), tight(1), verdictOK},
		{"better", tight(1), tight(0.5), verdictOK},
		{"inside the bound", tight(1), tight(1.05), verdictOK},
		{"beyond the bound, ranges apart", tight(1), tight(1.2), verdictWorse},
		{"beyond the bound, ranges overlap", sample{1, 0.9, 1.3, 5}, sample{1.2, 1.1, 1.25, 5}, verdictUnresolved},
		{"inside the bound, range too wide", sample{1, 0.8, 1.1, 5}, tight(1), verdictUnresolved},
	} {
		if _, got := verdict(c.a, c.b, 0.08); got != c.want {
			t.Errorf("%s: verdict %s, want %s", c.name, got, c.want)
		}
	}
}

func TestCompareFlagsChangedSimulation(t *testing.T) {
	res := func(digest string, events float64) *runFile {
		return &runFile{Workloads: []*workloadResult{{
			Name:     "fifa-quorum",
			Digest:   digest,
			EndToEnd: map[string]sample{"wall_s": {1, 1, 1, 3}},
			PerLayer: map[string]value{"sim.events": {events, "count"}},
		}}}
	}
	for _, c := range []struct {
		name string
		b    *runFile
		code int
		want string
	}{
		{"same", res("d", 10), 0, verdictOK},
		{"digest", res("e", 10), 1, verdictSimChanged},
		{"count", res("d", 11), 1, verdictSimChanged},
	} {
		var out bytes.Buffer
		if code := compareRuns(res("d", 10), c.b, &out); code != c.code || !strings.Contains(out.String(), c.want) {
			t.Errorf("%s: exit %d, want %d with %q in\n%s", c.name, code, c.code, c.want, out.String())
		}
	}
}
