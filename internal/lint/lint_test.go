package lint

import (
	"fmt"
	"regexp"
	"strings"
	"sync"
	"testing"
)

// The module is type-checked once and shared: loading is the expensive
// step (~2s), the analyzers are cheap.
var (
	testModOnce sync.Once
	testMod     *Module
	testModErr  error

	fixtureMu    sync.Mutex
	fixtureCache = map[string]*Package{}
)

func loadTestModule(t *testing.T) *Module {
	t.Helper()
	testModOnce.Do(func() {
		root, err := FindModuleRoot(".")
		if err != nil {
			testModErr = err
			return
		}
		testMod, testModErr = LoadModule(root)
	})
	if testModErr != nil {
		t.Fatalf("loading module: %v", testModErr)
	}
	return testMod
}

const fixtureBase = "/internal/lint/testdata/src/"

func fixturePkg(t *testing.T, m *Module, name string) *Package {
	t.Helper()
	fixtureMu.Lock()
	defer fixtureMu.Unlock()
	if pkg, ok := fixtureCache[name]; ok {
		return pkg
	}
	pkg, err := m.LoadExtra("testdata/src/"+name, m.Path+fixtureBase+name)
	if err != nil {
		t.Fatalf("loading fixture %s: %v", name, err)
	}
	fixtureCache[name] = pkg
	return pkg
}

// want is one expectation parsed from a fixture comment of the form
//
//	// want "regex" `regex` ...
//
// attached to the line it appears on. Each quoted pattern must match the
// "check: message" form of a finding reported on that line.
type want struct {
	file    string
	line    int
	pattern *regexp.Regexp
	matched bool
}

var wantChunk = regexp.MustCompile("\"([^\"]*)\"|`([^`]*)`")

func collectWants(t *testing.T, m *Module, pkgs []*Package) []*want {
	t.Helper()
	var wants []*want
	for _, pkg := range pkgs {
		for _, file := range pkg.Files {
			for _, cg := range file.Comments {
				for _, c := range cg.List {
					rest, ok := strings.CutPrefix(c.Text, "// want ")
					if !ok {
						continue
					}
					pos := m.Fset.Position(c.Pos())
					chunks := wantChunk.FindAllStringSubmatch(rest, -1)
					if len(chunks) == 0 {
						t.Fatalf("%s: want comment with no quoted pattern", pos)
					}
					for _, ch := range chunks {
						text := ch[1] + ch[2] // exactly one group is non-empty
						re, err := regexp.Compile(text)
						if err != nil {
							t.Fatalf("%s: bad want pattern %q: %v", pos, text, err)
						}
						wants = append(wants, &want{file: pos.Filename, line: pos.Line, pattern: re})
					}
				}
			}
		}
	}
	return wants
}

// checkFixture lints the named fixture packages (all classified
// deterministic unless detNames narrows the set) and verifies the findings
// against the fixtures' want comments: every finding needs a matching want
// on its line, every want needs a finding.
func checkFixture(t *testing.T, names []string, detNames []string) *Report {
	t.Helper()
	m := loadTestModule(t)
	var pkgs []*Package
	for _, name := range names {
		pkgs = append(pkgs, fixturePkg(t, m, name))
	}
	if detNames == nil {
		detNames = names
	}
	var det []string
	for _, name := range detNames {
		det = append(det, m.Path+fixtureBase+name)
	}
	rep := Run(m, pkgs, Config{Deterministic: det})

	wants := collectWants(t, m, pkgs)
	for _, f := range rep.Findings {
		got := fmt.Sprintf("%s: %s", f.Check, f.Message)
		ok := false
		for _, w := range wants {
			if w.file == f.Pos.Filename && w.line == f.Pos.Line && w.pattern.MatchString(got) {
				w.matched = true
				ok = true
			}
		}
		if !ok {
			t.Errorf("unexpected finding %s:%d: %s", f.Pos.Filename, f.Pos.Line, got)
		}
	}
	for _, w := range wants {
		if !w.matched {
			t.Errorf("%s:%d: want %q matched no finding", w.file, w.line, w.pattern)
		}
	}
	return rep
}

func TestWallclockFixture(t *testing.T) {
	// Only the wallclock package is deterministic; the helper's finding
	// comes from call-graph reachability.
	checkFixture(t, []string{"wallclockhelper", "wallclock"}, []string{"wallclock"})
}

func TestGlobalRandFixture(t *testing.T) {
	checkFixture(t, []string{"globalrand"}, nil)
}

func TestMapRangeFixture(t *testing.T) {
	checkFixture(t, []string{"maprange"}, nil)
}

func TestConcurrencyFixture(t *testing.T) {
	checkFixture(t, []string{"concurrency"}, nil)
}

// TestMapRangeFlagsSubmissionWindowBug pins the acceptance criterion
// directly: the reintroduced PR 4 bug shape — scheduling submission
// windows by ranging over a map — is flagged with check maprange at the
// exact file:line of the range statement.
func TestMapRangeFlagsSubmissionWindowBug(t *testing.T) {
	m := loadTestModule(t)
	pkg := fixturePkg(t, m, "maprange")
	rep := Run(m, []*Package{pkg}, Config{Deterministic: []string{m.Path + fixtureBase + "maprange"}})

	wantLine := 0
	for _, file := range pkg.Files {
		for _, cg := range file.Comments {
			for _, c := range cg.List {
				if strings.Contains(c.Text, "schedules events") {
					wantLine = m.Fset.Position(c.Pos()).Line
				}
			}
		}
	}
	if wantLine == 0 {
		t.Fatal("fixture lost its schedules-events marker comment")
	}
	for _, f := range rep.Findings {
		if f.Check == "maprange" && strings.HasSuffix(f.Pos.Filename, "testdata/src/maprange/maprange.go") &&
			f.Pos.Line == wantLine && strings.Contains(f.Message, "schedules events") {
			if f.Hint == "" {
				t.Error("maprange finding carries no fix hint")
			}
			return
		}
	}
	t.Fatalf("submission-window bug not flagged as maprange at maprange.go:%d; findings: %v", wantLine, rep.Findings)
}

func TestAllowSuppressesWithAuditTrail(t *testing.T) {
	m := loadTestModule(t)
	pkg := fixturePkg(t, m, "allowfix")
	rep := Run(m, []*Package{pkg}, Config{Deterministic: []string{m.Path + fixtureBase + "allowfix"}})
	if len(rep.Findings) != 0 {
		t.Fatalf("allow directive did not suppress: %v", rep.Findings)
	}
	if len(rep.Suppressed) != 1 || rep.Suppressed[0].Check != "globalrand" {
		t.Fatalf("suppressed = %v, want one globalrand finding", rep.Suppressed)
	}
	if len(rep.Allows) != 1 || !rep.Allows[0].Used || rep.Allows[0].Reason == "" {
		t.Fatalf("audit trail = %+v, want one used suppression with a reason", rep.Allows)
	}
}

func TestMalformedAllowIsAFinding(t *testing.T) {
	m := loadTestModule(t)
	pkg := fixturePkg(t, m, "badallow")
	rep := Run(m, []*Package{pkg}, Config{})
	if len(rep.Findings) != 2 {
		t.Fatalf("findings = %v, want 2 badallow", rep.Findings)
	}
	for _, f := range rep.Findings {
		if f.Check != "badallow" {
			t.Errorf("finding %s: check = %s, want badallow", f.Pos, f.Check)
		}
	}
	if !strings.Contains(rep.Findings[0].Message, "no known check") {
		t.Errorf("first finding should name the unknown check problem: %s", rep.Findings[0].Message)
	}
	if !strings.Contains(rep.Findings[1].Message, "gives no reason") {
		t.Errorf("second finding should demand a reason: %s", rep.Findings[1].Message)
	}
}

func TestChecksSubsetFilter(t *testing.T) {
	m := loadTestModule(t)
	pkg := fixturePkg(t, m, "globalrand")
	rep := Run(m, []*Package{pkg}, Config{
		Deterministic: []string{m.Path + fixtureBase + "globalrand"},
		Checks:        []string{"maprange"},
	})
	if len(rep.Findings) != 0 {
		t.Fatalf("globalrand findings reported with only maprange enabled: %v", rep.Findings)
	}
}
