package spec

import (
	"strings"
	"testing"
	"time"
)

const gamingSpec = `
let:
  - &loc { sample: !location [ "us-east-2" ] }
  - &end { sample: !endpoint [ ".*" ] }
  - &acc { sample: !account { number: 2000 } }
  - &dapp { sample: !contract { name: "dota" } }
workloads:
  - number: 3
    client:
      location: *loc
      view: *end
      behavior:
        - interaction: !invoke
            from: *acc
            contract: *dapp
            function: "update(1, 1)"
          load:
            0: 4432
            50: 4438
            120: 0
`

func TestParsePaperGamingSpec(t *testing.T) {
	b, err := ParseBenchmark(gamingSpec)
	if err != nil {
		t.Fatal(err)
	}
	if len(b.Workloads) != 1 {
		t.Fatalf("workloads = %d", len(b.Workloads))
	}
	wl := b.Workloads[0]
	if wl.Number != 3 {
		t.Fatalf("number = %d", wl.Number)
	}
	if len(wl.Locations) != 1 || wl.Locations[0] != "us-east-2" {
		t.Fatalf("locations = %v", wl.Locations)
	}
	if wl.ViewPattern != ".*" {
		t.Fatalf("view = %q", wl.ViewPattern)
	}
	beh := wl.Behaviors[0]
	if !beh.Invoke || beh.DApp != "dota" || beh.Function != "update" {
		t.Fatalf("behavior = %+v", beh)
	}
	if len(beh.Args) != 2 || beh.Args[0] != 1 || beh.Args[1] != 1 {
		t.Fatalf("args = %v", beh.Args)
	}
	if beh.Accounts != 2000 {
		t.Fatalf("accounts = %d", beh.Accounts)
	}
	if len(beh.Load) != 3 || beh.Load[1].AtSec != 50 || beh.Load[1].TPS != 4438 {
		t.Fatalf("load = %+v", beh.Load)
	}

	traces, err := b.Traces()
	if err != nil {
		t.Fatal(err)
	}
	if len(traces) != 1 {
		t.Fatalf("traces = %d", len(traces))
	}
	tr := traces[0]
	if tr.Duration() != 120*time.Second {
		t.Fatalf("duration = %v", tr.Duration())
	}
	// Rate = per-client rate x 3 clients; the paper's example sums to
	// ~13,300 TPS.
	if tr.Rates[0] != 3*4432 {
		t.Fatalf("rate[0] = %v", tr.Rates[0])
	}
	if tr.Rates[49] != 3*4432 || tr.Rates[50] != 3*4438 || tr.Rates[119] != 3*4438 {
		t.Fatalf("step function wrong: %v %v %v", tr.Rates[49], tr.Rates[50], tr.Rates[119])
	}
	if tr.DApp != "dota" || tr.Func != "update" {
		t.Fatalf("trace target = %s/%s", tr.DApp, tr.Func)
	}
	if beh.Accounts != 2000 {
		t.Fatalf("accounts = %d", beh.Accounts)
	}
}

func TestParseTransferSpec(t *testing.T) {
	src := `
workloads:
  - client:
      behavior:
        - interaction: !transfer
            amount: 5
            from: { sample: !account { number: 130 } }
          load:
            0: 10
            60: 0
`
	b, err := ParseBenchmark(src)
	if err != nil {
		t.Fatal(err)
	}
	beh := b.Workloads[0].Behaviors[0]
	if beh.Invoke || beh.Amount != 5 || beh.Accounts != 130 {
		t.Fatalf("behavior = %+v", beh)
	}
	traces, _ := b.Traces()
	if traces[0].DApp != "" || traces[0].Total() != 600 {
		t.Fatalf("trace = %+v", traces[0])
	}
}

func TestParseCall(t *testing.T) {
	cases := []struct {
		in   string
		name string
		args []uint64
	}{
		{"add()", "add", nil},
		{"add", "add", nil},
		{"update(1, 1)", "update", []uint64{1, 1}},
		{"buy(42)", "buy", []uint64{42}},
	}
	for _, c := range cases {
		name, args, err := ParseCall(c.in)
		if err != nil {
			t.Fatalf("%q: %v", c.in, err)
		}
		if name != c.name || len(args) != len(c.args) {
			t.Fatalf("%q = %s %v", c.in, name, args)
		}
		for i := range args {
			if args[i] != c.args[i] {
				t.Fatalf("%q args = %v", c.in, args)
			}
		}
	}
	for _, bad := range []string{"", "()", "f(x)", "f(1,"} {
		if _, _, err := ParseCall(bad); err == nil {
			t.Errorf("ParseCall(%q) succeeded", bad)
		}
	}
}

func TestBenchmarkErrors(t *testing.T) {
	cases := []struct {
		name string
		src  string
		want string
	}{
		{"no workloads", "let:\n  - x\n", "workloads"},
		{"missing client", "workloads:\n  - number: 1\n", "client"},
		{"missing behavior", "workloads:\n  - client:\n      view: { sample: !endpoint [\".*\"] }\n", "behavior"},
		{"unknown dapp", `
workloads:
  - client:
      behavior:
        - interaction: !invoke
            contract: { sample: !contract { name: "ghost" } }
            function: "f()"
          load:
            0: 1
            10: 0
`, "unknown DApp"},
		{"bad interaction tag", `
workloads:
  - client:
      behavior:
        - interaction: !query
          load:
            0: 1
            10: 0
`, "unknown interaction"},
		{"decreasing load times", `
workloads:
  - client:
      behavior:
        - interaction: !transfer
          load:
            10: 1
            5: 0
`, "must increase"},
		{"single load point", `
workloads:
  - client:
      behavior:
        - interaction: !transfer
          load:
            0: 1
`, "two points"},
		{"bad pattern", `
workloads:
  - client:
      view: { sample: !endpoint ["["] }
      behavior:
        - interaction: !transfer
          load:
            0: 1
            10: 0
`, "pattern"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			_, err := ParseBenchmark(c.src)
			if err == nil {
				t.Fatalf("parse succeeded, want error containing %q", c.want)
			}
			if !strings.Contains(err.Error(), c.want) {
				t.Fatalf("error %q does not contain %q", err, c.want)
			}
		})
	}
}

func TestParseSetup(t *testing.T) {
	s, err := ParseSetup(`
blockchain: quorum
configuration: devnet
seed: 7
node-scale: 2
`)
	if err != nil {
		t.Fatal(err)
	}
	if s.Chain != "quorum" || s.Config.Name != "devnet" || s.Seed != 7 || s.NodeScale != 2 {
		t.Fatalf("setup = %+v", s)
	}
	// Defaults.
	s, err = ParseSetup("blockchain: solana")
	if err != nil {
		t.Fatal(err)
	}
	if s.Config.Name != "consortium" || s.Seed != 1 {
		t.Fatalf("defaults = %+v", s)
	}
	for _, bad := range []string{
		"configuration: devnet",                       // missing chain
		"blockchain: quorum\nconfiguration: moonbase", // bad config
		"blockchain: quorum\nseed: x",
	} {
		if _, err := ParseSetup(bad); err == nil {
			t.Errorf("ParseSetup(%q) succeeded", bad)
		}
	}
}

func TestParseSetupChaos(t *testing.T) {
	s, err := ParseSetup(`
blockchain: quorum
configuration: devnet
seed: 7
retry: {timeout: 10s, max-retries: 3, backoff: 2}
faults:
  - crash: {node: 3, at: 30s}
  - restart: {node: 3, at: 90s}
  - partition: {sides: "0-4 | 5-9", at: 120s, for: 20s}
  - loss: {link: ohio<->mumbai, rate: 5%, at: 150s}
  - delay: {link: all, extra: 100ms, jitter: 20ms, at: 150s, for: 30s}
`)
	if err != nil {
		t.Fatal(err)
	}
	if s.Retry.Timeout != 10*time.Second || s.Retry.MaxRetries != 3 || s.Retry.Backoff != 2 {
		t.Fatalf("retry = %+v", s.Retry)
	}
	if s.Faults == nil || len(s.Faults.Events) != 5 {
		t.Fatalf("faults = %+v", s.Faults)
	}
	ev := s.Faults.Events
	if ev[0].Node != 3 || ev[0].At != 30*time.Second {
		t.Fatalf("crash = %+v", ev[0])
	}
	if ev[2].For != 20*time.Second || len(ev[2].Sides) != 2 {
		t.Fatalf("partition = %+v", ev[2])
	}
	if ev[3].Rate != 0.05 {
		t.Fatalf("loss = %+v", ev[3])
	}
	if !ev[4].AllLinks || ev[4].Jitter != 20*time.Millisecond {
		t.Fatalf("delay = %+v", ev[4])
	}
}

func TestParseSetupChaosErrors(t *testing.T) {
	cases := []struct{ name, src, want string }{
		{"unknown kind", `
blockchain: quorum
configuration: devnet
faults:
  - meteor: {node: 1, at: 5s}
`, "unknown fault kind"},
		{"node out of range", `
blockchain: quorum
configuration: devnet
faults:
  - crash: {node: 99, at: 5s}
`, "node 99"},
		{"node out of scaled range", `
blockchain: quorum
configuration: devnet
node-scale: 2
faults:
  - crash: {node: 7, at: 5s}
`, "node 7"},
		{"retry without timeout", `
blockchain: quorum
configuration: devnet
retry: {max-retries: 3}
`, "timeout"},
		{"bad rate", `
blockchain: quorum
configuration: devnet
faults:
  - loss: {link: all, rate: fuzzy, at: 5s}
`, "bad ratio"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			_, err := ParseSetup(c.src)
			if err == nil {
				t.Fatalf("parse succeeded, want error containing %q", c.want)
			}
			if !strings.Contains(err.Error(), c.want) {
				t.Fatalf("error %q does not contain %q", err, c.want)
			}
		})
	}
}
