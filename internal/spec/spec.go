// Package spec interprets DIABLO's benchmark and blockchain configuration
// files (§4 and §5.3): the workload specification language — with its let
// anchors, !location/!endpoint/!account/!contract samplers, !invoke and
// !transfer interactions and stepwise load sections — and the setup file
// naming the blockchain and deployment configuration. The interpretation
// produces the mapping function M (Secondaries to endpoints), the resource
// set φ^R and the timed interactions the engine executes.
package spec

import (
	"fmt"
	"regexp"
	"strconv"
	"strings"
	"time"

	"diablo/internal/adversary"
	"diablo/internal/chains/chain"
	"diablo/internal/chaos"
	"diablo/internal/configs"
	"diablo/internal/dapps"
	"diablo/internal/stream"
	"diablo/internal/workloads"
	"diablo/internal/yamlite"
)

// Benchmark is a parsed workload specification.
type Benchmark struct {
	Workloads []Workload
	// Streams holds the `stream:` section's constant-memory generated
	// workloads (see internal/stream). A spec may carry workloads,
	// streams, or both.
	Streams []stream.Config
}

// Workload is one "workloads:" entry: Number concurrent clients sharing a
// location, an endpoint view and a behavior list.
type Workload struct {
	// Number is the count of client worker threads.
	Number int
	// Locations tags where the Secondaries running these clients live
	// (AWS zone names or the simulator's region names).
	Locations []string
	// ViewPattern is the regular expression selecting the endpoints the
	// clients may submit to.
	ViewPattern string
	Behaviors   []Behavior
}

// Behavior is one interaction description plus its load schedule.
type Behavior struct {
	// Invoke distinguishes invoke_D_Xs from transfer_X.
	Invoke bool
	// DApp is the contract's registry name (invokes).
	DApp string
	// Function and Args come from the "function: update(1, 1)" form.
	Function string
	Args     []uint64
	// Amount is the transferred value (transfers).
	Amount uint64
	// Accounts is the size of the signing account set.
	Accounts int
	// Load is the stepwise schedule: at each point the per-client rate
	// changes; the last point (conventionally rate 0) ends the workload.
	Load []LoadPoint
}

// LoadPoint is one "second: rate" step.
type LoadPoint struct {
	AtSec int
	TPS   float64
}

// ParseBenchmark parses a workload specification document.
func ParseBenchmark(src string) (*Benchmark, error) {
	root, err := yamlite.Parse(src)
	if err != nil {
		return nil, err
	}
	out := &Benchmark{}
	wls, haveWorkloads := root.Get("workloads")
	if haveWorkloads {
		if wls.Kind != yamlite.Seq {
			return nil, fmt.Errorf("spec: workloads section must be a sequence")
		}
		for i, w := range wls.Items {
			wl, err := parseWorkload(w)
			if err != nil {
				return nil, fmt.Errorf("spec: workload %d: %w", i, err)
			}
			out.Workloads = append(out.Workloads, wl)
		}
	}
	if st, ok := root.Get("stream"); ok {
		cfgs, err := stream.ParseSection(st)
		if err != nil {
			return nil, fmt.Errorf("spec: %w", err)
		}
		out.Streams = cfgs
	}
	if len(out.Workloads) == 0 && len(out.Streams) == 0 {
		return nil, fmt.Errorf("spec: missing workloads or stream section")
	}
	return out, nil
}

func parseWorkload(n *yamlite.Node) (Workload, error) {
	var wl Workload
	wl.Number = 1
	if num, ok := n.Get("number"); ok {
		v, err := strconv.Atoi(num.Value)
		if err != nil || v <= 0 {
			return wl, fmt.Errorf("bad number %q", num.Value)
		}
		wl.Number = v
	}
	client, ok := n.Get("client")
	if !ok {
		return wl, fmt.Errorf("missing client section")
	}
	if loc, ok := client.Get("location"); ok {
		sampler, err := samplerOf(loc, "location")
		if err != nil {
			return wl, err
		}
		for _, it := range sampler.Items {
			wl.Locations = append(wl.Locations, it.Value)
		}
	}
	wl.ViewPattern = ".*"
	if view, ok := client.Get("view"); ok {
		sampler, err := samplerOf(view, "endpoint")
		if err != nil {
			return wl, err
		}
		if len(sampler.Items) > 0 {
			wl.ViewPattern = sampler.Items[0].Value
		}
	}
	if _, err := regexp.Compile(wl.ViewPattern); err != nil {
		return wl, fmt.Errorf("bad endpoint pattern %q: %v", wl.ViewPattern, err)
	}
	behaviors, ok := client.Get("behavior")
	if !ok || behaviors.Kind != yamlite.Seq {
		return wl, fmt.Errorf("missing behavior section")
	}
	for i, b := range behaviors.Items {
		beh, err := parseBehavior(b)
		if err != nil {
			return wl, fmt.Errorf("behavior %d: %w", i, err)
		}
		wl.Behaviors = append(wl.Behaviors, beh)
	}
	return wl, nil
}

// samplerOf unwraps "{ sample: !tag ... }" and checks the tag.
func samplerOf(n *yamlite.Node, wantTag string) (*yamlite.Node, error) {
	s, ok := n.Get("sample")
	if !ok {
		return nil, fmt.Errorf("expected a { sample: !%s ... } variable", wantTag)
	}
	if s.Tag != wantTag {
		return nil, fmt.Errorf("expected sampler tag !%s, found !%s", wantTag, s.Tag)
	}
	return s, nil
}

func parseBehavior(n *yamlite.Node) (Behavior, error) {
	var b Behavior
	inter, ok := n.Get("interaction")
	if !ok {
		return b, fmt.Errorf("missing interaction")
	}
	switch inter.Tag {
	case "invoke":
		b.Invoke = true
		contract, ok := inter.Get("contract")
		if !ok {
			return b, fmt.Errorf("invoke needs a contract")
		}
		sampler, err := samplerOf(contract, "contract")
		if err != nil {
			return b, err
		}
		nameNode, ok := sampler.Get("name")
		if !ok {
			return b, fmt.Errorf("contract sampler needs a name")
		}
		b.DApp = nameNode.Value
		if _, err := dapps.Get(b.DApp); err != nil {
			return b, err
		}
		fn, ok := inter.Get("function")
		if !ok {
			return b, fmt.Errorf("invoke needs a function")
		}
		b.Function, b.Args, err = ParseCall(fn.Value)
		if err != nil {
			return b, err
		}
	case "transfer":
		b.Amount = 1
		if amt, ok := inter.Get("amount"); ok {
			v, err := strconv.ParseUint(amt.Value, 10, 64)
			if err != nil {
				return b, fmt.Errorf("bad amount %q", amt.Value)
			}
			b.Amount = v
		}
	default:
		return b, fmt.Errorf("unknown interaction tag !%s", inter.Tag)
	}

	b.Accounts = 2000
	if from, ok := inter.Get("from"); ok {
		sampler, err := samplerOf(from, "account")
		if err != nil {
			return b, err
		}
		if num, ok := sampler.Get("number"); ok {
			v, err := strconv.Atoi(num.Value)
			if err != nil || v <= 0 {
				return b, fmt.Errorf("bad account number %q", num.Value)
			}
			b.Accounts = v
		}
	}

	load, ok := n.Get("load")
	if !ok || load.Kind != yamlite.Map || len(load.Fields) < 2 {
		return b, fmt.Errorf("a load section with at least two points is required")
	}
	prev := -1
	for _, f := range load.Fields {
		at, err := strconv.Atoi(f.Key)
		if err != nil || at < 0 {
			return b, fmt.Errorf("bad load time %q", f.Key)
		}
		if at <= prev {
			return b, fmt.Errorf("load times must increase (%d after %d)", at, prev)
		}
		prev = at
		tps, err := strconv.ParseFloat(f.Value.Value, 64)
		if err != nil || tps < 0 {
			return b, fmt.Errorf("bad load rate %q", f.Value.Value)
		}
		b.Load = append(b.Load, LoadPoint{AtSec: at, TPS: tps})
	}
	return b, nil
}

// ParseCall parses "update(1, 1)" into a function name and uint64 args.
func ParseCall(s string) (string, []uint64, error) {
	open := strings.IndexByte(s, '(')
	if open < 0 {
		if name := strings.TrimSpace(s); name != "" {
			return name, nil, nil
		}
		return "", nil, fmt.Errorf("spec: empty function")
	}
	if !strings.HasSuffix(s, ")") {
		return "", nil, fmt.Errorf("spec: malformed call %q", s)
	}
	name := strings.TrimSpace(s[:open])
	if name == "" {
		return "", nil, fmt.Errorf("spec: malformed call %q", s)
	}
	inner := strings.TrimSpace(s[open+1 : len(s)-1])
	if inner == "" {
		return name, nil, nil
	}
	var args []uint64
	for _, part := range strings.Split(inner, ",") {
		v, err := strconv.ParseUint(strings.TrimSpace(part), 10, 64)
		if err != nil {
			return "", nil, fmt.Errorf("spec: bad argument %q in %q", part, s)
		}
		args = append(args, v)
	}
	return name, args, nil
}

// Traces converts the specification into executable traces: each
// (workload, behavior) pair becomes one trace whose rate is the per-client
// schedule multiplied by the workload's client count.
func (b *Benchmark) Traces() ([]*workloads.Trace, error) {
	var out []*workloads.Trace
	for wi, wl := range b.Workloads {
		for bi, beh := range wl.Behaviors {
			end := beh.Load[len(beh.Load)-1].AtSec
			rates := make([]float64, end)
			for i, pt := range beh.Load {
				until := end
				if i+1 < len(beh.Load) {
					until = beh.Load[i+1].AtSec
				}
				for s := pt.AtSec; s < until; s++ {
					rates[s] = pt.TPS * float64(wl.Number)
				}
			}
			name := fmt.Sprintf("spec-w%d-b%d", wi, bi)
			tr := &workloads.Trace{Name: name, Rates: rates}
			if beh.Invoke {
				tr.DApp = beh.DApp
				tr.Func = beh.Function
			}
			out = append(out, tr)
		}
	}
	return out, nil
}

// Setup is a parsed blockchain setup file.
type Setup struct {
	// Chain is the blockchain name.
	Chain string
	// Config is the Table 3 deployment configuration.
	Config *configs.Config
	// Seed makes the run reproducible.
	Seed int64
	// NodeScale optionally divides the configuration's node count.
	NodeScale int
	// Faults is the chaos schedule from the `faults:` section (nil = none).
	Faults *chaos.Schedule
	// Byzantine is the adversary schedule from the `byzantine:` section
	// (nil = none).
	Byzantine *adversary.Schedule
	// Invariants reports whether the spec armed the invariant monitors
	// (an `invariants:` section is present); InclusionHorizon is its
	// optional eventual-inclusion bound (zero = the run's tail).
	Invariants       bool
	InclusionHorizon time.Duration
	// Retry is the client resubmission policy from the `retry:` section
	// (zero = disabled).
	Retry chain.RetryPolicy
	// ExecWorkers is the parallel intra-block execution worker count from
	// the `parallel-execution:` section (0/1 = serial). Results are
	// byte-identical at any worker count; this is a performance knob.
	ExecWorkers int
}

// ParseSetup parses a setup document of the form:
//
//	blockchain: quorum
//	configuration: consortium
//	seed: 7
//	node-scale: 10
//	retry: {timeout: 10s, max-retries: 3, backoff: 2}
//	faults:
//	  - crash: {node: 3, at: 30s}
//	  - restart: {node: 3, at: 120s}
func ParseSetup(src string) (*Setup, error) {
	root, err := yamlite.Parse(src)
	if err != nil {
		return nil, err
	}
	out := &Setup{Seed: 1}
	chainNode, ok := root.Get("blockchain")
	if !ok || chainNode.Value == "" {
		return nil, fmt.Errorf("spec: setup needs a blockchain")
	}
	out.Chain = chainNode.Value
	cfgName := "consortium"
	if c, ok := root.Get("configuration"); ok {
		cfgName = c.Value
	}
	cfg, err := configs.ByName(cfgName)
	if err != nil {
		return nil, err
	}
	out.Config = cfg
	if s, ok := root.Get("seed"); ok {
		v, err := strconv.ParseInt(s.Value, 10, 64)
		if err != nil {
			return nil, fmt.Errorf("spec: bad seed %q", s.Value)
		}
		out.Seed = v
	}
	if s, ok := root.Get("node-scale"); ok {
		v, err := strconv.Atoi(s.Value)
		if err != nil || v < 1 {
			return nil, fmt.Errorf("spec: bad node-scale %q", s.Value)
		}
		out.NodeScale = v
	}
	if r, ok := root.Get("retry"); ok {
		policy, err := parseRetry(r)
		if err != nil {
			return nil, err
		}
		out.Retry = policy
	}
	if pe, ok := root.Get("parallel-execution"); ok {
		// Accept either a bare worker count or {workers: N}.
		val := pe.Value
		if pe.Kind == yamlite.Map {
			w, ok := pe.Get("workers")
			if !ok || w.Kind != yamlite.Scalar {
				return nil, fmt.Errorf("spec: parallel-execution needs workers")
			}
			val = w.Value
		}
		v, err := strconv.Atoi(val)
		if err != nil || v < 1 {
			return nil, fmt.Errorf("spec: bad parallel-execution workers %q", val)
		}
		out.ExecWorkers = v
	}
	nodes := cfg.Nodes
	if out.NodeScale > 1 {
		nodes = cfg.Scaled(out.NodeScale).Nodes
	}
	if f, ok := root.Get("faults"); ok {
		sch, err := chaos.ParseEvents(f)
		if err != nil {
			return nil, fmt.Errorf("spec: %w", err)
		}
		if err := sch.Validate(nodes); err != nil {
			return nil, fmt.Errorf("spec: %w", err)
		}
		out.Faults = sch
	}
	if b, ok := root.Get("byzantine"); ok {
		sch, err := adversary.ParseEvents(b)
		if err != nil {
			return nil, fmt.Errorf("spec: %w", err)
		}
		if err := sch.Validate(nodes); err != nil {
			return nil, fmt.Errorf("spec: %w", err)
		}
		out.Byzantine = sch
	}
	if inv, ok := root.Get("invariants"); ok {
		out.Invariants = true
		if inv != nil && inv.Kind == yamlite.Map {
			if h, ok := inv.Get("horizon"); ok && h != nil && h.Kind == yamlite.Scalar {
				d, err := time.ParseDuration(h.Value)
				if err != nil || d <= 0 {
					return nil, fmt.Errorf("spec: invariants: bad horizon %q", h.Value)
				}
				out.InclusionHorizon = d
			}
		}
	}
	return out, nil
}

// parseRetry interprets `retry: {timeout: 10s, max-retries: 3, backoff: 2}`.
func parseRetry(n *yamlite.Node) (chain.RetryPolicy, error) {
	var p chain.RetryPolicy
	if n.Kind != yamlite.Map {
		return p, fmt.Errorf("spec: retry section must be a mapping")
	}
	t, ok := n.Get("timeout")
	if !ok || t.Kind != yamlite.Scalar {
		return p, fmt.Errorf("spec: retry needs a timeout")
	}
	d, err := time.ParseDuration(t.Value)
	if err != nil || d <= 0 {
		return p, fmt.Errorf("spec: bad retry timeout %q", t.Value)
	}
	p.Timeout = d
	if m, ok := n.Get("max-retries"); ok {
		v, err := strconv.Atoi(m.Value)
		if err != nil || v < 0 {
			return p, fmt.Errorf("spec: bad max-retries %q", m.Value)
		}
		p.MaxRetries = v
	}
	if b, ok := n.Get("backoff"); ok {
		v, err := strconv.ParseFloat(b.Value, 64)
		if err != nil || v < 1 {
			return p, fmt.Errorf("spec: bad backoff %q", b.Value)
		}
		p.Backoff = v
	}
	return p, nil
}
