package main

import (
	_ "embed"
	"fmt"
	"time"

	"diablo/internal/bench"
	"diablo/internal/configs"
	"diablo/internal/spec"
	"diablo/internal/stream"
	"diablo/internal/workloads"
)

// chaosSpec is a copy of specs/setup-quorum-chaos.yaml taken when the
// benchmark was defined. It lives here so that the quorum-chaos cell is
// fixed by the benchmark's own files and does not move when the example
// spec is edited.
//
//go:embed quorum-chaos.yaml
var chaosSpec string

// cell is one experiment of a workload: a full (chain, deployment, trace)
// run through bench.Run.
type cell struct {
	name string
	exp  bench.Experiment
	// want is the number of transactions the cell's traces and streams
	// hold; a run that submits another number has failed.
	want int
}

// workload is a named set of cells run one after the other.
type workload struct {
	name  string
	why   string
	build func(seed int64, quick bool) ([]cell, error)
}

// pick returns full at benchmark scale and small at --quick scale.
func pick[T any](quick bool, full, small T) T {
	if quick {
		return small
	}
	return full
}

// workloadTable holds the five workloads. Each is dominated by a different
// layer (see README.md for the profile shares measured when they were
// chosen), so an optimisation of one layer has a workload that exercises it
// and others that bypass it.
var workloadTable = []workload{
	{
		name:  "fifa-quorum",
		why:   "Figure 2's Quorum x FIFA cell at full trace length: client submit, sign, mempool add and deep-pool block assembly do the work; VM (cache replay) and sim/simnet do little",
		build: fifaQuorum,
	},
	{
		name:  "stream-mint",
		why:   "1M implicit clients minting once each: every sender is new (lazy keys, maps that only grow) and the pull-based stream pump replaces pre-scheduled windows",
		build: streamMint,
	},
	{
		name:  "chains-devnet",
		why:   "native transfers on all eight chains at 10 nodes plus a chaos cell: trie commit and SHA-256 dominate; covers every mempool policy, engine, retry and invariant path",
		build: chainsDevnet,
	},
	{
		name:  "nodes-200",
		why:   "the eight chains at 200 nodes and 100 TPS: event-bound (scheduler heap, simnet send and deliver, vote handlers), the per-transaction path is near zero",
		build: nodes200,
	},
	{
		name:  "uber-exec",
		why:   "Figure 5's Uber row with the gas cache off on all four VM profiles: vm.Interpreter.Execute is nearly all of the time, including the budget-abort path",
		build: uberExec,
	},
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloadTable {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// cellOf returns a cell over traces only, with want taken from them.
func cellOf(name string, exp bench.Experiment) cell {
	want := 0
	for _, tr := range exp.Traces {
		want += tr.Total()
	}
	return cell{name: name, exp: exp, want: want}
}

func fifaQuorum(seed int64, quick bool) ([]cell, error) {
	tr, err := workloads.ByName("fifa98")
	if err != nil {
		return nil, err
	}
	if quick {
		tr = tr.Truncated(2 * time.Second)
	}
	return []cell{cellOf("quorum", bench.Experiment{
		Chain:      "quorum",
		Config:     configs.Consortium,
		ScaleNodes: 10,
		Traces:     []*workloads.Trace{tr},
		Tail:       pick(quick, 60*time.Second, 5*time.Second),
		Seed:       seed,
	})}, nil
}

func streamMint(seed int64, quick bool) ([]cell, error) {
	cfg := stream.Config{
		Scenario: "flash-mint",
		Clients:  pick[uint64](quick, 1_000_000, 20_000),
		Peak:     pick[float64](quick, 8000, 2000),
		Decay:    pick(quick, 60*time.Second, 2*time.Second),
		Duration: pick(quick, 120*time.Second, 3*time.Second),
	}
	exp := bench.Experiment{
		Chain:      "quorum",
		Config:     configs.Consortium,
		ScaleNodes: 10,
		Streams:    []stream.Config{cfg},
		Tail:       pick(quick, 60*time.Second, 5*time.Second),
		Seed:       seed,
	}
	// A stream's length is known only by draining it; bench.Run builds its
	// own fresh sources from (Streams, Seed), so this one is thrown away.
	srcs, err := stream.BuildAll(exp.Streams, seed)
	if err != nil {
		return nil, err
	}
	want := 0
	var it stream.Intent
	for _, src := range srcs {
		for src.Next(&it) {
			want++
		}
	}
	return []cell{{name: "quorum", exp: exp, want: want}}, nil
}

// chainCells returns one native-transfer cell per devnetChains entry.
func chainCells(cfg *configs.Config, tps float64, dur, tail time.Duration, seed int64) []cell {
	cells := make([]cell, 0, len(devnetChains)+1)
	for _, c := range devnetChains {
		cells = append(cells, cellOf(c, bench.Experiment{
			Chain:  c,
			Config: cfg,
			Traces: []*workloads.Trace{workloads.NativeConstant(tps, dur)},
			Tail:   tail,
			Seed:   seed,
		}))
	}
	return cells
}

func chainsDevnet(seed int64, quick bool) ([]cell, error) {
	cells := chainCells(configs.Devnet, pick[float64](quick, 1000, 50),
		pick(quick, 60*time.Second, 2*time.Second), pick(quick, 30*time.Second, 3*time.Second), seed)
	chaos, err := chaosCell(seed, quick)
	if err != nil {
		return nil, err
	}
	return append(cells, chaos), nil
}

// chaosCell is Quorum on the devnet under the embedded fault schedule, with
// client retries and the invariant monitors armed. The schedule spans 220 s
// of virtual time; the quick scale stops after the first fault, a crash at
// 30 s.
func chaosCell(seed int64, quick bool) (cell, error) {
	setup, err := spec.ParseSetup(chaosSpec)
	if err != nil {
		return cell{}, fmt.Errorf("quorum-chaos.yaml: %w", err)
	}
	trace := workloads.NativeConstant(pick[float64](quick, 300, 5), pick(quick, 240*time.Second, 50*time.Second))
	return cellOf("quorum-chaos", bench.Experiment{
		Chain:      setup.Chain,
		Config:     setup.Config,
		Traces:     []*workloads.Trace{trace},
		Tail:       pick(quick, 60*time.Second, 10*time.Second),
		Seed:       seed,
		Faults:     setup.Faults,
		Retry:      setup.Retry,
		Invariants: true,
	}), nil
}

func nodes200(seed int64, quick bool) ([]cell, error) {
	return chainCells(configs.Consortium, pick[float64](quick, 100, 20),
		pick(quick, 60*time.Second, time.Second), pick(quick, 30*time.Second, time.Second), seed), nil
}

func uberExec(seed int64, quick bool) ([]cell, error) {
	tr, err := workloads.ByName("uber-nyc")
	if err != nil {
		return nil, err
	}
	tr = tr.Truncated(pick(quick, 8*time.Second, time.Second))
	if quick {
		tr = tr.Scaled(0.05)
	}
	var cells []cell
	for _, c := range []string{"quorum", "algorand", "diem", "solana"} {
		cells = append(cells, cellOf(c, bench.Experiment{
			Chain:      c,
			Config:     configs.Consortium,
			ScaleNodes: 10,
			CacheAfter: -1,
			Traces:     []*workloads.Trace{tr},
			Tail:       pick(quick, 60*time.Second, 10*time.Second),
			Seed:       seed,
		}))
	}
	return cells, nil
}
