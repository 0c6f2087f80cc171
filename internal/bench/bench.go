// Package bench runs complete DIABLO experiments: it deploys a named
// blockchain in one of the Table 3 configurations on the simulated WAN,
// provisions accounts, runs workload traces through the core engine and
// returns the aggregate result. Every table and figure of the paper is
// regenerated through this package (see internal/report and cmd/diablo-exp).
package bench

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"io"
	"time"

	"diablo/internal/adversary"
	"diablo/internal/chains"
	"diablo/internal/chains/chain"
	"diablo/internal/chaos"
	"diablo/internal/configs"
	"diablo/internal/core"
	"diablo/internal/invariant"
	"diablo/internal/obs"
	"diablo/internal/sim"
	"diablo/internal/simnet"
	"diablo/internal/span"
	"diablo/internal/spec"
	"diablo/internal/stream"
	"diablo/internal/types"
	"diablo/internal/wallet"
	"diablo/internal/workloads"
)

// Experiment is one (chain, configuration, workload) cell.
type Experiment struct {
	// Chain is the blockchain name (see chains.Names).
	Chain string
	// Config is the Table 3 deployment configuration.
	Config *configs.Config
	// Traces are the workloads to run concurrently.
	Traces []*workloads.Trace
	// Streams are constant-memory generated workloads (internal/stream)
	// run alongside the traces; either list may be empty, but not both.
	// Configs (not live sources) keep repeated runs independent: Run
	// builds fresh sources from (Streams, Seed) every time.
	Streams []stream.Config
	// Seed makes runs reproducible; runs with equal seeds are identical.
	Seed int64
	// Tail extends observation beyond the last submission (default 120s).
	Tail time.Duration
	// CacheAfter configures the executor's gas cache (full interpretation
	// for the first N calls per contract function, replay afterwards);
	// 0 uses the default of 16, negative disables caching entirely.
	CacheAfter int
	// ScaleNodes divides the configuration's node count for laptop-scale
	// smoke runs (0 or 1 = full size).
	ScaleNodes int
	// Locations optionally restricts the Secondaries to endpoints in the
	// named regions (the specification's !location sampler); empty =
	// collocate with every endpoint.
	Locations []string
	// Faults optionally runs the experiment under a scripted chaos
	// schedule; all probabilistic faults draw from a PRNG seeded with Seed,
	// so faulty runs replay bit-identically.
	Faults *chaos.Schedule
	// Byzantine optionally runs the experiment under a scripted Byzantine
	// adversary (see internal/adversary); like Faults, every behavior
	// window opens and closes at scripted virtual times, so adversarial
	// runs replay bit-identically.
	Byzantine *adversary.Schedule
	// Invariants arms the continuous safety/liveness monitors (agreement,
	// validity, integrity, eventual inclusion); detected violations land
	// in Outcome.Violations.
	Invariants bool
	// InclusionHorizon bounds eventual inclusion: an admitted transaction
	// still uncommitted this long after admission (checked at run end) is
	// a liveness violation. Zero defaults to the run's Tail.
	InclusionHorizon time.Duration
	// Retry configures client-side resubmission (zero = disabled).
	Retry chain.RetryPolicy
	// Trace, when non-nil, receives the JSONL transaction lifecycle trace
	// (see internal/obs). All timestamps are virtual sim-time, so traces
	// from equal-seed runs are byte-identical.
	Trace io.Writer
	// Metrics enables the sim-time metrics registry: sampled every virtual
	// second, embedded in Outcome.Metrics (and, when tracing, as "sample"
	// events in the trace).
	Metrics bool
	// Spans, when non-nil, receives the causal span JSONL stream (see
	// internal/span and DESIGN.md §15): every scheduled event, delivery,
	// consensus round and mempool admission as one causal tree per
	// committed transaction, in virtual time.
	// Recording only observes, so the run's result, trace and checkpoints
	// are byte-identical whether spans are on or off.
	Spans io.Writer
	// SpansWall, when non-nil, receives wall-clock self-profiling folded
	// stacks (which span labels burn real CPU in the simulator). This is
	// the suite's only non-deterministic artifact; it never mixes into
	// deterministic outputs.
	SpansWall io.Writer
	// Progress, when set together with ProgressEvery, is called on periodic
	// sim-time ticks with live run statistics (`diablo run --stat N`).
	Progress func(Progress)
	// ProgressEvery is the Progress callback period.
	ProgressEvery time.Duration
	// CheckpointEvery enables periodic state checkpoints at this virtual
	// interval, written into CheckpointDir. Checkpoint capture only reads
	// state, so a checkpointed run's result and trace are byte-identical
	// to an uncheckpointed one.
	CheckpointEvery time.Duration
	// CheckpointDir receives the checkpoint files (cp-<vtime>ms.snap).
	CheckpointDir string
	// CheckpointKeep, when positive, prunes older checkpoints after each
	// capture so at most this many .snap files remain — retention for
	// multi-hour runs. 0 keeps every checkpoint.
	CheckpointKeep int
	// Resume is a checkpoint file to resume from: the run deterministically
	// fast-forwards from t=0 and, on reaching the checkpoint's virtual
	// time, reconciles every subsystem against the stored state — failing
	// loudly on the first divergent field instead of continuing a run that
	// would not match the original.
	Resume string
	// SpecHash ties checkpoints to the raw setup+workload spec bytes;
	// resume refuses a checkpoint recorded for a different spec.
	SpecHash uint64
	// CheckpointFrom/CheckpointUntil bound checkpoint capture to a virtual
	// time window (zero = unbounded on that side). Used by bisect
	// refinement to re-run with a fine CheckpointEvery over just a
	// divergent window; the periodic tick is an observer event, so
	// narrowing the window cannot alter the run's trajectory.
	CheckpointFrom  time.Duration
	CheckpointUntil time.Duration
	// Uploads, when non-nil, replaces in-process encoding of the trace
	// submissions: entry g is global submission g as a Secondary signed it
	// (Presign) and the distributed Primary verified it, a
	// *types.Transaction. A nil entry was never uploaded and is recorded
	// aborted, like a submission that fails to encode. Only internal/remote
	// sets it.
	Uploads []core.Interaction
}

// DefaultTail is how long a run observes after its last submission.
const DefaultTail = 120 * time.Second

// FromSpec builds the experiment a setup and a workload document describe:
// the one `diablo run` sweeps, the distributed Primary runs on its
// Secondaries' uploads and every Secondary presigns its share of.
func FromSpec(setup *spec.Setup, b *spec.Benchmark) (Experiment, error) {
	traces, err := b.Traces()
	if err != nil {
		return Experiment{}, err
	}
	var locations []string
	for _, wl := range b.Workloads {
		locations = append(locations, wl.Locations...)
	}
	return Experiment{
		Chain:            setup.Chain,
		Config:           setup.Config,
		Traces:           traces,
		Streams:          b.Streams,
		Seed:             setup.Seed,
		Tail:             DefaultTail,
		ScaleNodes:       setup.NodeScale,
		Locations:        locations,
		Faults:           setup.Faults,
		Byzantine:        setup.Byzantine,
		Invariants:       setup.Invariants,
		InclusionHorizon: setup.InclusionHorizon,
		Retry:            setup.Retry,
	}, nil
}

// scaled returns the experiment's configuration at its node scale.
func (e Experiment) scaled() *configs.Config {
	if e.ScaleNodes > 1 {
		return e.Config.Scaled(e.ScaleNodes)
	}
	return e.Config
}

// deploy builds the experiment's chain network on sched in configuration
// cfg (e.scaled()), provisions its wallet and resolves the workload's
// placement. It fails on everything about the deployment that Run rejects:
// an unknown chain, a fault or byzantine schedule that does not fit the
// nodes or the engine, and locations where no node lives.
func (e Experiment) deploy(sched *sim.Scheduler, wan *simnet.Network, cfg *configs.Config) (*chain.Network, *wallet.Wallet, []core.Endpoint, error) {
	params, err := chains.ParamsFor(e.Chain)
	if err != nil {
		return nil, nil, nil, err
	}
	net := chain.Deploy(sched, wan, params, chain.Deployment{
		Nodes:   cfg.Nodes,
		VCPUs:   cfg.VCPUs,
		Regions: cfg.Regions,
	})
	if e.Faults != nil {
		if err := e.Faults.Validate(cfg.Nodes); err != nil {
			return nil, nil, nil, err
		}
	}
	if e.Byzantine != nil && len(e.Byzantine.Events) > 0 {
		if err := e.Byzantine.Validate(cfg.Nodes); err != nil {
			return nil, nil, nil, err
		}
		bs, ok := net.Engine().(chain.ByzantineSupport)
		if !ok {
			return nil, nil, nil, fmt.Errorf("bench: the %s consensus engine declares no byzantine behavior support", net.Params.Consensus)
		}
		if err := e.Byzantine.CheckSupport(bs.ByzantineBehaviors(), net.Params.Consensus); err != nil {
			return nil, nil, nil, err
		}
	}
	placement, err := ResolvePlacement(net, e.Locations)
	if err != nil {
		return nil, nil, nil, err
	}
	w := wallet.New(wallet.FastScheme{}, fmt.Sprintf("%s-%s-%d", e.Chain, cfg.Name, e.Seed), cfg.AccountsFor(e.Chain))
	return net, w, placement, nil
}

// Check reports the error Run would fail with before it simulates anything,
// without running the experiment: a missing configuration or workload, and
// every deployment check of deploy. The distributed Primary calls it before
// it waits for Secondaries.
func (e Experiment) Check() error {
	if err := e.complete(); err != nil {
		return err
	}
	sched := sim.NewScheduler(e.Seed)
	_, _, _, err := e.deploy(sched, simnet.New(sched), e.scaled())
	return err
}

// complete reports an experiment with no configuration or no workload.
func (e Experiment) complete() error {
	if e.Config == nil {
		return fmt.Errorf("bench: experiment needs a configuration")
	}
	if len(e.Traces) == 0 && len(e.Streams) == 0 {
		return fmt.Errorf("bench: experiment needs at least one trace or stream")
	}
	return nil
}

// Progress is one periodic liveness report during a run.
type Progress struct {
	// At is the virtual time of the tick.
	At time.Duration
	// Submitted and Decided count client submissions and confirmed
	// decisions so far; their difference is the commit lag.
	Submitted uint64
	Decided   uint64
	// TimedOut counts transactions the retry policy abandoned.
	TimedOut uint64
	// Mempool is the current (global) pool depth.
	Mempool int
	// Blocks is the committed chain height; BlockRate is blocks per
	// virtual second since the previous tick.
	Blocks    uint64
	BlockRate float64
	// Events counts scheduler events executed so far; the CLI derives the
	// wall-clock event rate and sim-time speedup from it.
	Events uint64
}

// Outcome bundles the engine result with run-level diagnostics.
type Outcome struct {
	*core.Result
	Experiment Experiment
	// Crashed reports cluster collapse (Quorum under sustained overload).
	Crashed bool
	// CrashedAt is when the collapse happened.
	CrashedAt time.Duration
	// PoolDropped counts mempool policy rejections observed node-side.
	PoolDropped uint64
	// Blocks is the committed chain length.
	Blocks uint64
	// WallTime is how long the simulation took in real time.
	WallTime time.Duration
	// VirtualTime is how much simulated time elapsed.
	VirtualTime time.Duration
	// ExecutedTxs and ReplayedTxs report gas-cache behaviour.
	ExecutedTxs uint64
	ReplayedTxs uint64
	// Retries counts client resubmissions; MsgsLost counts messages
	// dropped by injected link faults. (Abandoned transactions are in
	// Result.TimedOut.)
	Retries  uint64
	MsgsLost uint64
	// Metrics is the sampled registry timeline (Experiment.Metrics).
	Metrics *obs.Snapshot
	// Links aggregates simnet traffic per region pair (Experiment.Metrics).
	Links []simnet.LinkLine
	// TraceEvents counts emitted trace events (Experiment.Trace).
	TraceEvents uint64
	// Checkpoints lists the checkpoint files written (CheckpointEvery).
	Checkpoints []string
	// Verified is the virtual time at which a Resume checkpoint was
	// successfully reconciled against the fast-forwarded state (-1 when
	// not resuming).
	Verified time.Duration
	// InvariantsChecked names the armed invariants (Experiment.Invariants);
	// Violations lists the detected breaches in detection order.
	InvariantsChecked []string
	Violations        []invariant.Violation
	// Adversary summarizes the Byzantine engine's counters
	// (Experiment.Byzantine).
	Adversary *AdversaryStats
	// SpanRecords counts emitted span records (Experiment.Spans).
	SpanRecords uint64
}

// Digest hashes what the run simulated: its seed, summary, chain length,
// virtual time, executed and replayed counts, dropped, aborted and timed-out
// transactions, pool rejections, retries, the violation count and every
// transaction's submit time, commit time and abort flag. Equal digests
// mean equal outcomes; wall-clock time is left out.
func (o *Outcome) Digest() string {
	h := sha256.New()
	fmt.Fprintf(h, "%d|%+v|%d|%d|%d|%d|%d|%d|%d|%d|%d|%d|", o.Experiment.Seed, o.Summary, o.Blocks,
		o.VirtualTime, o.ExecutedTxs, o.ReplayedTxs, o.Dropped, o.AbortedExec, o.TimedOut,
		o.PoolDropped, o.Retries, len(o.Violations))
	var buf [17]byte
	for _, r := range o.Records {
		binary.BigEndian.PutUint64(buf[0:], uint64(r.Submit))
		binary.BigEndian.PutUint64(buf[8:], uint64(r.Commit))
		buf[16] = 0
		if r.Aborted {
			buf[16] = 1
		}
		h.Write(buf[:])
	}
	return hex.EncodeToString(h.Sum(nil))
}

// AdversaryStats summarizes what a scripted Byzantine adversary did.
type AdversaryStats struct {
	// Windows counts behavior window transitions (opens and closes).
	Windows uint64
	// Equivocations counts conflicting proposals that could split commits;
	// Defended counts attempts absorbed by quorum intersection.
	Equivocations uint64
	Defended      uint64
	// Withheld counts dropped votes; Corrupted/Discarded count damaged
	// outbound messages and their receiver-side drops; Censored counts
	// transactions skipped by censoring proposers; Replayed counts stale
	// message re-deliveries.
	Withheld  uint64
	Corrupted uint64
	Discarded uint64
	Censored  uint64
	Replayed  uint64
}

// DefaultCacheAfter is how many full interpretations warm the gas cache.
const DefaultCacheAfter = 16

// Run executes the experiment.
func Run(e Experiment) (*Outcome, error) {
	if err := e.complete(); err != nil {
		return nil, err
	}
	cfg := e.scaled()

	start := time.Now()
	sched := sim.NewScheduler(e.Seed)
	// Span recording is armed before anything is scheduled so deployment
	// events are already attributed. The recorder only observes — it draws
	// no randomness and schedules nothing — so the run's result, trace and
	// checkpoints are byte-identical with or without it.
	var spans *span.Recorder
	if e.Spans != nil || e.SpansWall != nil {
		spans = span.NewRecorder(e.Spans)
		spans.EnableWall(e.SpansWall)
		spans.Meta(e.Chain, e.Seed, cfg.Nodes)
		sched.SetProfiler(spans)
	}
	wan := simnet.New(sched)
	wan.SeedFaults(e.Seed)
	if spans != nil {
		wan.SetSpans(spans)
	}
	net, w, placement, err := e.deploy(sched, wan, cfg)
	if err != nil {
		return nil, err
	}
	net.DefaultRetry = e.Retry
	if spans != nil {
		net.SetSpans(spans)
	}

	// Observability: the tracer and registry are wired before anything is
	// scheduled so the sampled column order and the event stream are
	// deterministic. Both default to off (nil), which keeps every hook on
	// the hot paths a free nil-receiver call.
	var tracer *obs.Tracer
	if e.Trace != nil {
		tracer = obs.NewTracer(e.Trace)
	}
	var reg *obs.Registry
	if e.Metrics || e.Progress != nil {
		reg = obs.NewRegistry()
	}
	if tracer != nil || reg != nil {
		net.Instrument(tracer, reg)
	}
	var linkStats *simnet.LinkStats
	if reg != nil {
		linkStats = &simnet.LinkStats{}
		wan.SetLinkStats(linkStats)
		reg.Gauge("net.delivered", func() float64 { return float64(wan.Delivered) })
		reg.Gauge("net.bytes", func() float64 { return float64(wan.BytesSent) })
		reg.Gauge("net.lost", func() float64 { return float64(wan.Lost) })
		reg.Gauge("sched.pending", func() float64 { return float64(sched.Stats().Live) })
		reg.Gauge("sched.executed", func() float64 { return float64(sched.Executed()) })
	}

	var chaosEng *chaos.Engine
	if e.Faults != nil {
		chaosEng = chaos.Install(sched, wan, e.Faults)
		chaosEng.Instrument(tracer, reg)
	}
	var advEng *adversary.Engine
	if e.Byzantine != nil && len(e.Byzantine.Events) > 0 {
		advEng = adversary.Install(sched, cfg.Nodes, e.Byzantine)
		advEng.Instrument(tracer, reg)
		net.AttachAdversary(advEng)
	}
	var mon *invariant.Monitor
	if e.Invariants {
		horizon := e.InclusionHorizon
		if horizon <= 0 {
			horizon = e.Tail
		}
		mon = invariant.NewMonitor(horizon)
		mon.Instrument(tracer, reg)
		net.AttachMonitor(mon)
	}
	switch {
	case e.CacheAfter > 0:
		net.Exec.CacheAfter = e.CacheAfter
	case e.CacheAfter == 0:
		net.Exec.CacheAfter = DefaultCacheAfter
	default:
		net.Exec.CacheAfter = 0 // full fidelity
	}

	adapter := core.NewSimAdapter(net, w)

	// Engine counters are registered last, then sampling starts: the meta
	// line must carry the complete column list.
	em := core.NewEngineMetrics(reg)
	const sampleInterval = time.Second
	if tracer != nil {
		var names []string
		interval := time.Duration(0)
		if reg != nil {
			names = reg.Names()
			interval = sampleInterval
		}
		tracer.Meta(e.Chain, e.Seed, interval, names)
	}
	reg.Attach(sched, sampleInterval, tracer)
	if e.Progress != nil && e.ProgressEvery > 0 {
		var lastBlocks uint64
		var lastAt time.Duration
		sched.Every(e.ProgressEvery, func() {
			now := sched.Now()
			blocks := net.Height()
			rate := 0.0
			if dt := (now - lastAt).Seconds(); dt > 0 {
				rate = float64(blocks-lastBlocks) / dt
			}
			e.Progress(Progress{
				At:        now,
				Submitted: net.Obs.Submitted.Value(),
				Decided:   net.Obs.Decided.Value(),
				TimedOut:  net.Obs.Timeouts.Value(),
				Mempool:   net.Pool.Len(),
				Blocks:    blocks,
				BlockRate: rate,
				Events:    sched.Executed(),
			})
			lastBlocks, lastAt = blocks, now
		})
	}

	// Checkpoint/resume is armed last, so the recorder ticker rides after
	// every other same-timestamp event of a tick (progress, sampling) and
	// observes the settled state. Capture only reads state — no RNG draws,
	// no scheduling besides its own ticker — so the run's outputs are
	// byte-identical with or without it.
	// Stream sources are built fresh per run from (configs, seed): equal
	// seeds replay byte-identically, and repeated cells stay independent.
	sources, err := stream.BuildAll(e.Streams, e.Seed)
	if err != nil {
		return nil, err
	}

	ck, err := armCheckpoints(e, sched, wan, chaosEng, advEng, mon, net, reg, spans, sources)
	if err != nil {
		return nil, err
	}

	net.Start()
	result, err := core.Run(sched, adapter, core.BenchmarkSpec{
		Traces:    e.Traces,
		Streams:   sources,
		Accounts:  w.Len(),
		Seed:      e.Seed,
		Tail:      e.Tail,
		Placement: placement,
		Metrics:   em,
		Presigned: e.Uploads,
	})
	net.Stop()
	// The inclusion check runs after the engine stopped: anything still
	// uncommitted now will stay uncommitted.
	mon.Finalize(sched.Now())
	if cerr := ck.err(); cerr != nil {
		return nil, cerr
	}
	if err != nil {
		return nil, err
	}
	if tracer != nil {
		if err := tracer.Flush(); err != nil {
			return nil, fmt.Errorf("bench: writing trace: %w", err)
		}
	}
	if spans != nil {
		spans.Finish()
		if err := spans.Flush(); err != nil {
			return nil, fmt.Errorf("bench: writing spans: %w", err)
		}
		if err := spans.FlushWall(); err != nil {
			return nil, fmt.Errorf("bench: writing wall profile: %w", err)
		}
	}

	out := &Outcome{
		Result:      result,
		Experiment:  e,
		Crashed:     net.Crashed(),
		CrashedAt:   net.CrashedAt,
		PoolDropped: net.Pool.Dropped(),
		Blocks:      net.Height(),
		WallTime:    time.Since(start),
		VirtualTime: sched.Now(),
		ExecutedTxs: net.Exec.Executed,
		ReplayedTxs: net.Exec.Replayed,
		Retries:     net.TotalRetries,
		MsgsLost:    wan.Lost,
		Metrics:     reg.Snapshot(),
		Links:       linkStats.Lines(),
		TraceEvents: tracer.Events(),
		Checkpoints: ck.written(),
		Verified:    ck.verifiedAt(),
		SpanRecords: spans.Emitted(),
	}
	out.InvariantsChecked = mon.Checked()
	out.Violations = mon.Violations()
	if advEng != nil {
		out.Adversary = &AdversaryStats{
			Windows:       advEng.Applied,
			Equivocations: advEng.Equivocations,
			Defended:      advEng.Defended,
			Withheld:      advEng.Withheld,
			Corrupted:     advEng.Corrupted,
			Discarded:     advEng.Discarded,
			Censored:      advEng.Censored,
			Replayed:      advEng.Replayed,
		}
	}
	return out, nil
}

// Presign derives the trace transactions of e exactly as Run encodes them —
// core.Presign over the same deployment, wallet and seed — and hands emit
// each one whose global index g satisfies keep(g), carrying its sender's
// wire signature, with the virtual time Run submits it at. Only keep's
// share is signed. London chains get core.PresignedGasPrice, since a
// transaction signed in advance cannot see the live base fee. Stream
// workloads are not presigned: e must have none.
func Presign(e Experiment, keep func(global int) bool, emit func(global int, at time.Duration, tx *types.Transaction) error) error {
	sched := sim.NewScheduler(e.Seed)
	net, w, _, err := e.deploy(sched, simnet.New(sched), e.scaled())
	if err != nil {
		return err
	}
	adapter := core.NewSimAdapter(net, w)
	adapter.Presign = true
	work := core.BenchmarkSpec{Traces: e.Traces, Accounts: w.Len(), Seed: e.Seed}
	return core.Presign(adapter, work, func(g int, at time.Duration, in core.Interaction) error {
		if !keep(g) {
			return nil
		}
		tx := in.(*types.Transaction)
		acct, _ := w.Lookup(tx.From)
		tx.Sig = acct.WireSig(tx)
		return emit(g, at, tx)
	})
}

// ResolvePlacement maps the specification's location tags to the deployed
// endpoints living in those regions (the mapping function M). An empty
// location list means no restriction.
func ResolvePlacement(net *chain.Network, locations []string) ([]core.Endpoint, error) {
	if len(locations) == 0 {
		return nil, nil
	}
	want := map[simnet.Region]bool{}
	for _, loc := range locations {
		r, err := simnet.RegionByName(loc)
		if err != nil {
			return nil, err
		}
		want[r] = true
	}
	var out []core.Endpoint
	for i, nd := range net.Nodes {
		if want[nd.Sim.Region] {
			out = append(out, core.Endpoint(i))
		}
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("bench: no deployed node lives in %v", locations)
	}
	return out, nil
}

// GafamTraces returns the five concurrent per-stock NASDAQ traces of the
// exchange DApp benchmark.
func GafamTraces() []*workloads.Trace {
	out := make([]*workloads.Trace, 0, len(workloads.Stocks))
	for _, s := range workloads.Stocks {
		tr, err := workloads.NASDAQ(s.Name)
		if err != nil {
			panic(err)
		}
		out = append(out, tr)
	}
	return out
}

// TracesFor resolves a DApp benchmark name into its trace set.
func TracesFor(name string) ([]*workloads.Trace, error) {
	if name == "exchange" || name == "gafam" || name == "nasdaq" {
		return GafamTraces(), nil
	}
	tr, err := workloads.ByName(name)
	if err != nil {
		return nil, err
	}
	return []*workloads.Trace{tr}, nil
}

// Scale reduces every trace's rate by factor f (for laptop-scale runs).
func Scale(traces []*workloads.Trace, f float64) []*workloads.Trace {
	if f == 1 {
		return traces
	}
	out := make([]*workloads.Trace, len(traces))
	for i, tr := range traces {
		out[i] = tr.Scaled(f)
	}
	return out
}
