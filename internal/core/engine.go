package core

import (
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"time"

	"diablo/internal/dapps"
	"diablo/internal/obs"
	"diablo/internal/sim"
	"diablo/internal/stats"
	"diablo/internal/stream"
	"diablo/internal/types"
	"diablo/internal/workloads"
)

// EngineMetrics holds the engine-side registry counters: what the
// Secondaries' clients observe, as opposed to the node-side counters the
// chain harness keeps. The zero value (all nil) is the disabled state.
type EngineMetrics struct {
	Submitted *obs.Counter // workload entries handed to clients
	Decided   *obs.Counter // observations of committed transactions
	Dropped   *obs.Counter // node-side rejections observed by clients
	TimedOut  *obs.Counter // transactions abandoned by the retry policy
	Aborted   *obs.Counter // committed transactions whose execution failed
}

// NewEngineMetrics registers the engine counters; on a nil registry every
// counter is nil (disabled).
func NewEngineMetrics(reg *obs.Registry) EngineMetrics {
	return EngineMetrics{
		Submitted: reg.Counter("engine.submitted"),
		Decided:   reg.Counter("engine.decided"),
		Dropped:   reg.Counter("engine.dropped"),
		TimedOut:  reg.Counter("engine.timedout"),
		Aborted:   reg.Counter("engine.aborted"),
	}
}

// BenchmarkSpec configures one benchmark run, as the Primary would parse it
// from the benchmark configuration file.
type BenchmarkSpec struct {
	// Traces are the workloads to submit concurrently; the GAFAM exchange
	// benchmark runs its five per-stock traces side by side.
	Traces []*workloads.Trace
	// Streams are constant-memory generated workloads (internal/stream)
	// running alongside the traces; either list may be empty, but not both.
	Streams []stream.Source
	// Accounts is the number of signing accounts provisioned.
	Accounts int
	// Seed drives workload argument generation.
	Seed int64
	// Tail is how long to keep observing after the last submission so
	// straggling commits are measured (Fig. 6 observes Avalanche commits
	// 162 s in). Default 120s.
	Tail time.Duration
	// Placement optionally pins Secondaries to endpoints (the mapping
	// function M derived from the specification's location tags);
	// Secondary i connects to Placement[i mod len]. Empty = collocate
	// round-robin with every endpoint.
	Placement []Endpoint
	// Metrics optionally receives engine-side counters (see EngineMetrics);
	// the zero value disables them.
	Metrics EngineMetrics
	// Presigned, when non-nil, takes the place of Client.Encode for the
	// trace submissions: entry g is global submission g as it was encoded
	// and signed elsewhere (the distributed Primary's verified uploads); a
	// nil entry is recorded aborted, like a submission that fails to encode.
	Presigned []Interaction
}

// Result is the aggregated outcome the Primary reports.
type Result struct {
	Chain  string
	Traces []string

	Records []stats.TxRecord
	Summary stats.Summary

	// Dropped counts node-side rejections; AbortedExec counts committed
	// transactions whose execution failed (e.g. "budget exceeded");
	// TimedOut counts transactions clients abandoned after exhausting
	// their retry policy.
	Dropped     int
	AbortedExec int
	TimedOut    int

	// SubmittedPerSec and CommittedPerSec are 1-second time series.
	SubmittedPerSec *stats.TimeSeries
	CommittedPerSec *stats.TimeSeries

	// Latencies of committed transactions, for CDFs.
	Latencies []time.Duration

	// DeployErr records a DApp that could not be deployed at all (the
	// paper's YouTube-on-Algorand case); the run is then empty.
	DeployErr error
}

// CommitRatio is committed / submitted.
func (r *Result) CommitRatio() float64 { return r.Summary.CommitRatio }

// submission is one pre-scheduled workload entry.
type submission struct {
	at     time.Duration
	trace  int32
	global int32
}

// batchWindow groups submissions into one simulation event.
const batchWindow = 50 * time.Millisecond

// recordTokens hands out the record indices that ride along as trigger
// tokens. A *int32 converts to the Client interface's `any` without
// allocating, where a bare int32 is boxed on every Trigger; the indices are
// carved out of chunks, so a token costs 1/tokenChunk of an allocation and a
// chunk is collected once the transactions holding it have all settled.
type recordTokens struct{ chunk []int32 }

const tokenChunk = 1024

func (t *recordTokens) next(idx int32) *int32 {
	if len(t.chunk) == 0 {
		t.chunk = make([]int32, tokenChunk)
	}
	p := &t.chunk[0]
	t.chunk = t.chunk[1:]
	*p = idx
	return p
}

// workload is what Run and Presign derive from a spec before encoding
// anything: the deployed contracts, each trace's DApp, the workload RNG and
// the trace submissions grouped into batch windows, in the order Run
// encodes them. Sharing it is what makes a remote Secondary's presigned
// transactions the very ones the in-process run encodes.
type workload struct {
	spec      *BenchmarkSpec
	contracts map[string]Resource
	dappOf    []*dapps.DApp
	rng       *rand.Rand
	windows   map[int64][]submission
	keys      []int64 // window keys, ascending
	total     int     // trace submissions
	deployErr error   // a DApp the chain cannot express: the run is empty
}

// newWorkload deploys the DApps the traces and streams call, traces first,
// and lays out the trace submissions. It fills in spec.Accounts' default.
func newWorkload(bc Blockchain, spec *BenchmarkSpec) (*workload, error) {
	if spec.Accounts <= 0 {
		spec.Accounts = 2000
	}
	w := &workload{
		spec:      spec,
		contracts: map[string]Resource{},
		dappOf:    make([]*dapps.DApp, len(spec.Traces)),
		rng:       rand.New(rand.NewSource(spec.Seed)), //lint:allow globalrand workload RNG is seeded from spec.Seed and drawn before the event loop starts; draw position never needs checkpointing
		windows:   map[int64][]submission{},
	}
	deploy := func(name string) bool {
		if _, done := w.contracts[name]; done {
			return true
		}
		r, err := bc.CreateResource(ResourceSpec{Kind: ResourceContract, Name: name})
		if err != nil {
			w.deployErr = err
			return false
		}
		w.contracts[name] = r
		return true
	}
	for i, tr := range spec.Traces {
		if tr.DApp == "" {
			continue
		}
		d, err := dapps.Get(tr.DApp)
		if err != nil {
			return nil, err
		}
		w.dappOf[i] = d
		if !deploy(tr.DApp) {
			return w, nil
		}
	}
	for _, src := range spec.Streams {
		if src.DApp() == "" {
			continue
		}
		if _, err := dapps.Get(src.DApp()); err != nil {
			return nil, err
		}
		if !deploy(src.DApp()) {
			return w, nil
		}
	}

	// Submissions are batched per 50ms window to bound event count.
	for ti, tr := range spec.Traces {
		ti32, base := int32(ti), int32(w.total)
		tr.ForEach(func(idx int, at time.Duration) {
			k := int64(at / batchWindow)
			w.windows[k] = append(w.windows[k], submission{at: at, trace: ti32, global: base + int32(idx)})
		})
		w.total += tr.Total()
	}
	// Windows are scheduled in sorted order: each window has a distinct
	// timestamp, so map order would not change behavior, but scheduling
	// from map iteration would randomize event sequence numbers and break
	// checkpoint queue digests (internal/snapshot).
	w.keys = make([]int64, 0, len(w.windows))
	for k := range w.windows {
		w.keys = append(w.keys, k)
	}
	sort.Slice(w.keys, func(i, j int) bool { return w.keys[i] < w.keys[j] })
	return w, nil
}

// interaction builds submission s's interaction spec. A DApp call draws its
// arguments from the workload RNG, so callers must visit the submissions in
// window order, as Run and Presign do.
func (w *workload) interaction(s submission) InteractionSpec {
	tr := w.spec.Traces[s.trace]
	if tr.DApp == "" {
		return InteractionSpec{
			Kind:   InteractTransfer,
			From:   int(s.global) % w.spec.Accounts,
			To:     (int(s.global) + 1) % w.spec.Accounts,
			Amount: 1,
		}
	}
	d := w.dappOf[s.trace]
	return InteractionSpec{
		Kind:           InteractInvoke,
		From:           int(s.global) % w.spec.Accounts,
		Contract:       w.contracts[tr.DApp],
		Function:       tr.Func,
		Args:           d.ArgGen(w.rng, tr.Func),
		ExtraDataBytes: d.DataBytes,
	}
}

// errNotUploaded marks a presigned run's submission that no Secondary
// uploaded; like one that fails to encode, it is recorded aborted.
var errNotUploaded = errors.New("core: transaction was not uploaded")

// encode returns submission s's interaction: its upload in a presigned
// run, else c's encoding of its spec.
func (w *workload) encode(c Client, s submission) (Interaction, error) {
	if w.spec.Presigned != nil {
		if e := w.spec.Presigned[s.global]; e != nil {
			return e, nil
		}
		return nil, errNotUploaded
	}
	return c.Encode(w.interaction(s))
}

// Run executes a benchmark against a blockchain on the given scheduler.
// The caller is responsible for starting the chain's block production
// before calling Run and stopping it afterwards.
func Run(sched *sim.Scheduler, bc Blockchain, spec BenchmarkSpec) (*Result, error) {
	if len(spec.Traces) == 0 && len(spec.Streams) == 0 {
		return nil, fmt.Errorf("core: no traces or streams to run")
	}
	endpoints := bc.Endpoints()
	if spec.Tail <= 0 {
		spec.Tail = 120 * time.Second
	}

	res := &Result{Chain: bc.Name()}
	for _, tr := range spec.Traces {
		res.Traces = append(res.Traces, tr.Name)
	}
	for _, src := range spec.Streams {
		res.Traces = append(res.Traces, src.Name())
	}
	dur := duration(spec.Traces)
	if sd := streamDuration(spec.Streams); sd > dur {
		dur = sd
	}

	// Primary phase 1: deploy the DApps the traces and streams need.
	wl, err := newWorkload(bc, &spec)
	if err != nil {
		return nil, err
	}
	if wl.deployErr != nil {
		// The chain cannot express this DApp (state-model limits):
		// record and report an empty run, as the paper does.
		res.DeployErr = wl.deployErr
		res.Summary = stats.Summarize(nil, dur)
		res.SubmittedPerSec = stats.NewTimeSeries(time.Second, dur)
		res.CommittedPerSec = stats.NewTimeSeries(time.Second, dur)
		return res, nil
	}

	// Primary phase 2: create the Secondaries' clients, one per endpoint,
	// collocated per the placement (default: endpoint i for Secondary i).
	placement := spec.Placement
	if len(placement) == 0 {
		placement = endpoints
	}
	clients := make([]Client, len(endpoints))
	for i := range clients {
		c, err := bc.CreateClient([]Endpoint{placement[i%len(placement)]})
		if err != nil {
			return nil, err
		}
		clients[i] = c
	}

	// Result collection: records indexed by global submission order; the
	// global index rides along as the trigger token.
	res.Records = make([]stats.TxRecord, wl.total)
	for i := range res.Records {
		res.Records[i].Commit = -1
	}
	res.SubmittedPerSec = stats.NewTimeSeries(time.Second, dur)
	res.CommittedPerSec = stats.NewTimeSeries(time.Second, dur+spec.Tail)

	for ci := range clients {
		clients[ci].Observe(func(token any, o Observation) {
			idx, ok := token.(*int32)
			if !ok || int(*idx) >= len(res.Records) {
				return
			}
			rec := &res.Records[*idx]
			if o.Dropped {
				res.Dropped++
				spec.Metrics.Dropped.Inc()
				return
			}
			if o.TimedOut {
				res.TimedOut++
				spec.Metrics.TimedOut.Inc()
				return
			}
			rec.Commit = o.Decided
			if o.Status != types.StatusOK {
				rec.Aborted = true
				res.AbortedExec++
				spec.Metrics.Aborted.Inc()
				return
			}
			spec.Metrics.Decided.Inc()
			res.CommittedPerSec.Add(o.Decided)
			res.Latencies = append(res.Latencies, o.Decided-o.Submitted)
		})
	}

	// Primary phase 3: schedule the workload, one event per batch window.
	// Encoding (including signing) happens inside the window event,
	// modeling Secondaries pre-signing just ahead of the send schedule.
	tokens := &recordTokens{}
	for _, w := range wl.keys {
		subs := wl.windows[w]
		sched.AtKind(sim.KindSubmission, time.Duration(w)*batchWindow, func() {
			for _, s := range subs {
				worker := int(s.global) % len(clients)
				res.Records[s.global].Submit = sched.Now()
				res.SubmittedPerSec.Add(sched.Now())
				spec.Metrics.Submitted.Inc()
				e, err := wl.encode(clients[worker], s)
				if err != nil {
					res.Records[s.global].Aborted = true
					res.AbortedExec++
					continue
				}
				if err := clients[worker].Trigger(e, tokens.next(s.global)); err != nil {
					res.Records[s.global].Aborted = true
					res.AbortedExec++
				}
			}
		})
	}

	// Primary phase 4: arm one pump per stream. Pumps are pull-based — a
	// single pending intent each, re-scheduling themselves window by
	// window — so arming them costs O(streams), not O(transactions).
	for _, src := range spec.Streams {
		p := &streamPump{
			sched:    sched,
			src:      src,
			res:      res,
			spec:     &spec,
			clients:  clients,
			tokens:   tokens,
			contract: wl.contracts[src.DApp()],
		}
		p.start()
	}

	// Run to completion: the trace plus the observation tail.
	sched.RunUntil(dur + spec.Tail)

	res.Summary = stats.Summarize(res.Records, dur)
	return res, nil
}

// Presign encodes every trace submission of spec exactly as Run would —
// the same contracts, global order, senders, nonces and argument draws —
// without running anything, and hands each to emit with its global index
// and the virtual time Run submits it at. A remote Secondary derives its
// share of a distributed run through it (internal/remote). A chain that
// cannot deploy one of the DApps yields nothing, since its run is empty,
// and a submission that fails to encode is skipped, as Run records it
// aborted without sending it.
func Presign(bc Blockchain, spec BenchmarkSpec, emit func(global int, at time.Duration, e Interaction) error) error {
	wl, err := newWorkload(bc, &spec)
	if err != nil || wl.deployErr != nil {
		return err
	}
	c, err := bc.CreateClient(bc.Endpoints()[:1])
	if err != nil {
		return err
	}
	for _, w := range wl.keys {
		for _, s := range wl.windows[w] {
			e, err := c.Encode(wl.interaction(s))
			if err != nil {
				continue
			}
			if err := emit(int(s.global), time.Duration(w)*batchWindow, e); err != nil {
				return err
			}
		}
	}
	return nil
}

// duration returns the longest trace duration.
func duration(traces []*workloads.Trace) time.Duration {
	var d time.Duration
	for _, tr := range traces {
		if tr.Duration() > d {
			d = tr.Duration()
		}
	}
	return d
}
