// Package chain provides the shared blockchain-node harness the six
// simulated blockchains are assembled from: a deployed network of nodes on
// the simulated WAN, a policy-driven mempool, single-execution state with
// per-node timing models, block assembly, gossip dissemination and the
// client API that DIABLO Secondaries talk to.
//
// Design decisions (see DESIGN.md §4):
//
//   - Consensus messages (proposals, votes, samples) are real simulated
//     network messages; transaction dissemination uses a logically-global
//     mempool with per-node visibility delays.
//   - Transactions execute exactly once, at block assembly, on the real VM
//     with the chain's profile; replicas' re-execution cost is modeled as
//     a validation delay derived from the block's measured gas.
//   - Forks are modeled as liveness delay rather than state divergence
//     (none of the paper's metrics depend on divergent replica state).
package chain

import (
	"fmt"
	"time"

	"diablo/internal/adversary"
	"diablo/internal/invariant"
	"diablo/internal/mempool"
	"diablo/internal/obs"
	"diablo/internal/sim"
	"diablo/internal/simnet"
	"diablo/internal/span"
	"diablo/internal/types"
	"diablo/internal/vmprofiles"
)

// Params is the per-blockchain static configuration (Table 4 plus the
// published operational constants of each chain).
type Params struct {
	// Name is the blockchain's name, e.g. "quorum".
	Name string
	// Consensus is the protocol name reported in Table 4, e.g. "IBFT".
	Consensus string
	// Guarantee is "det.", "prob." or "eventual" (Table 4 Prop. column).
	Guarantee string
	// VM and Lang are the Table 4 virtual machine and DApp language.
	VM   string
	Lang string
	// Profile is the execution profile enforcing the VM's budgets.
	Profile *vmprofiles.Profile

	// BlockGasLimit bounds the gas of one block (0 = unbounded).
	BlockGasLimit uint64
	// MaxBlockTxs bounds the transaction count of one block (0 = unbounded).
	MaxBlockTxs int
	// MinBlockInterval is the minimum period between consecutive blocks
	// (Avalanche ~1.9s, Clique's block period, Solana's 400ms slots).
	MinBlockInterval time.Duration
	// ConfirmDepth is how many descendant blocks a client waits for before
	// considering a transaction final (Solana: 30).
	ConfirmDepth int
	// Mempool is the admission policy.
	Mempool mempool.Policy
	// GasPerSecPerVCPU models execution speed; a node executes
	// GasPerSecPerVCPU x vcpus gas per second when assembling or
	// validating blocks.
	GasPerSecPerVCPU uint64
	// ProcPerTxPerVCPU is the per-transaction processing cost (signature
	// recovery, trie updates, journaling) paid by the assembling and
	// validating nodes, scaled down by the machine's vCPUs. For simple
	// transfers this, not gas, is what bounds a node's transaction rate.
	ProcPerTxPerVCPU time.Duration
	// SerialInvokePerTx is the proposer-side serial execution cost per
	// contract invocation. Runtimes that lock contract state (the AVM's
	// per-app execution, MoveVM resource access, Solana's Sealevel write
	// locks) cannot parallelize calls that write the same state, so a
	// contended DApp is limited to ~1/SerialInvokePerTx calls per second
	// regardless of hardware — the paper's Fig. 2 finding that no chain
	// but Quorum exceeds 170 TPS on the contended DApps. Native transfers
	// touch distinct accounts and parallelize freely. Zero for geth,
	// whose serial-but-fast EVM is covered by ProcPerTxPerVCPU.
	SerialInvokePerTx time.Duration
	// SubmitOverhead is extra client-side latency per submission (Solana
	// clients must fetch a recent block hash before signing).
	SubmitOverhead time.Duration
	// DefaultGasLimit is the gas limit clients attach to transactions.
	DefaultGasLimit uint64
	// VerifyPerSecPerVCPU models signature-verification capacity: every
	// node verifies the whole network's gossip, so submissions beyond
	// VerifyPerSecPerVCPU x vcpus per second overload nodes (see
	// OverloadRatio).
	VerifyPerSecPerVCPU uint64
	// OverloadCrashExcess, when positive, crashes the network once the
	// cumulative number of submissions beyond the verification capacity
	// exceeds it — the fate of unbounded "never drop" designs whose
	// verification queues grow without limit under sustained overload
	// (0 = never crash). Short bursts stay under the threshold; sustained
	// overload does not.
	OverloadCrashExcess int
	// StrictNonces makes block assembly include a sender's transactions
	// only in contiguous sequence-number order, as Diem requires; a gap
	// created by a dropped transaction stalls that sender.
	StrictNonces bool
	// DynamicBaseFee enables London (EIP-1559) fee dynamics: the base fee
	// rises when blocks run above half-full and falls otherwise, and
	// transactions priced below it wait in the pool. Ethereum and
	// Avalanche integrated London; Quorum did not (§5.2).
	DynamicBaseFee bool
	// TxTTL, when positive, invalidates pooled transactions older than
	// this: Solana requires the signed recent blockhash to be under ~120
	// seconds old when the transaction is processed (§5.2).
	TxTTL time.Duration
	// StateCommitment selects the per-block state-root structure:
	// "trie" for the Merkle Patricia-style trie geth-family chains keep,
	// "flat" for Solana's cheaper running accumulator (the paper: Solana
	// "replaces the Merkle Patricia Trie ... with a simplified data
	// structure"), or "" to skip committing roots.
	StateCommitment string
	// InitialBaseFee seeds the dynamic fee (and is its floor).
	InitialBaseFee uint64
	// MaxBaseFee caps the dynamic fee (Avalanche's fee configuration
	// bounds its gas price range; 0 = uncapped, as on Ethereum).
	MaxBaseFee uint64

	// NewEngine builds the consensus engine for a deployed network.
	NewEngine func(*Network) Engine
}

// Engine drives block production for a deployed network. Engines read the
// pool via Network.AssembleBlock, exchange their own protocol messages over
// the simulated WAN and announce per-node block arrival via DeliverBlock.
type Engine interface {
	// Start schedules the engine's initial events.
	Start()
	// Stop ceases block production (end of experiment).
	Stop()
}

// Network is one deployed blockchain: params + nodes + shared state.
type Network struct {
	Params Params
	Sched  *sim.Scheduler
	Net    *simnet.Network
	Nodes  []*Node
	Pool   *mempool.Pool
	Exec   *Executor //lint:allow snapshotdrift harness-owned executor wired at setup; the executor checkpoints nothing and reports via counters

	VCPUs  int // per node
	engine Engine

	height   uint64
	ledger   []*types.Block
	receipts map[types.Hash]*types.Receipt

	// blockIndex maps a committed block to its per-origin transaction
	// groups; freed once every node has received the block.
	blockIndex map[*types.Block]*blockGroups //lint:allow snapshotdrift pointer-keyed cache of block conflict groups; derived, rebuilt per block

	// visDelay caches region-pair transaction visibility delays.
	visDelay [][]time.Duration

	baseFee uint64

	arrivals arrivalWindow
	crashed  bool
	// CrashedAt is when the network collapsed (valid when Crashed()).
	CrashedAt time.Duration

	// DefaultRetry is the retry policy new clients start with (zero =
	// retries disabled).
	DefaultRetry RetryPolicy //lint:allow snapshotdrift run configuration set at setup, fixed during a run

	// adversary, when attached, drives scripted Byzantine behaviors
	// through the send/assembly/vote hook points; monitor, when attached,
	// referees the admit/include/commit paths. Both are nil (and free) in
	// benign runs.
	adversary *adversary.Engine  //lint:allow snapshotdrift attached component wiring; the adversary engine checkpoints its own state
	monitor   *invariant.Monitor //lint:allow snapshotdrift attached component wiring; the monitor is reporting-side
	// conflicts maps an equivocated block to the conflicting hash each
	// victim node observes at commit; freed with blockIndex.
	conflicts map[*types.Block]map[int]types.Hash //lint:allow snapshotdrift equivocation bookkeeping keyed by block pointer; process-local, not replay state

	// tracer emits lifecycle events; nil (the default) disables tracing
	// at zero cost. Obs holds the registry counters, nil-disabled the same
	// way. Both are set by Instrument. spans, when attached, records the
	// causal span tree (DESIGN.md §15); nil-disabled like the tracer.
	tracer *obs.Tracer    //lint:allow snapshotdrift observer wiring attached before a run; never checkpointed state
	Obs    Metrics        //lint:allow snapshotdrift observer wiring attached before a run; never checkpointed state
	spans  *span.Recorder //lint:allow snapshotdrift observer wiring attached before a run; never checkpointed state

	// Stats
	TotalCommittedTxs uint64
	TotalBlocks       uint64
	// TotalRetries counts client resubmissions; TotalTimeouts counts
	// transactions clients abandoned after exhausting retries.
	TotalRetries  uint64
	TotalTimeouts uint64
}

// Node is one blockchain node.
type Node struct {
	Index  int
	Sim    *simnet.Node
	net    *Network
	Height uint64 // highest block this node has seen committed

	clients []*Client

	// onMessage is the engine's protocol message handler.
	onMessage func(from int, payload any)
}

// Deployment describes where and on what hardware a network runs.
type Deployment struct {
	Nodes   int
	VCPUs   int
	Regions []simnet.Region // placement; cycled if shorter than Nodes
}

// txBatchInterval is the transaction-gossip batching period production
// nodes use; visibility delays add half of it on average.
const txBatchInterval = 100 * time.Millisecond

// Deploy builds a network of params on the given scheduler/WAN.
func Deploy(sched *sim.Scheduler, wan *simnet.Network, params Params, dep Deployment) *Network {
	if dep.Nodes <= 0 {
		panic("chain: deployment needs at least one node")
	}
	n := &Network{
		Params:     params,
		Sched:      sched,
		Net:        wan,
		VCPUs:      dep.VCPUs,
		receipts:   make(map[types.Hash]*types.Receipt),
		blockIndex: make(map[*types.Block]*blockGroups),
	}
	placement := simnet.PlaceEvenly(dep.Nodes, dep.Regions)
	for i := 0; i < dep.Nodes; i++ {
		node := &Node{Index: i, Sim: wan.AddNode(placement[i]), net: n}
		node.Sim.SetHandler(node.handle)
		n.Nodes = append(n.Nodes, node)
	}

	// Precompute transaction visibility delays between regions.
	n.visDelay = make([][]time.Duration, simnet.NumRegions)
	for a := 0; a < simnet.NumRegions; a++ {
		n.visDelay[a] = make([]time.Duration, simnet.NumRegions)
		for b := 0; b < simnet.NumRegions; b++ {
			rtt := simnet.RTT(simnet.Region(a), simnet.Region(b))
			// One relay hop on average plus batching delay.
			prop := time.Duration(rtt * 0.75 * float64(time.Millisecond))
			n.visDelay[a][b] = prop + txBatchInterval/2
		}
	}
	n.Pool = mempool.New(params.Mempool, func(origin, viewer int) time.Duration {
		if origin == viewer {
			return 0
		}
		// Gossip does not cross partitions or reach crashed relays'
		// neighborhoods; model both as (temporary) invisibility.
		if !n.Net.SameSide(n.Nodes[origin].Sim.ID, n.Nodes[viewer].Sim.ID) {
			return 1 << 40 // effectively never, while the partition holds
		}
		ra := n.Nodes[origin].Sim.Region
		rb := n.Nodes[viewer].Sim.Region
		return n.visDelay[ra][rb]
	})
	if params.DynamicBaseFee {
		n.baseFee = params.InitialBaseFee
		if n.baseFee == 0 {
			n.baseFee = 1000
		}
	}
	n.Exec = NewExecutor(params.Profile)
	n.Exec.SetCommitment(params.StateCommitment)
	n.engine = params.NewEngine(n)
	return n
}

// BaseFee returns the current London base fee (0 when the chain predates
// the London upgrade). Clients query it right before signing — the
// "online signing" the paper had to adopt for Ethereum and Avalanche.
func (n *Network) BaseFee() uint64 { return n.baseFee }

// updateBaseFee applies the EIP-1559 adjustment after a block: +12.5%
// when the block exceeded the half-full gas target, -12.5% otherwise,
// floored at the initial fee.
func (n *Network) updateBaseFee(gasUsed uint64) {
	if !n.Params.DynamicBaseFee || n.Params.BlockGasLimit == 0 {
		return
	}
	target := n.Params.BlockGasLimit / 2
	if gasUsed > target {
		n.baseFee += n.baseFee / 8
		if n.Params.MaxBaseFee > 0 && n.baseFee > n.Params.MaxBaseFee {
			n.baseFee = n.Params.MaxBaseFee
		}
	} else {
		n.baseFee -= n.baseFee / 8
	}
	floor := n.Params.InitialBaseFee
	if floor == 0 {
		floor = 1000
	}
	if n.baseFee < floor {
		n.baseFee = floor
	}
}

// Start begins block production.
func (n *Network) Start() { n.engine.Start() }

// Stop halts block production.
func (n *Network) Stop() { n.engine.Stop() }

// Engine exposes the consensus engine (for tests).
func (n *Network) Engine() Engine { return n.engine }

// Height returns the committed chain height.
func (n *Network) Height() uint64 { return n.height }

// Ledger returns the committed blocks in order.
func (n *Network) Ledger() []*types.Block { return n.ledger }

// Receipt returns the execution receipt of a committed transaction.
func (n *Network) Receipt(id types.Hash) (*types.Receipt, bool) {
	r, ok := n.receipts[id]
	return r, ok
}

// handle dispatches an incoming simnet message on a node.
func (nd *Node) handle(msg simnet.Message) {
	switch p := msg.Payload.(type) {
	case *gossipMsg:
		nd.net.receiveGossip(nd, p)
	case *adversary.Corrupted:
		// The receiver's validation (signature check, frame decode)
		// detects the damage; the message consumed bandwidth but is
		// dropped here, never reaching the engine.
		if nd.net.adversary != nil {
			nd.net.adversary.NoteDiscarded()
		}
	default:
		if nd.onMessage != nil {
			nd.onMessage(int(msg.From), msg.Payload)
		}
	}
}

// SetMessageHandler installs the engine's protocol handler on a node.
func (nd *Node) SetMessageHandler(h func(from int, payload any)) { nd.onMessage = h }

// Send sends an engine message from this node to another node's engine
// handler. With an adversary attached this is also the Replay and
// CorruptPayload hook point: a replaying node re-delivers its previous
// message ahead of the new one, and a corrupting node's payload is
// wrapped so the receiver's validation discards it.
func (nd *Node) Send(to int, size int, payload any) {
	n := nd.net
	if adv := n.adversary; adv != nil {
		if stale, staleSize, ok := adv.ReplayOutbound(nd.Index); ok {
			nd.Sim.Send(n.Nodes[to].Sim.ID, staleSize, stale)
		}
		adv.RecordOutbound(nd.Index, size, payload)
		if adv.CorruptOutbound(nd.Index) {
			payload = &adversary.Corrupted{Orig: payload}
		}
	}
	nd.Sim.Send(n.Nodes[to].Sim.ID, size, payload)
}

// Broadcast sends an engine message from this node to every other node, in
// index order. It is Send per recipient, so the adversary hooks act on each
// copy, inside one scheduler group, so the deliveries take one queue entry
// (see sim.Scheduler.BeginGroup). This is the engines' one all-to-all send.
func (nd *Node) Broadcast(size int, payload any) {
	sched := nd.net.Sched
	sched.BeginGroup()
	for to := range nd.net.Nodes {
		if to != nd.Index {
			nd.Send(to, size, payload)
		}
	}
	sched.EndGroup()
}

// SetSpans attaches a causal span recorder. Engines and clients reach it
// through the nil-safe helpers below, so a network without spans pays
// nothing. The mempool's admission hook is wired here so every admitted
// transaction gets its "mempool.admit" anchor span.
func (n *Network) SetSpans(r *span.Recorder) {
	n.spans = r
	n.Exec.spans = r
	if r != nil {
		n.Pool.SetAdmitHook(func(tx *types.Transaction, origin int, now time.Duration) {
			r.PointTx(now, span.LabelAdmit, int32(origin), tx.ID())
		})
	}
}

// Spans returns the attached span recorder (nil when disabled); every
// recorder method is safe on nil, so callers use it unconditionally.
func (n *Network) Spans() *span.Recorder { return n.spans }

// RoundBegin opens a consensus-round interval span led by leader at the
// given view/height. Returns the span id for RoundPhase/RoundEnd; 0 when
// spans are disabled.
func (n *Network) RoundBegin(view uint64, leader int) uint64 {
	if n.spans == nil {
		return 0
	}
	return n.spans.Begin(n.Sched.Now(), "consensus.round", int32(leader), view)
}

// RoundPhase marks a protocol phase ("propose", "vote", "commit") inside
// an open round span.
func (n *Network) RoundPhase(id uint64, phase string, node int) {
	if n.spans == nil || id == 0 {
		return
	}
	n.spans.Annotate(id, n.Sched.Now(), "consensus."+phase, int32(node))
}

// RoundEnd closes a round span opened by RoundBegin.
func (n *Network) RoundEnd(id uint64) {
	if n.spans == nil || id == 0 {
		return
	}
	n.spans.End(id, n.Sched.Now())
}

// ExecTime converts gas into execution wall time on this network's
// hardware.
func (n *Network) ExecTime(gas uint64) time.Duration {
	speed := n.Params.GasPerSecPerVCPU * uint64(n.VCPUs)
	if speed == 0 {
		return 0
	}
	return time.Duration(float64(gas) / float64(speed) * float64(time.Second)) //lint:allow float div-then-mul chain has no x*y±z contraction shape; single-rounded IEEE ops are bit-exact on every GOARCH
}

// BlockExecTime models the CPU time one node spends processing a block:
// gas execution plus the per-transaction overhead.
func (n *Network) BlockExecTime(gas uint64, ntxs int) time.Duration {
	t := n.ExecTime(gas)
	if n.Params.ProcPerTxPerVCPU > 0 && n.VCPUs > 0 {
		t += time.Duration(ntxs) * n.Params.ProcPerTxPerVCPU / time.Duration(n.VCPUs)
	}
	return t
}

// SubmitTx is the node-side RPC: the transaction enters this node's pool
// (and, via visibility delays, the rest of the network). The error reports
// policy rejection, which DIABLO counts as a dropped transaction, or a
// transient node fault (ErrNodeDown, ErrNodeCrashed) that a client retry
// policy may resubmit after. Resubmitting an already-committed transaction
// reports ErrDuplicate rather than executing it twice.
func (nd *Node) SubmitTx(tx *types.Transaction) error {
	n := nd.net
	if n.crashed {
		n.tracer.Reject(n.Sched.Now(), tx.ID(), nd.Index, "network-down")
		return ErrNodeDown
	}
	if nd.Sim.Crashed() {
		n.tracer.Reject(n.Sched.Now(), tx.ID(), nd.Index, "node-crashed")
		return ErrNodeCrashed
	}
	if _, done := n.receipts[tx.ID()]; done {
		return mempool.ErrDuplicate
	}
	n.recordArrival()
	if n.crashed { // recordArrival may have tripped the collapse
		n.tracer.Reject(n.Sched.Now(), tx.ID(), nd.Index, "network-down")
		return ErrNodeDown
	}
	// The pool entry records the origin node; block assembly reads it back
	// from the take, so the network keeps no per-transaction index.
	err := n.Pool.Add(tx, nd.Index, n.Sched.Now())
	if err == nil {
		n.monitor.OnAdmit(tx.ID(), nd.Index, n.Sched.Now())
		n.Obs.Admitted.Inc()
		n.tracer.Admit(n.Sched.Now(), tx.ID(), nd.Index)
	} else {
		n.Obs.Rejected.Inc()
		n.tracer.Reject(n.Sched.Now(), tx.ID(), nd.Index, rejectNote(err))
	}
	return err
}

// blockGroups indexes one block's transactions by origin node.
type blockGroups struct {
	byOrigin   [][]decidedTx // indexed by node; nil for an empty block
	deliveries int
}

// Cost reports the CPU time a block costs its proposer (assembly: serial
// contract execution plus parallel processing) and each validator
// (re-validation against the proposer's results).
type Cost struct {
	Assemble time.Duration
	Validate time.Duration
}

// AssembleBlock builds (and executes) the next block as seen by proposer
// at the current virtual time. Returns nil when no transactions are
// available and allowEmpty is false. The returned cost models the
// proposer's and validators' CPU time for this block.
func (n *Network) AssembleBlock(proposer int, allowEmpty bool) (*types.Block, Cost) {
	return n.AssembleBlockBudgeted(proposer, allowEmpty, n.Params.MaxBlockTxs, 0)
}

// AssembleBlockBudgeted additionally bounds the proposer's serial
// execution time (slot-driven chains can only pack what executes within
// the slot).
func (n *Network) AssembleBlockBudgeted(proposer int, allowEmpty bool, maxTxs int, serialBudget time.Duration) (*types.Block, Cost) {
	now := n.Sched.Now()
	spec := mempool.TakeSpec{
		Viewer: proposer,
		Now:    now,
		MaxTxs: maxTxs,
		MaxGas: n.Params.BlockGasLimit,
		GasOf: func(tx *types.Transaction) uint64 {
			return n.Exec.GasCeiling(tx, n.Params)
		},
	}
	if serialBudget > 0 && n.Params.SerialInvokePerTx > 0 {
		spec.MaxCost = serialBudget
		spec.CostOf = func(tx *types.Transaction) time.Duration {
			if tx.Kind == types.KindInvoke {
				return n.Params.SerialInvokePerTx
			}
			return 0
		}
	}
	if n.Params.StrictNonces {
		spec.NextNonce = n.Exec.NextNonce
	}
	if n.adversary != nil {
		if lo, hi, censoring := n.adversary.Censoring(proposer); censoring {
			spec.Skip = func(_ *types.Transaction, origin int) bool {
				if origin >= lo && origin <= hi {
					n.adversary.NoteCensored()
					return true
				}
				return false
			}
		}
	}
	if n.Params.DynamicBaseFee {
		spec.MinGasPrice = n.baseFee
	}
	spec.MaxAge = n.Params.TxTTL
	var origins []int32
	spec.Origins = &origins
	txs := n.Pool.TakeWith(spec)
	if len(txs) == 0 && !allowEmpty {
		return nil, Cost{}
	}
	var parent types.Hash
	if len(n.ledger) > 0 {
		parent = n.ledger[len(n.ledger)-1].Hash()
	}
	blk := &types.Block{
		Number:    n.height + 1,
		Parent:    parent,
		Proposer:  nodeAddress(proposer),
		Timestamp: now,
		Txs:       txs,
	}
	var gasUsed uint64
	invokes := 0
	groups := &blockGroups{}
	if len(txs) > 0 {
		groups.byOrigin = make([][]decidedTx, len(n.Nodes))
	}
	// ApplyBlock executes serially or on the parallel worker pool
	// (Exec.Workers, DESIGN.md §14); receipts are identical either way.
	specBefore, fbBefore, hzBefore := n.Exec.SpecCommitted, n.Exec.Fallbacks, n.Exec.HazardEdges
	n.spans.FrameEnter("exec.apply")
	receipts := n.Exec.ApplyBlock(txs, blk, n.Params)
	n.spans.FrameExit()
	for i, tx := range txs {
		id := tx.ID()
		if tx.Kind == types.KindInvoke {
			invokes++
		}
		n.monitor.OnInclude(id, blk.Number, now)
		n.spans.PointTx(now, "chain.include", int32(proposer), id)
		r := receipts[i]
		n.receipts[id] = r
		gasUsed += r.GasUsed
		groups.byOrigin[origins[i]] = append(groups.byOrigin[origins[i]], decidedTx{id: id, status: r.Status})
	}
	blk.GasUsed = gasUsed
	blk.StateRoot = n.Exec.StateRoot()
	n.updateBaseFee(gasUsed)
	n.blockIndex[blk] = groups
	// The block is part of the canonical chain from assembly on: engines
	// commit every assembled block (possibly late). Height advances now so
	// the next assembly chains onto it.
	n.height++
	n.ledger = append(n.ledger, blk)
	n.TotalBlocks++
	n.TotalCommittedTxs += uint64(len(txs))
	validate := n.BlockExecTime(gasUsed, len(txs))
	assemble := validate + time.Duration(invokes)*n.Params.SerialInvokePerTx
	n.spans.PointBlock(now, span.LabelBlock, int32(proposer), blk.Number)
	n.Obs.Blocks.Inc()
	n.Obs.Included.Add(uint64(len(txs)))
	if n.Obs.BlockFill != nil || n.tracer != nil {
		fill := blockFill(len(txs), gasUsed, n.Params.BlockGasLimit, maxTxs)
		n.Obs.BlockFill.Observe(fill)
		n.Obs.BlockGas.Observe(float64(gasUsed))
		if n.tracer != nil {
			n.tracer.Block(now, blk.Number, len(txs), gasUsed, n.Params.BlockGasLimit, fill, assemble, validate, proposer)
			for _, tx := range txs {
				n.tracer.Include(now, tx.ID(), blk.Number)
			}
			if n.Exec.Workers > 1 {
				n.tracer.Pexec(now, blk.Number, n.Exec.SpecCommitted-specBefore,
					n.Exec.Fallbacks-fbBefore, n.Exec.HazardEdges-hzBefore)
			}
		}
	}
	return blk, Cost{Assemble: assemble, Validate: validate}
}

// DeliverBlock announces at the current virtual time that node idx has
// learned block blk is committed. Client subscriptions fire here.
func (n *Network) DeliverBlock(idx int, blk *types.Block) {
	nd := n.Nodes[idx]
	if blk.Number > nd.Height {
		nd.Height = blk.Number
	}
	groups := n.blockIndex[blk]
	var mine []decidedTx
	if groups != nil && groups.byOrigin != nil {
		mine = groups.byOrigin[idx]
	}
	for _, c := range nd.clients {
		c.onBlock(blk, mine)
	}
	if n.monitor != nil {
		h := blk.Hash()
		if split := n.conflicts[blk]; split != nil {
			if ch, victim := split[idx]; victim {
				h = ch
			}
		}
		n.monitor.OnCommit(idx, blk.Number, h, n.Sched.Now())
	}
	if groups != nil {
		groups.deliveries++
		if groups.deliveries >= len(n.Nodes) {
			delete(n.blockIndex, blk)
			delete(n.conflicts, blk)
		}
	}
}

// DeliverToAll announces commitment of blk to every node immediately
// (used by tests and simple engines where dissemination was already
// modeled).
func (n *Network) DeliverToAll(blk *types.Block) {
	for i := range n.Nodes {
		n.DeliverBlock(i, blk)
	}
}

// String describes the network.
func (n *Network) String() string {
	return fmt.Sprintf("%s[%d nodes, %d vCPUs]", n.Params.Name, len(n.Nodes), n.VCPUs)
}
