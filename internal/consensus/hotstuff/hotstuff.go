// Package hotstuff implements the leader-based HotStuff consensus protocol
// used by Diem (LibraBFT): rotating leaders propose blocks, validators send
// their votes to the next leader (linear communication), and a block
// commits once it heads a three-chain of quorum certificates. Commit
// notification piggybacks on later proposals, so each node learns commits
// as proposals reach it. The protocol delivers very low latency on
// low-RTT networks and degrades on high-RTT ones — the paper's Diem
// finding (§6.2).
package hotstuff

import (
	"time"

	"diablo/internal/adversary"
	"diablo/internal/chains/chain"
	"diablo/internal/sim"
	"diablo/internal/types"
)

const voteSize = 160

// commitDepth is the three-chain rule: the block at view v-commitDepth
// commits when the proposal for view v is seen.
const commitDepth = 2

// retryIdle is the pacemaker's idle re-check interval.
const retryIdle = 100 * time.Millisecond

// viewTimeoutBase bounds how long a view may take before the pacemaker
// re-enters it. Diem's pacemaker is tuned for low-RTT networks; over a
// WAN, views regularly exceed the base timeout and pay retransmission
// rounds, which is why the paper finds Diem performs well "only on
// configurations with a local setup" (§6.2). The timeout doubles per
// retry within a view and resets when the view advances.
const viewTimeoutBase = time.Second

const viewTimeoutMax = 30 * time.Second

type proposal struct {
	view uint64
}

type voteMsg struct {
	view uint64
}

// Engine is the HotStuff pacemaker plus vote plumbing for the deployment.
type Engine struct {
	net     *chain.Network
	stopped bool

	view   uint64
	blocks map[uint64]*types.Block // view -> proposed block
	costs  map[uint64]chain.Cost   //lint:allow snapshotdrift per-view cost of in-flight proposals; transient round state carried by pending events, covered by the queue digest
	// lastNonEmpty is the most recent view that proposed transactions;
	// the pacemaker keeps proposing (empty) blocks until it is committed.
	lastNonEmpty uint64
	anyProposed  bool
	votes        int
	voted        []bool
	timeoutEv    sim.EventID
	curTimeout   time.Duration
	roundSpan    uint64 //lint:allow snapshotdrift open consensus-round span id; observer wiring, not replay state

	// Views counts started views.
	Views uint64
}

// New builds the engine.
func New(n *chain.Network) chain.Engine {
	e := &Engine{
		net:    n,
		blocks: make(map[uint64]*types.Block),
		costs:  make(map[uint64]chain.Cost),
		voted:  make([]bool, len(n.Nodes)),
	}
	n.HandleMessages(e.onMessage)
	return e
}

func (e *Engine) leaderOf(view uint64) int { return int(view) % len(e.net.Nodes) }

// collectorOf is the node that gathers view v's votes: the next view's
// leader, falling through to the next live node when it is down (a down
// collector would otherwise time the view out forever).
func (e *Engine) collectorOf(view uint64) int { return e.net.NextLive(e.leaderOf(view + 1)) }

// Start begins view 0.
func (e *Engine) Start() { e.net.Sched.AfterKind(sim.KindConsensus, 0, e.propose) }

// Stop halts the engine.
func (e *Engine) Stop() {
	e.stopped = true
	e.timeoutEv.Cancel()
}

// propose starts the current view: the leader assembles a block (an empty
// one if needed to flush earlier blocks through the three-chain) and
// disseminates it.
func (e *Engine) propose() {
	if e.stopped {
		return
	}
	// A down leader's view is skipped by proposing from the next live
	// validator (the pacemaker's timeout certificate path, folded in).
	leader := e.net.NextLive(e.leaderOf(e.view))
	// Keep the chain moving while uncommitted blocks exist; otherwise wait
	// for transactions.
	allowEmpty := e.hasUncommitted()
	blk, cost := e.net.AssembleBlock(leader, allowEmpty)
	if blk == nil {
		e.net.Sched.AfterKind(sim.KindConsensus, retryIdle, e.propose)
		return
	}
	e.Views++
	view := e.view
	e.blocks[view] = blk
	e.costs[view] = cost
	e.roundSpan = e.net.RoundBegin(view, leader)
	e.net.MaybeEquivocate(leader, blk, e.net.Quorum())
	e.anyProposed = true
	if len(blk.Txs) > 0 {
		e.lastNonEmpty = view
	}
	e.votes = 0
	for i := range e.voted {
		e.voted[i] = false
	}
	r := e.net.OverloadRatio()
	e.curTimeout = viewTimeoutBase
	e.timeoutEv.Cancel()
	e.timeoutEv = e.net.Sched.AfterKind(sim.KindConsensus, e.curTimeout, e.onTimeout)
	e.net.Sched.AfterKind(sim.KindConsensus, chain.Scale(cost.Assemble, r), func() {
		if e.stopped || e.view != view {
			return
		}
		e.net.RoundPhase(e.roundSpan, "propose", leader)
		e.net.Gossip(leader, blk.Size()+64, chain.DefaultFanout, func(idx int, _ time.Duration) {
			e.onProposal(idx, proposal{view: view})
		})
	})
}

// hasUncommitted reports whether a transaction-carrying proposal still
// awaits its three-chain commit (the pacemaker then proposes empty blocks
// to flush it through).
func (e *Engine) hasUncommitted() bool {
	return e.anyProposed && e.lastNonEmpty+commitDepth >= e.view
}

// onProposal handles a proposal arriving at node idx: commit the block
// commitDepth views back (three-chain), validate, and vote to the next
// leader.
func (e *Engine) onProposal(idx int, p proposal) {
	if e.stopped {
		return
	}
	// Piggybacked commit: the proposal for view v carries the QC chain
	// committing view v-commitDepth.
	if p.view >= commitDepth {
		if old, ok := e.blocks[p.view-commitDepth]; ok {
			e.net.DeliverBlock(idx, old)
			e.maybeRelease(p.view - commitDepth)
		}
	}
	if p.view != e.view || e.voted[idx] {
		return
	}
	e.voted[idx] = true
	validation := chain.Scale(e.costs[p.view].Validate, e.net.OverloadRatio())
	next := e.collectorOf(p.view)
	view := p.view
	e.net.Sched.AfterKind(sim.KindConsensus, validation, func() {
		if e.stopped || e.view != view {
			return
		}
		if e.net.VoteWithheld(idx) {
			return
		}
		if idx == next {
			e.onVote(next, voteMsg{view: view})
		} else {
			e.net.Nodes[idx].Send(next, voteSize, voteMsg{view: view})
		}
	})
}

func (e *Engine) maybeRelease(view uint64) {
	// Retain a window of commitDepth+2 views; older blocks were delivered
	// to all reachable nodes by later proposals.
	const window = commitDepth + 8
	if view > window {
		delete(e.blocks, view-window)
		delete(e.costs, view-window)
	}
}

func (e *Engine) onMessage(at, from int, payload any) {
	if v, ok := payload.(voteMsg); ok {
		e.onVote(at, v)
	}
}

// onVote counts votes at the next leader; a quorum certificate advances
// the pacemaker into the next view.
func (e *Engine) onVote(at int, v voteMsg) {
	if e.stopped || v.view != e.view || at != e.collectorOf(v.view) {
		return
	}
	e.votes++
	if e.votes >= e.net.Quorum() {
		e.timeoutEv.Cancel()
		e.net.RoundPhase(e.roundSpan, "vote", at)
		e.net.RoundEnd(e.roundSpan)
		e.roundSpan = 0
		e.view++
		wait := e.net.Params.MinBlockInterval
		e.net.Sched.AfterKind(sim.KindConsensus, wait, e.propose)
	}
}

// onTimeout re-enters the view (in real HotStuff a timeout certificate
// advances the view; with no equivocating leaders re-proposing is
// equivalent here).
func (e *Engine) onTimeout() {
	if e.stopped {
		return
	}
	view := e.view
	if blk, ok := e.blocks[view]; ok && blk != nil {
		// Re-disseminate the same proposal with a doubled timeout. If the
		// view's leader is down, a live validator relays the proposal (it
		// is certified by the timeout certificate in real HotStuff).
		e.votes = 0
		for i := range e.voted {
			e.voted[i] = false
		}
		leader := e.net.NextLive(e.leaderOf(view))
		if e.curTimeout < viewTimeoutMax {
			e.curTimeout *= 2
		}
		e.timeoutEv = e.net.Sched.AfterKind(sim.KindConsensus, e.curTimeout, e.onTimeout)
		e.net.Gossip(leader, blk.Size()+64, chain.DefaultFanout, func(idx int, _ time.Duration) {
			e.onProposal(idx, proposal{view: view})
		})
	}
}

// ConsensusStats exposes view counters to the metrics registry.
func (e *Engine) ConsensusStats() (uint64, uint64) { return e.Views, 0 }

// ByzantineBehaviors implements chain.ByzantineSupport: the leader-based
// three-chain protocol exposes every hook point.
func (e *Engine) ByzantineBehaviors() []adversary.Kind {
	return []adversary.Kind{
		adversary.Equivocate, adversary.WithholdVotes, adversary.CorruptPayload,
		adversary.Censor, adversary.Replay,
	}
}
