// Package ibft implements the Istanbul Byzantine Fault Tolerant consensus
// protocol used by Quorum: a three-phase (pre-prepare, prepare, commit)
// leader-based protocol with all-to-all voting, immediate finality and no
// artificial block delay. Its O(n²) vote traffic and its design choice to
// never drop a client request are exactly the properties the paper probes:
// excellent availability under bursts (§6.5), collapse under sustained
// overload (§6.3).
package ibft

import (
	"time"

	"diablo/internal/adversary"
	"diablo/internal/chains/chain"
	"diablo/internal/sim"
)

// voteSize is the wire size of a prepare/commit vote.
const voteSize = 160

// baseTimeout is the initial round timeout before a round change; it
// doubles per failed round (bounded), as in IBFT's round-change backoff.
const baseTimeout = 10 * time.Second

const maxTimeout = 160 * time.Second

// retryIdle is how often the leader re-checks an empty pool.
const retryIdle = 250 * time.Millisecond

type vote struct {
	seq   uint64
	round int
	phase int // 0 = prepare, 1 = commit
}

// seqState is the agreement state for one block height. It outlives the
// sequence's completion so that laggard nodes still reach commit and
// deliver the block to their clients.
type seqState struct {
	chain.Round
	round int

	prepared     []bool
	committedOut []bool
	prepareCount []int
	commitCount  []int
}

// Engine is the IBFT state machine for the whole deployed network. One
// engine object orchestrates per-node state; every protocol message is a
// real simulated network message.
type Engine struct {
	net     *chain.Network
	stopped bool

	seq       uint64 // sequence currently being agreed on
	states    map[uint64]*seqState
	timeout   time.Duration
	timeoutEv sim.EventID

	// Rounds counts proposer rounds; RoundChanges counts timeouts.
	Rounds       uint64
	RoundChanges uint64
}

// New builds the engine.
func New(n *chain.Network) chain.Engine {
	e := &Engine{net: n, timeout: baseTimeout, states: make(map[uint64]*seqState)}
	n.HandleMessages(e.onMessage)
	return e
}

// Start begins the first sequence.
func (e *Engine) Start() { e.net.Sched.AfterKind(sim.KindConsensus, 0, e.propose) }

// Stop halts the engine.
func (e *Engine) Stop() {
	e.stopped = true
	e.timeoutEv.Cancel()
}

// newState opens fresh vote state for a proposer round of r's block.
func (e *Engine) newState(r chain.Round) *seqState {
	size := len(e.net.Nodes)
	return &seqState{
		Round:        r,
		prepared:     make([]bool, size),
		committedOut: make([]bool, size),
		prepareCount: make([]int, size),
		commitCount:  make([]int, size),
	}
}

// propose starts (or, after a round change, restarts) agreement on the
// next block.
func (e *Engine) propose() {
	if e.stopped {
		return
	}
	st := e.states[e.seq]
	if st == nil {
		leader := int(e.seq) % len(e.net.Nodes)
		blk, cost := e.net.AssembleBlock(leader, false)
		if blk == nil {
			e.net.Sched.AfterKind(sim.KindConsensus, retryIdle, e.propose)
			return
		}
		st = e.newState(e.net.NewRound(blk, cost))
		e.seq = blk.Number
		e.states[e.seq] = st
		e.net.MaybeEquivocate(leader, blk, e.net.Quorum())
	} else {
		// Round change: reset the vote state for the retry; the delivery
		// record carries over.
		nd := e.newState(st.Round)
		nd.round = st.round
		e.states[e.seq] = nd
		st = nd
	}
	e.Rounds++
	seq, round := e.seq, st.round
	leader := int(seq+uint64(round)) % len(e.net.Nodes)
	st.Begin(e.net, seq, leader) // closes the failed round's span
	blk := st.Block
	r := e.net.OverloadRatio()
	e.timeoutEv.Cancel()
	e.timeoutEv = e.net.Sched.AfterKind(sim.KindConsensus, e.timeout, e.onTimeout)
	// Leader executes the block before disseminating, then gossips the
	// pre-prepare carrying the full block body.
	e.net.Sched.AfterKind(sim.KindConsensus, chain.Scale(st.Cost.Assemble, r), func() {
		if e.stopped {
			return
		}
		e.net.RoundPhase(st.Span, "propose", leader)
		e.net.Gossip(leader, blk.Size()+64, chain.DefaultFanout, func(idx int, _ time.Duration) {
			e.onPrePrepare(idx, seq, round)
		})
	})
}

// onPrePrepare runs at a node that received the proposal: validate
// (re-execute) then broadcast a prepare vote.
func (e *Engine) onPrePrepare(idx int, seq uint64, round int) {
	st := e.states[seq]
	if e.stopped || st == nil || round != st.round || st.prepared[idx] {
		return
	}
	st.prepared[idx] = true
	validation := chain.Scale(st.Cost.Validate, e.net.OverloadRatio())
	e.net.Sched.AfterKind(sim.KindConsensus, validation, func() {
		if e.stopped {
			return
		}
		e.broadcastVote(idx, vote{seq: seq, round: round, phase: 0})
	})
}

// broadcastVote sends a vote from node idx to every node (including a
// local self-delivery, as real implementations count their own vote).
func (e *Engine) broadcastVote(idx int, v vote) {
	if e.net.VoteWithheld(idx) {
		return
	}
	e.onVote(idx, v)
	e.net.Nodes[idx].Broadcast(voteSize, v)
}

func (e *Engine) onMessage(at, _ int, payload any) {
	if v, ok := payload.(vote); ok {
		e.onVote(at, v)
	}
}

// onVote counts a phase vote at a node and advances it through the
// prepare -> commit -> delivered pipeline. Votes for completed sequences
// still drive laggard nodes to local commit.
func (e *Engine) onVote(at int, v vote) {
	st := e.states[v.seq]
	if e.stopped || st == nil || v.round != st.round {
		return
	}
	switch v.phase {
	case 0:
		st.prepareCount[at]++
		if st.prepareCount[at] >= e.net.Quorum() && !st.committedOut[at] {
			st.committedOut[at] = true
			st.Phase(e.net, "prepare", at)
			e.broadcastVote(at, vote{seq: v.seq, round: v.round, phase: 1})
		}
	case 1:
		st.commitCount[at]++
		if st.commitCount[at] >= e.net.Quorum() && !st.Delivered(at) {
			if st.Deliver(e.net, at) {
				delete(e.states, v.seq)
			}
			leader := int(v.seq+uint64(v.round)) % len(e.net.Nodes)
			if at == leader && v.seq == e.seq {
				e.advance()
			}
		}
	}
}

// advance finishes the current sequence and schedules the next proposal.
func (e *Engine) advance() {
	e.timeoutEv.Cancel()
	e.seq++
	e.timeout = baseTimeout
	e.net.Sched.AfterKind(sim.KindConsensus, e.net.Params.MinBlockInterval, e.propose)
}

// onTimeout is the round-change path: a new leader re-proposes the same
// block with a doubled timeout.
func (e *Engine) onTimeout() {
	if e.stopped {
		return
	}
	st := e.states[e.seq]
	if st == nil {
		return
	}
	e.RoundChanges++
	st.round++
	if e.timeout < maxTimeout {
		e.timeout *= 2
	}
	e.propose()
}

// ConsensusStats exposes round counters to the metrics registry.
func (e *Engine) ConsensusStats() (uint64, uint64) { return e.Rounds, e.RoundChanges }

// ByzantineBehaviors implements chain.ByzantineSupport: the leader-based
// three-phase protocol exposes every hook point.
func (e *Engine) ByzantineBehaviors() []adversary.Kind {
	return []adversary.Kind{
		adversary.Equivocate, adversary.WithholdVotes, adversary.CorruptPayload,
		adversary.Censor, adversary.Replay,
	}
}
