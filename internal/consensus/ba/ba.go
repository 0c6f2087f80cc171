// Package ba implements Algorand's Byzantine Agreement (BA*) round
// structure: cryptographic sortition selects a block proposer and two
// successive vote committees per round; the proposal and the committee
// votes spread by gossip, and a round finishes when a node sees a
// certifying quorum of the final committee's votes. Sortition means the
// protocol's message complexity stays bounded as the network grows, and
// the chain does not fork (transactions are final in one block) — the
// properties behind Algorand's Table 4 row.
package ba

import (
	"time"

	"diablo/internal/adversary"
	"diablo/internal/chains/chain"
	"diablo/internal/sim"
)

const voteSize = 120

// committeeSize is the expected sortition committee per vote step
// (Algorand's soft-vote committee is ~2990 of millions; we scale to the
// deployment sizes of Table 3, keeping the constant-committee property).
const committeeSize = 40

// threshold is the fraction of committee votes required.
const thresholdNum, thresholdDen = 2, 3

// retryIdle is the proposer's idle re-check interval.
const retryIdle = 250 * time.Millisecond

// processing models per-step vote processing time.
const processing = 50 * time.Millisecond

type softVote struct {
	round uint64
}

type certVote struct {
	round uint64
}

// roundState is one round's voting state; it lives until every node has
// delivered so that laggards finish after the protocol advances.
type roundState struct {
	chain.Round
	// soft and cert are the round's soft-vote and cert-vote committees,
	// drawn once when the round opens.
	soft, cert []bool
	blockSeen  []bool
	softSent   []bool
	certSent   []bool
	softCount  []int
	certCount  []int
}

// Engine runs BA* rounds for the deployment.
type Engine struct {
	net     *chain.Network
	stopped bool

	round  uint64
	rounds map[uint64]*roundState

	// Rounds counts completed rounds.
	Rounds uint64
}

// New builds the engine.
func New(n *chain.Network) chain.Engine {
	e := &Engine{net: n, rounds: make(map[uint64]*roundState)}
	n.HandleMessages(func(at, _ int, payload any) { e.deliverVote(at, payload) })
	return e
}

// Start begins round 0.
func (e *Engine) Start() { e.net.Sched.AfterKind(sim.KindConsensus, 0, e.propose) }

// Stop halts the engine.
func (e *Engine) Stop() { e.stopped = true }

// committee deterministically samples the committee for (round, step) —
// the sortition abstraction — as membership indexed by node.
func (e *Engine) committee(round uint64, step int) []bool {
	n := len(e.net.Nodes)
	size := min(committeeSize, n)
	out := make([]bool, n)
	// Deterministic LCG seeded by (round, step) so every node agrees on
	// the committee without communication, like VRF sortition.
	x := round*2654435761 + uint64(step)*40503 + 12345
	for members := 0; members < size; {
		x = x*6364136223846793005 + 1442695040888963407
		if i := int(x % uint64(n)); !out[i] {
			out[i] = true
			members++
		}
	}
	return out
}

func (e *Engine) proposerOf(round uint64) int {
	x := round*11400714819323198485 + 104729
	x ^= x >> 33
	// Sortition falls through to the next candidate when the winner is
	// down (in Algorand several candidates win sortition; the highest
	// priority online one proposes).
	return e.net.NextLive(int(x % uint64(len(e.net.Nodes))))
}

func (e *Engine) threshold() int {
	size := committeeSize
	if size > len(e.net.Nodes) {
		size = len(e.net.Nodes)
	}
	return size*thresholdNum/thresholdDen + 1
}

// propose runs one BA* round from sortition to certification.
func (e *Engine) propose() {
	if e.stopped {
		return
	}
	proposer := e.proposerOf(e.round)
	blk, cost := e.net.AssembleBlock(proposer, false)
	if blk == nil {
		e.net.Sched.AfterKind(sim.KindConsensus, retryIdle, e.propose)
		return
	}
	e.net.MaybeEquivocate(proposer, blk, e.threshold())
	round := e.round
	size := len(e.net.Nodes)
	st := &roundState{
		Round:     e.net.NewRound(blk, cost),
		soft:      e.committee(round, 0),
		cert:      e.committee(round, 1),
		blockSeen: make([]bool, size),
		softSent:  make([]bool, size),
		certSent:  make([]bool, size),
		softCount: make([]int, size),
		certCount: make([]int, size),
	}
	st.Begin(e.net, round, proposer)
	e.rounds[round] = st
	r := e.net.OverloadRatio()
	e.net.Sched.AfterKind(sim.KindConsensus, chain.Scale(cost.Assemble, r), func() {
		if e.stopped {
			return
		}
		e.net.RoundPhase(st.Span, "propose", proposer)
		e.net.Gossip(proposer, blk.Size()+64, chain.DefaultFanout, func(idx int, _ time.Duration) {
			e.onBlock(idx, round)
		})
	})
}

// onBlock: a node received the round's proposal; soft-vote committee
// members announce their vote to the network.
func (e *Engine) onBlock(idx int, round uint64) {
	st := e.rounds[round]
	if e.stopped || st == nil || st.blockSeen[idx] {
		return
	}
	st.blockSeen[idx] = true
	validation := chain.Scale(st.Cost.Validate, e.net.OverloadRatio())
	if st.soft[idx] && !st.softSent[idx] {
		st.softSent[idx] = true
		e.net.Sched.AfterKind(sim.KindConsensus, validation+processing, func() {
			if e.stopped || e.net.VoteWithheld(idx) {
				return
			}
			e.broadcast(idx, softVote{round: round})
		})
	}
}

// broadcast spreads a committee vote to every node by gossip (votes are
// tiny; the tree keeps per-node fan-in bounded).
func (e *Engine) broadcast(from int, payload any) {
	e.net.Gossip(from, voteSize, chain.DefaultFanout, func(idx int, _ time.Duration) {
		if e.stopped {
			return
		}
		e.deliverVote(idx, payload)
	})
}

func (e *Engine) deliverVote(idx int, payload any) {
	switch v := payload.(type) {
	case softVote:
		st := e.rounds[v.round]
		if st == nil {
			return
		}
		st.softCount[idx]++
		// Cert-vote committee members move to the certifying step once
		// the soft threshold is reached at them.
		if st.softCount[idx] >= e.threshold() && st.cert[idx] && !st.certSent[idx] {
			st.certSent[idx] = true
			st.Phase(e.net, "vote", idx)
			round := v.round
			e.net.Sched.AfterKind(sim.KindConsensus, processing, func() {
				if e.stopped || e.net.VoteWithheld(idx) {
					return
				}
				e.broadcast(idx, certVote{round: round})
			})
		}
	case certVote:
		st := e.rounds[v.round]
		if st == nil {
			return
		}
		st.certCount[idx]++
		if st.certCount[idx] >= e.threshold() && !st.Delivered(idx) {
			if st.Deliver(e.net, idx) {
				delete(e.rounds, v.round)
			}
			if idx == e.proposerOf(v.round) && v.round == e.round {
				e.advance()
			}
		}
	}
}

func (e *Engine) advance() {
	e.Rounds++
	e.round++
	wait := e.net.Params.MinBlockInterval
	e.net.Sched.AfterKind(sim.KindConsensus, wait, e.propose)
}

// ConsensusStats exposes round counters to the metrics registry.
func (e *Engine) ConsensusStats() (uint64, uint64) { return e.Rounds, 0 }

// ByzantineBehaviors implements chain.ByzantineSupport. Committee votes
// spread by gossip rather than point-to-point sends, so CorruptPayload
// and Replay (which hook the engine-message send path) do not apply.
func (e *Engine) ByzantineBehaviors() []adversary.Kind {
	return []adversary.Kind{adversary.Equivocate, adversary.WithholdVotes, adversary.Censor}
}
