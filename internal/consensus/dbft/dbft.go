// Package dbft implements a leaderless deterministic Byzantine
// fault-tolerant consensus in the style of the (Smart) Red Belly
// Blockchain the paper repeatedly contrasts with leader-based designs
// (§6.3, §6.6): every node proposes the transactions it received, the
// proposals disseminate in parallel, one all-to-all vote wave decides
// which proposals enter the superblock, and the union commits. Because no
// single leader assembles or disseminates the whole block, there is no
// leader bottleneck to saturate and no view-change fragility — the paper
// cites measurements showing this design is immune to the overload
// collapse that kills Quorum's IBFT.
//
// The engine is an extension beyond the paper's six evaluated chains; it
// exists to test that §6.3 claim inside this framework (see the
// "redbelly" extension chain and its robustness test).
package dbft

import (
	"time"

	"diablo/internal/adversary"
	"diablo/internal/chains/chain"
	"diablo/internal/sim"
)

const voteSize = 160

// maxProposers bounds how many nodes disseminate fragments each round
// (Red Belly's optimal proposer subset).
const maxProposers = 16

// retryIdle is the coordinator's idle re-check interval.
const retryIdle = 250 * time.Millisecond

type vote struct {
	round uint64
	phase int // 0 = echo (proposal received), 1 = ready (decide)
}

// roundState is one superblock's agreement state.
type roundState struct {
	chain.Round
	seen  []bool
	echoS []bool
	readS []bool
	echoC []int
	readC []int
}

// Engine runs leaderless DBFT rounds for the deployment.
type Engine struct {
	net     *chain.Network
	stopped bool

	round  uint64
	rounds map[uint64]*roundState

	// Rounds counts committed superblocks.
	Rounds uint64
}

// New builds the engine.
func New(n *chain.Network) chain.Engine {
	e := &Engine{net: n, rounds: make(map[uint64]*roundState)}
	n.HandleMessages(e.onMessage)
	return e
}

// Start begins round 0.
func (e *Engine) Start() { e.net.Sched.AfterKind(sim.KindConsensus, 0, e.propose) }

// Stop halts the engine.
func (e *Engine) Stop() { e.stopped = true }

// propose assembles the round's superblock (the union of what the
// proposers received) and disseminates it from multiple roots in parallel,
// so no single node's uplink or CPU carries the whole payload.
func (e *Engine) propose() {
	if e.stopped {
		return
	}
	// The coordination role (round bookkeeping) falls to the next live
	// node when its holder is down; this is bookkeeping only — proposals
	// themselves are already multi-rooted.
	coordinator := e.coordinatorOf(e.round)
	blk, cost := e.net.AssembleBlock(coordinator, false)
	if blk == nil {
		e.net.Sched.AfterKind(sim.KindConsensus, retryIdle, e.propose)
		return
	}
	e.net.MaybeEquivocate(coordinator, blk, e.net.Quorum())
	round := e.round
	size := len(e.net.Nodes)
	st := &roundState{
		Round: e.net.NewRound(blk, cost),
		seen:  make([]bool, size),
		echoS: make([]bool, size),
		readS: make([]bool, size),
		echoC: make([]int, size),
		readC: make([]int, size),
	}
	st.Begin(e.net, round, coordinator)
	e.rounds[round] = st

	// Parallel dissemination: k proposers each spread a 1/k fragment of
	// the superblock; a node has the block once all fragments arrive.
	// Execution cost is charged per fragment proposer, in parallel, so
	// assembly time does not grow with a single leader's burden.
	k := maxProposers
	if k > size {
		k = size
	}
	fragment := blk.Size()/k + 64
	r := e.net.OverloadRatio()
	perProposer := time.Duration(float64(cost.Assemble) / float64(k) * r) //lint:allow float div-then-mul chain has no x*y±z contraction shape; single-rounded IEEE ops are bit-exact on every GOARCH
	arrivals := make([]int, size)
	for p := 0; p < k; p++ {
		// Leaderless resilience: a down proposer's fragment is taken over
		// by the next live node.
		root := e.net.NextLive((coordinator + p) % size)
		first := p == 0
		e.net.Sched.AfterKind(sim.KindConsensus, perProposer, func() {
			if e.stopped {
				return
			}
			if first {
				e.net.RoundPhase(st.Span, "propose", root)
			}
			e.net.Gossip(root, fragment, chain.DefaultFanout, func(idx int, _ time.Duration) {
				arrivals[idx]++
				if arrivals[idx] == k {
					e.onBlock(idx, round)
				}
			})
		})
	}
}

// onBlock runs once a node holds the full superblock: validate, then echo.
func (e *Engine) onBlock(idx int, round uint64) {
	st := e.rounds[round]
	if e.stopped || st == nil || st.seen[idx] {
		return
	}
	st.seen[idx] = true
	validation := chain.Scale(st.Cost.Validate, e.net.OverloadRatio())
	e.net.Sched.AfterKind(sim.KindConsensus, validation, func() {
		if e.stopped {
			return
		}
		e.castVote(idx, vote{round: round, phase: 0}, st, &st.echoS[idx])
	})
}

// castVote broadcasts a vote exactly once per node and phase. A node
// inside a WithholdVotes window drops the attempt without marking it
// sent, so a later quorum trigger retries once the window clears.
func (e *Engine) castVote(idx int, v vote, st *roundState, sent *bool) {
	if *sent {
		return
	}
	if e.net.VoteWithheld(idx) {
		return
	}
	*sent = true
	e.deliverVote(idx, v)
	e.net.Nodes[idx].Broadcast(voteSize, v)
}

func (e *Engine) onMessage(at, _ int, payload any) {
	if v, ok := payload.(vote); ok {
		e.deliverVote(at, v)
	}
}

// deliverVote advances a node through echo -> ready -> delivered.
func (e *Engine) deliverVote(idx int, v vote) {
	st := e.rounds[v.round]
	if e.stopped || st == nil {
		return
	}
	switch v.phase {
	case 0:
		st.echoC[idx]++
		if st.echoC[idx] >= e.net.Quorum() {
			st.Phase(e.net, "vote", idx)
			e.castVote(idx, vote{round: v.round, phase: 1}, st, &st.readS[idx])
		}
	case 1:
		st.readC[idx]++
		if st.readC[idx] >= e.net.Quorum() && !st.Delivered(idx) {
			if st.Deliver(e.net, idx) {
				delete(e.rounds, v.round)
			}
			if idx == e.coordinatorOf(v.round) && v.round == e.round {
				e.advance()
			}
		}
	}
}

// coordinatorOf is the node that keeps round's bookkeeping: round-robin,
// falling through to the next live node.
func (e *Engine) coordinatorOf(round uint64) int {
	return e.net.NextLive(int(round) % len(e.net.Nodes))
}

func (e *Engine) advance() {
	e.Rounds++
	e.round++
	e.net.Sched.AfterKind(sim.KindConsensus, e.net.Params.MinBlockInterval, e.propose)
}

// ConsensusStats exposes round counters to the metrics registry.
func (e *Engine) ConsensusStats() (uint64, uint64) { return e.Rounds, 0 }

// ByzantineBehaviors implements chain.ByzantineSupport: the coordinator
// assembles the superblock and every node votes, so all hooks apply.
func (e *Engine) ByzantineBehaviors() []adversary.Kind {
	return []adversary.Kind{
		adversary.Equivocate, adversary.WithholdVotes, adversary.CorruptPayload,
		adversary.Censor, adversary.Replay,
	}
}
