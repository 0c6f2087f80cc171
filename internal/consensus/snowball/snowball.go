// Package snowball implements Avalanche's metastable consensus: each node
// repeatedly queries random peers about the latest block and accepts it
// after beta consecutive positive samples. There are no leader votes and
// no quorum certificates — confidence builds through sampling — which is
// why Avalanche's message cost stays flat as the network grows. The engine
// also honors Avalanche's published operational throttles: at least ~1.9
// seconds between blocks and an 8M block gas cap, which the paper
// identifies as the reason Avalanche's throughput stays low no matter how
// much hardware it is given (§6.2, §6.3).
package snowball

import (
	"time"

	"diablo/internal/adversary"
	"diablo/internal/chains/chain"
	"diablo/internal/sim"
)

const querySize = 80

// beta is the consecutive-success threshold for acceptance.
const beta = 8

// paceInterval is Avalanche's acceptance-paced block cadence in normal
// operation; under overload the pipeline tightens to the protocol's
// MinBlockInterval floor (~1.9s), which is the paper's Fig. 4 observation
// of throughput rising 1.38x at 10x load.
const paceInterval = 2600 * time.Millisecond

// retryIdle is the proposer's idle re-check interval.
const retryIdle = 250 * time.Millisecond

// queryTimeout is how long a sampler waits for a chit before re-sampling.
// It is only armed in adversarial runs (a Byzantine peer may withhold its
// chit or corrupt the query); in benign runs every query is answered and
// the timeout would be dead weight in the event stream.
const queryTimeout = 500 * time.Millisecond

type query struct {
	round uint64
}

type chit struct {
	round uint64
}

// roundState tracks one block's sampling progress at every node. It lives
// until all nodes accepted, so slow nodes finish even after newer blocks
// appear.
type roundState struct {
	chain.Round // a node delivers the block when it accepts it
	confidence  []int
}

// Engine runs the snowball sampling loop for the deployment.
type Engine struct {
	net     *chain.Network
	stopped bool

	round       uint64
	rounds      map[uint64]*roundState
	startedAt   time.Duration
	nextPending bool

	// Rounds counts accepted blocks.
	Rounds uint64
}

// New builds the engine.
func New(n *chain.Network) chain.Engine {
	e := &Engine{net: n, rounds: make(map[uint64]*roundState)}
	n.HandleMessages(e.onMessage)
	return e
}

// Start begins block production.
func (e *Engine) Start() { e.net.Sched.AfterKind(sim.KindConsensus, 0, e.propose) }

// Stop halts the engine.
func (e *Engine) Stop() { e.stopped = true }

func (e *Engine) proposerOf(round uint64) int {
	x := round*0x9E3779B97F4A7C15 + 7
	x ^= x >> 31
	return e.net.NextLive(int(x % uint64(len(e.net.Nodes))))
}

// propose emits the next block and lets every node sample it to
// acceptance.
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
	round := e.round
	e.round++
	st := &roundState{Round: e.net.NewRound(blk, cost), confidence: make([]int, len(e.net.Nodes))}
	st.Begin(e.net, round, proposer)
	e.rounds[round] = st
	e.startedAt = e.net.Sched.Now()
	r := e.net.OverloadRatio()
	// Under overload the node batches block production down to the
	// protocol's 1.9s floor, pipelining ahead of acceptance; the paper's
	// Fig. 4 measures this as Avalanche's throughput *rising* 1.38x when
	// the offered load is 10x (its throttle stops dominating).
	if r > 1.05 {
		e.scheduleNext(e.net.Params.MinBlockInterval)
	}
	e.net.Sched.AfterKind(sim.KindConsensus, chain.Scale(cost.Assemble, r), func() {
		if e.stopped {
			return
		}
		e.net.RoundPhase(st.Span, "propose", proposer)
		e.net.Gossip(proposer, blk.Size()+64, chain.DefaultFanout, func(idx int, _ time.Duration) {
			e.startSampling(idx, round)
		})
	})
}

// startSampling begins a node's snowball loop once it has the block.
func (e *Engine) startSampling(idx int, round uint64) {
	st := e.rounds[round]
	if e.stopped || st == nil || st.Delivered(idx) {
		return
	}
	// Validate (re-execute) before sampling.
	validation := chain.Scale(st.Cost.Validate, e.net.OverloadRatio())
	e.net.Sched.AfterKind(sim.KindConsensus, validation, func() { e.sampleOnce(idx, round) })
}

// sampleOnce sends one query to a random peer.
func (e *Engine) sampleOnce(idx int, round uint64) {
	st := e.rounds[round]
	if e.stopped || st == nil || st.Delivered(idx) {
		return
	}
	if len(e.net.Nodes) == 1 {
		e.onChit(idx, chit{round: round})
		return
	}
	// Sample among responsive peers (Avalanche samples its connected peer
	// set; a down peer would be retried after a timeout).
	n := len(e.net.Nodes)
	peer := e.net.Sched.Rand().Intn(n)
	for probe := 0; probe < n && (peer == idx || e.net.Nodes[peer].Sim.Crashed()); probe++ {
		peer = (peer + 1) % n
	}
	if peer == idx {
		e.onChit(idx, chit{round: round})
		return
	}
	e.net.Nodes[idx].Send(peer, querySize, query{round: round})
	if e.net.ByzantineActive() {
		conf := st.confidence[idx]
		e.net.Sched.AfterKind(sim.KindConsensus, queryTimeout, func() {
			cur := e.rounds[round]
			if e.stopped || cur == nil || cur.Delivered(idx) || cur.confidence[idx] != conf {
				return
			}
			e.sampleOnce(idx, round)
		})
	}
}

func (e *Engine) onMessage(at, from int, payload any) {
	switch m := payload.(type) {
	case query:
		// Respond with a chit: with a single proposal per round there is
		// no conflicting preference to report. A withholding node stays
		// silent; the sampler's query timeout re-samples elsewhere.
		if e.net.VoteWithheld(at) {
			return
		}
		e.net.Nodes[at].Send(from, querySize, chit{round: m.round})
	case chit:
		e.onChit(at, m)
	}
}

// onChit advances a node's confidence; beta consecutive successes accept
// the block at that node.
func (e *Engine) onChit(idx int, c chit) {
	st := e.rounds[c.round]
	if e.stopped || st == nil || st.Delivered(idx) {
		return
	}
	st.confidence[idx]++
	if st.confidence[idx] >= beta {
		if st.Deliver(e.net, idx) {
			delete(e.rounds, c.round)
		}
		if idx == e.proposerOf(c.round) && c.round == e.round-1 {
			e.advance(c.round)
		}
		return
	}
	e.sampleOnce(idx, c.round)
}

// advance runs at block acceptance by its proposer: schedule the next
// block (acceptance-paced unless overload pipelining already did).
func (e *Engine) advance(round uint64) {
	e.Rounds++
	elapsed := e.net.Sched.Now() - e.startedAt
	wait := paceInterval - elapsed
	if wait < 0 {
		wait = 0
	}
	e.scheduleNext(wait)
}

// scheduleNext arms at most one pending proposal.
func (e *Engine) scheduleNext(d time.Duration) {
	if e.nextPending || e.stopped {
		return
	}
	e.nextPending = true
	e.net.Sched.AfterKind(sim.KindConsensus, d, func() {
		e.nextPending = false
		e.propose()
	})
}

// ConsensusStats exposes round counters to the metrics registry.
func (e *Engine) ConsensusStats() (uint64, uint64) { return e.Rounds, 0 }

// ByzantineBehaviors implements chain.ByzantineSupport. No Equivocate:
// metastable sampling has no quorum certificates to split — conflicting
// proposals resolve to one preference by the sampling dynamics.
func (e *Engine) ByzantineBehaviors() []adversary.Kind {
	return []adversary.Kind{
		adversary.WithholdVotes, adversary.CorruptPayload, adversary.Censor, adversary.Replay,
	}
}
