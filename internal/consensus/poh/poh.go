// Package poh implements Solana's proof-of-history-driven block
// production with TowerBFT voting: a published leader schedule assigns one
// leader per fixed 400ms slot; the leader streams its block to the network
// (turbine-style fan-out), and validators vote on it. Because the slot
// clock is a verifiable delay function rather than a communication round,
// block production never waits for the network — the property behind
// Solana's scalability result (§6.2). Finality, however, requires clients
// to wait for 30 confirmations (the chain may fork), which is handled by
// the client layer via Params.ConfirmDepth and is why the paper measures
// Solana latency at 12+ seconds despite "sub-second" block times.
package poh

import (
	"time"

	"diablo/internal/adversary"
	"diablo/internal/chains/chain"
	"diablo/internal/sim"
)

const voteSize = 120

// SlotInterval is Solana's 400ms slot time.
const SlotInterval = 400 * time.Millisecond

// Engine is the PoH slot clock plus block streaming.
type Engine struct {
	net     *chain.Network
	stopped bool
	slot    uint64
	ticker  sim.EventID

	// Slots counts produced slots; SkippedSlots counts slots where the
	// overloaded leader could not assemble in time.
	Slots        uint64
	SkippedSlots uint64
}

// New builds the engine.
func New(n *chain.Network) chain.Engine {
	return &Engine{net: n}
}

// Start begins the slot clock.
func (e *Engine) Start() { e.schedule() }

// Stop halts the slot clock.
func (e *Engine) Stop() {
	e.stopped = true
	e.ticker.Cancel()
}

func (e *Engine) schedule() {
	interval := e.net.Params.MinBlockInterval
	if interval <= 0 {
		interval = SlotInterval
	}
	e.ticker = e.net.Sched.AfterKind(sim.KindConsensus, interval, e.tick)
}

func (e *Engine) leaderOf(slot uint64) int {
	// Leader schedule: epoch-sized round robin, as published ahead of time
	// by the real leader schedule.
	return int(slot) % len(e.net.Nodes)
}

// tick runs one slot: the leader packs what it verified in time (overload
// shrinks the effective packing budget), streams the block, and validators
// vote to the next leader.
func (e *Engine) tick() {
	if e.stopped {
		return
	}
	e.Slots++
	slot := e.slot
	e.slot++
	leader := e.leaderOf(slot)
	if e.net.Nodes[leader].Sim.Crashed() {
		// A down leader simply skips its slot; the schedule moves on.
		e.SkippedSlots++
		e.schedule()
		return
	}

	// Overload shrinks how many transactions the leader can pack into its
	// fixed 400ms slot (verification steals the slot's CPU budget).
	r := e.net.OverloadRatio()
	maxTxs := e.net.Params.MaxBlockTxs
	if r > 1 && maxTxs > 0 {
		maxTxs = int(float64(maxTxs) / r)
		if maxTxs < 1 {
			maxTxs = 1
			e.SkippedSlots++
		}
	}
	// The slot's serial-execution budget is the slot time itself, shared
	// with verification work under overload.
	serialBudget := e.net.Params.MinBlockInterval
	if r > 1 {
		serialBudget = time.Duration(float64(serialBudget) / r)
	}
	blk, _ := e.net.AssembleBlockBudgeted(leader, true, maxTxs, serialBudget)
	if blk == nil {
		e.schedule()
		return
	}
	// The slot's PoH stream is already being transmitted as it is built;
	// dissemination starts immediately. The round span closes at the
	// first (deterministic) delivery: there is no quorum to wait for.
	round := e.net.RoundBegin(slot, leader)
	e.net.RoundPhase(round, "propose", leader)
	e.net.Gossip(leader, blk.Size()+64, chain.DefaultFanout, func(idx int, _ time.Duration) {
		e.net.RoundEnd(round)
		round = 0
		// Optimistic confirmation at arrival; the client layer enforces
		// the 30-block confirmation depth before reporting finality.
		e.net.DeliverBlock(idx, blk)
		// TowerBFT vote to the upcoming leader.
		next := e.leaderOf(slot + 1)
		if idx != next && !e.net.VoteWithheld(idx) {
			e.net.Nodes[idx].Send(next, voteSize, voteMsg{slot: slot})
		}
	})
	e.schedule()
}

// voteMsg is a TowerBFT vote. Votes are accounted for network load only,
// and no handler reads them: lockouts do not alter the happy-path commit
// timing the benchmarks measure.
type voteMsg struct {
	slot uint64
}

// ConsensusStats exposes slot counters to the metrics registry; skipped
// slots are the "view change" analogue of a slot-driven chain.
func (e *Engine) ConsensusStats() (uint64, uint64) { return e.Slots, e.SkippedSlots }

// ByzantineBehaviors implements chain.ByzantineSupport. No Equivocate:
// PoH forks are resolved by the 30-block confirmation depth rather than
// quorum intersection, so conflicting slot streams model as liveness
// delay, not commit divergence.
func (e *Engine) ByzantineBehaviors() []adversary.Kind {
	return []adversary.Kind{
		adversary.WithholdVotes, adversary.CorruptPayload, adversary.Censor, adversary.Replay,
	}
}
