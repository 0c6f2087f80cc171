// Package clique implements Ethereum's proof-of-authority consensus as
// used by geth private networks (and by the paper's Ethereum deployment):
// authorized sealers take turns sealing a block every fixed period; blocks
// propagate by gossip and import after validation. There is no voting, so
// commit latency is gossip plus validation — but throughput is inherently
// bounded by the block period times the block gas limit, which is the
// paper's explanation for Ethereum's low throughput regardless of
// resources (§6.2).
package clique

import (
	"time"

	"diablo/internal/adversary"
	"diablo/internal/chains/chain"
	"diablo/internal/sim"
)

// Engine is the Clique sealer loop.
type Engine struct {
	net     *chain.Network
	period  time.Duration
	stopped bool
}

// New builds the engine; the seal period is the network's MinBlockInterval.
func New(n *chain.Network) chain.Engine {
	period := n.Params.MinBlockInterval
	if period <= 0 {
		period = 5 * time.Second
	}
	return &Engine{net: n, period: period}
}

// Start begins sealing.
func (e *Engine) Start() { e.net.Sched.AfterKind(sim.KindConsensus, e.period, e.seal) }

// Stop halts sealing.
func (e *Engine) Stop() { e.stopped = true }

// seal runs one sealing turn: the in-turn sealer assembles, executes and
// gossips a block; every node validates on arrival before importing.
func (e *Engine) seal() {
	if e.stopped {
		return
	}
	// Clique seals on every period tick, including empty blocks — which is
	// also what lets clients confirm earlier blocks at depth. If the
	// in-turn sealer is down, the next authorized sealer signs out of
	// turn (Clique's wiggle).
	sealer := e.net.NextLive(int(e.net.Height()) % len(e.net.Nodes))
	if e.net.Nodes[sealer].Sim.Crashed() {
		e.net.Sched.AfterKind(sim.KindConsensus, e.period, e.seal)
		return
	}
	blk, cost := e.net.AssembleBlock(sealer, true)
	round := e.net.RoundBegin(blk.Number, sealer)
	r := e.net.OverloadRatio()
	assembly := chain.Scale(cost.Assemble, r)
	e.net.Sched.AfterKind(sim.KindConsensus, assembly, func() {
		if e.stopped {
			return
		}
		e.net.RoundPhase(round, "propose", sealer)
		e.net.Gossip(sealer, blk.Size(), chain.DefaultFanout, func(idx int, _ time.Duration) {
			// Import: validate (re-execute) then expose to clients.
			e.net.Sched.AfterKind(sim.KindConsensus, chain.Scale(cost.Validate, e.net.OverloadRatio()), func() {
				e.net.DeliverBlock(idx, blk)
			})
		})
		// No votes in proof-of-authority: the round is over once the
		// sealed block is handed to gossip.
		e.net.RoundEnd(round)
	})
	e.net.Sched.AfterKind(sim.KindConsensus, e.period, e.seal)
}

// ByzantineBehaviors implements chain.ByzantineSupport. Clique has no
// protocol messages at all (sealed blocks spread by gossip, there are no
// votes), so only proposer-side censorship applies.
func (e *Engine) ByzantineBehaviors() []adversary.Kind {
	return []adversary.Kind{adversary.Censor}
}
