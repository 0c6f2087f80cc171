package chain

import (
	"diablo/internal/snapshot"
	"diablo/internal/types"
)

// This file holds the consensus idioms the engines share: the BFT quorum,
// the fall-through to the next live node, the one engine message handler
// and the per-height delivery record of the voting engines.

// Quorum is the 2f+1 vote count of a deployment of n = 3f+1 nodes.
func (n *Network) Quorum() int { return 2*len(n.Nodes)/3 + 1 }

// NextLive returns the first node at or after i, in ring order, that is not
// crashed: the fall-through a leader, sealer, coordinator or vote collector
// takes when its holder is down. When every node is down it returns i.
func (n *Network) NextLive(i int) int {
	for probe := 0; probe < len(n.Nodes) && n.Nodes[i].Sim.Crashed(); probe++ {
		i = (i + 1) % len(n.Nodes)
	}
	return i
}

// HandleMessages installs the engine's protocol message handler: h runs
// at node at for every engine message sent to it by node from. Gossip and
// corrupted payloads never reach it.
func (n *Network) HandleMessages(h func(at, from int, payload any)) { n.onMessage = h }

// Round is one height's agreement outcome in a voting engine (IBFT, DBFT,
// BA, Snowball): the block and its cost, the open round span, and which
// nodes have delivered the block. Engines embed it in their per-height
// state, which lives until every node has delivered, so that laggards
// finish after the protocol has moved on.
type Round struct {
	Block *types.Block
	Cost  Cost
	// Span is the open consensus-round span: 0 once the round closed, or
	// when spans are off.
	Span uint64

	delivered []bool
	count     int
	// phased records that the mid-round phase annotation was emitted.
	phased bool
}

// NewRound starts the delivery record of blk across the network's nodes.
func (n *Network) NewRound(blk *types.Block, cost Cost) Round {
	return Round{Block: blk, Cost: cost, delivered: make([]bool, len(n.Nodes))}
}

// Begin opens the round's span at view, led by leader. A span that a
// failed earlier attempt left open (IBFT's round change) is closed first,
// and the mid-round phase may be marked again.
func (r *Round) Begin(n *Network, view uint64, leader int) {
	n.RoundEnd(r.Span)
	r.Span = n.RoundBegin(view, leader)
	r.phased = false
}

// Phase annotates the round's mid-round phase at the first node to reach
// it (a deterministic event); later calls do nothing.
func (r *Round) Phase(n *Network, phase string, at int) {
	if !r.phased {
		r.phased = true
		n.RoundPhase(r.Span, phase, at)
	}
}

// Delivered reports whether node idx has delivered the block.
func (r *Round) Delivered(idx int) bool { return r.delivered[idx] }

// Deliver commits the block at node idx, which must not have delivered
// it yet, closing the round span at the first node to commit. It reports
// whether every node now has the block; the engine then drops the round.
func (r *Round) Deliver(n *Network, idx int) (all bool) {
	r.delivered[idx] = true
	r.count++
	if r.Span != 0 {
		n.RoundPhase(r.Span, "commit", idx)
		n.RoundEnd(r.Span)
		r.Span = 0
	}
	n.DeliverBlock(idx, r.Block)
	return r.count == len(r.delivered)
}

// HashDelivery folds the delivery record into an engine's checkpoint
// digest.
func (r *Round) HashDelivery(h *snapshot.Hash) {
	h.Bools(r.delivered)
	h.I64(int64(r.count))
}
