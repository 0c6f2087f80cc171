// Package raft implements the Raft consensus protocol that Quorum ships as
// its crash-fault-tolerant option (§5.2 — the paper excluded it from the
// evaluation because Raft "is vulnerable to arbitrary failures", but the
// suite supports benchmarking it as an extension chain, "quorum-raft").
//
// The implementation is message-level: randomized election timeouts,
// RequestVote, leader heartbeats, and AppendEntries-style block
// replication committing on majority acknowledgment. Compared to IBFT it
// needs only one round trip and a simple majority — faster, but a single
// Byzantine node could equivocate, which is exactly the trade the paper
// points at.
package raft

import (
	"time"

	"diablo/internal/adversary"
	"diablo/internal/chains/chain"
	"diablo/internal/sim"
	"diablo/internal/types"
)

const (
	msgSize            = 120
	heartbeatInterval  = 150 * time.Millisecond
	electionTimeoutMin = 600 * time.Millisecond
	electionTimeoutMax = 1200 * time.Millisecond
	retryIdle          = 100 * time.Millisecond
)

type requestVote struct {
	term      uint64
	candidate int
}

type voteGranted struct {
	term uint64
}

type appendEntries struct {
	term   uint64
	leader int
	seq    uint64 // block height carried (0 = pure heartbeat)
	commit uint64 // leader's commit index, piggybacked
}

type appendAck struct {
	term uint64
	seq  uint64
}

// blockState tracks replication of one block.
type blockState struct {
	blk   *types.Block
	cost  chain.Cost
	acks  int
	done  bool
	seenB []bool
	span  uint64 // open consensus-round span for this block
}

// Engine is the Raft state machine for the deployed network. One engine
// object holds per-node roles; every protocol message crosses the
// simulated WAN.
type Engine struct {
	net     *chain.Network
	stopped bool

	term      uint64
	leader    int // -1 = none elected
	votes     int
	blocks    map[uint64]*blockState // height -> replication state
	commitIdx uint64
	// delivered[height] tracks which nodes have learned the commit.
	delivered map[uint64][]bool

	electionEv sim.EventID
	produceEv  sim.EventID

	// Elections counts leader elections (1 in a crash-free run).
	Elections uint64
}

// New builds the engine.
func New(n *chain.Network) chain.Engine {
	e := &Engine{
		net:       n,
		leader:    -1,
		blocks:    make(map[uint64]*blockState),
		delivered: make(map[uint64][]bool),
	}
	n.HandleMessages(e.onMessage)
	return e
}

// Start arms the first election timeout.
func (e *Engine) Start() { e.armElection(0) }

// Stop halts the engine.
func (e *Engine) Stop() {
	e.stopped = true
	e.electionEv.Cancel()
	e.produceEv.Cancel()
}

func (e *Engine) majority() int { return len(e.net.Nodes)/2 + 1 }

// armElection schedules an election attempt by candidate after a
// randomized timeout.
func (e *Engine) armElection(candidate int) {
	if e.stopped {
		return
	}
	span := electionTimeoutMax - electionTimeoutMin
	timeout := electionTimeoutMin + time.Duration(e.net.Sched.Rand().Int63n(int64(span)))
	e.electionEv.Cancel()
	e.electionEv = e.net.Sched.AfterKind(sim.KindConsensus, timeout, func() { e.startElection(candidate) })
}

// startElection makes candidate request votes for a new term.
func (e *Engine) startElection(candidate int) {
	if e.stopped || e.leader >= 0 {
		return
	}
	if e.net.Nodes[candidate].Sim.Crashed() {
		// A crashed candidate cannot campaign; the next node tries.
		e.armElection((candidate + 1) % len(e.net.Nodes))
		return
	}
	e.term++
	e.votes = 1 // self-vote
	e.net.Nodes[candidate].Broadcast(msgSize, requestVote{term: e.term, candidate: candidate})
	// If the election stalls (partition, crashed majority), retry.
	e.armElection((candidate + 1) % len(e.net.Nodes))
}

func (e *Engine) onMessage(at, from int, payload any) {
	if e.stopped {
		return
	}
	switch m := payload.(type) {
	case requestVote:
		if m.term >= e.term {
			e.net.Nodes[at].Send(m.candidate, msgSize, voteGranted{term: m.term})
		}
	case voteGranted:
		if m.term != e.term || e.leader >= 0 {
			return
		}
		e.votes++
		if e.votes >= e.majority() {
			e.becomeLeader(at)
		}
	case appendEntries:
		e.onAppend(at, m)
	case appendAck:
		e.onAck(m)
	}
}

// becomeLeader installs the elected node and starts heartbeats and block
// production.
func (e *Engine) becomeLeader(leader int) {
	e.leader = leader
	e.Elections++
	e.electionEv.Cancel()
	e.heartbeat()
	e.scheduleProduce(0)
}

// heartbeat keeps followers from timing out and carries the commit index.
func (e *Engine) heartbeat() {
	if e.stopped || e.leader < 0 {
		return
	}
	if e.net.Nodes[e.leader].Sim.Crashed() {
		// Leader failure: followers elect a successor.
		e.leader = -1
		e.armElection(e.net.Sched.Rand().Intn(len(e.net.Nodes)))
		return
	}
	e.net.Nodes[e.leader].Broadcast(msgSize, appendEntries{term: e.term, leader: e.leader, commit: e.commitIdx})
	e.net.Sched.AfterKind(sim.KindConsensus, heartbeatInterval, e.heartbeat)
}

func (e *Engine) scheduleProduce(d time.Duration) {
	e.produceEv.Cancel()
	e.produceEv = e.net.Sched.AfterKind(sim.KindConsensus, d, e.produce)
}

// produce has the leader assemble and replicate the next block.
func (e *Engine) produce() {
	if e.stopped || e.leader < 0 {
		return
	}
	if e.net.Nodes[e.leader].Sim.Crashed() {
		e.leader = -1
		e.armElection(e.net.Sched.Rand().Intn(len(e.net.Nodes)))
		return
	}
	blk, cost := e.net.AssembleBlock(e.leader, false)
	if blk == nil {
		e.scheduleProduce(retryIdle)
		return
	}
	st := &blockState{blk: blk, cost: cost, acks: 1, seenB: make([]bool, len(e.net.Nodes))}
	st.span = e.net.RoundBegin(blk.Number, e.leader)
	e.blocks[blk.Number] = st
	e.delivered[blk.Number] = make([]bool, len(e.net.Nodes))
	r := e.net.OverloadRatio()
	leader := e.leader
	e.net.Sched.AfterKind(sim.KindConsensus, chain.Scale(cost.Assemble, r), func() {
		if e.stopped {
			return
		}
		// Replicate the block body to every follower (gossip tree keeps
		// the leader's uplink sane, as Quorum's devp2p layer does).
		e.net.RoundPhase(st.span, "propose", leader)
		e.net.Gossip(leader, blk.Size()+64, chain.DefaultFanout, func(idx int, _ time.Duration) {
			if idx != leader {
				e.onAppend(idx, appendEntries{term: e.term, leader: leader, seq: blk.Number, commit: e.commitIdx})
			}
		})
	})
	e.scheduleProduce(e.net.Params.MinBlockInterval)
}

// onAppend runs at a follower receiving an AppendEntries (block or
// heartbeat): acknowledge the entry and apply the leader's commit index.
func (e *Engine) onAppend(at int, m appendEntries) {
	if m.seq > 0 {
		st := e.blocks[m.seq]
		if st != nil && !st.seenB[at] {
			st.seenB[at] = true
			validation := chain.Scale(st.cost.Validate, e.net.OverloadRatio())
			e.net.Sched.AfterKind(sim.KindConsensus, validation, func() {
				if e.stopped {
					return
				}
				e.net.Nodes[at].Send(m.leader, msgSize, appendAck{term: m.term, seq: m.seq})
			})
		}
	}
	// Deliver everything up to the leader's commit index that this node
	// has seen replicated.
	e.deliverUpTo(at, m.commit)
}

// onAck counts replication acknowledgments at the leader; a majority
// commits the block.
func (e *Engine) onAck(m appendAck) {
	st := e.blocks[m.seq]
	if st == nil || st.done {
		return
	}
	st.acks++
	if st.acks >= e.majority() {
		st.done = true
		if e.leader >= 0 {
			e.net.RoundPhase(st.span, "vote", e.leader)
		}
		e.net.RoundEnd(st.span)
		st.span = 0
		if m.seq > e.commitIdx {
			e.commitIdx = m.seq
		}
		// The leader applies immediately; followers learn via the commit
		// index piggybacked on subsequent traffic.
		if e.leader >= 0 {
			e.deliverUpTo(e.leader, e.commitIdx)
		}
	}
}

// deliverUpTo delivers all committed blocks this node has not yet applied.
func (e *Engine) deliverUpTo(at int, commit uint64) {
	for seq := uint64(1); seq <= commit; seq++ {
		st := e.blocks[seq]
		del := e.delivered[seq]
		if st == nil || del == nil || del[at] {
			continue
		}
		del[at] = true
		e.net.DeliverBlock(at, st.blk)
		// Reap fully delivered blocks.
		full := true
		for i, d := range del {
			if !d && !e.net.Nodes[i].Sim.Crashed() {
				full = false
			}
		}
		if full {
			delete(e.blocks, seq)
			delete(e.delivered, seq)
		}
	}
}

// ConsensusStats exposes replication counters to the metrics registry;
// elections are the protocol's leader-change signal.
func (e *Engine) ConsensusStats() (uint64, uint64) { return e.commitIdx, e.Elections }

// ByzantineBehaviors implements chain.ByzantineSupport: none. Raft is
// crash-fault-tolerant only — its correctness argument assumes no
// Byzantine participants, so scheduling any byzantine behavior against a
// raft deployment is a configuration error.
func (e *Engine) ByzantineBehaviors() []adversary.Kind { return nil }
