package chain

import "time"

// Block dissemination uses a fanout tree rooted at the proposer, the way
// production chains gossip blocks: the proposer uploads the block to
// `fanout` peers, each of which relays it onward, so no single node's
// uplink carries the whole network's copies. Relay transmissions are real
// simulated sends, so large blocks on thin inter-region links back up
// exactly as a saturated pipe would.

// DefaultFanout is the gossip tree arity (devp2p-style protocols relay to
// a small constant number of peers; 8 is a common effective fanout).
const DefaultFanout = 8

// gossipMsg is the relay payload. The receiver learns its own position in
// the tree from rank and relays to its children.
type gossipMsg struct {
	tree    []int // node indexes in tree order
	rank    int   // receiver's position in the tree
	fanout  int
	size    int
	deliver func(nodeIdx int, at time.Duration)
}

// Gossip spreads a payload of the given size from root to every node,
// invoking deliver(nodeIdx, arrivalTime) as each node receives it. The
// root is delivered immediately; every other delivery runs inside the
// simulation event that completes reception at that node.
func (n *Network) Gossip(root, size, fanout int, deliver func(nodeIdx int, at time.Duration)) {
	if fanout <= 0 {
		fanout = DefaultFanout
	}
	// Tree order: root first, then the other live nodes rotated by root
	// so relay load shifts with the proposer; crashed nodes take leaf
	// positions so no subtree routes through them (real gossip selects
	// relays among connected peers).
	tree := make([]int, 0, len(n.Nodes))
	tree = append(tree, root)
	var down []int
	for off := 1; off < len(n.Nodes); off++ {
		idx := (root + off) % len(n.Nodes)
		if n.Nodes[idx].Sim.Crashed() {
			down = append(down, idx)
			continue
		}
		tree = append(tree, idx)
	}
	tree = append(tree, down...)
	if deliver != nil {
		deliver(root, n.Sched.Now())
	}
	n.relayGossip(n.Nodes[root], &gossipMsg{tree: tree, rank: 0, fanout: fanout, size: size, deliver: deliver})
}

// receiveGossip handles a gossip relay arriving at a node: deliver locally,
// then forward to this node's children in the tree.
func (n *Network) receiveGossip(at *Node, msg *gossipMsg) {
	if msg.deliver != nil {
		msg.deliver(at.Index, n.Sched.Now())
	}
	n.relayGossip(at, msg)
}

// relayGossip forwards the message to the node's children in the tree. The
// children's messages share one allocation.
func (n *Network) relayGossip(at *Node, msg *gossipMsg) {
	first := msg.rank*msg.fanout + 1
	count := min(msg.fanout, len(msg.tree)-first)
	if count <= 0 {
		return
	}
	children := make([]gossipMsg, count)
	for c := range children {
		child := &children[c]
		*child = gossipMsg{
			tree:    msg.tree,
			rank:    first + c,
			fanout:  msg.fanout,
			size:    msg.size,
			deliver: msg.deliver,
		}
		at.Sim.Send(n.Nodes[msg.tree[child.rank]].Sim.ID, msg.size, child)
	}
}
