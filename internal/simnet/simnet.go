// Package simnet simulates the geo-distributed network the paper's
// experiments run on. Nodes are placed in the ten AWS regions of Table 3;
// message delivery latency is half the published RTT plus a transmission
// delay derived from the published inter-region bandwidth, with per-link
// FIFO queuing so that saturating a link (e.g. a leader broadcasting large
// blocks at 10,000 TPS) backs up subsequent traffic exactly as a real pipe
// would.
//
// The package also provides fault injection — crashed nodes, added delay,
// partitions, per-link probabilistic loss and jitter, bandwidth
// degradation and node slowdown — used by the robustness tests and driven
// at scale by internal/chaos. All probabilistic faults draw from a
// dedicated seeded PRNG (see SeedFaults) so faulty runs replay
// bit-identically.
//
// Send is the hottest path of the whole suite (every consensus message of
// every experiment flows through it), so the per-pair link state is a flat
// matrix with the propagation delay and byte rate precomputed once per
// link, the active fault pointer is cached behind a cheap epoch check, and
// in-flight messages ride pooled envelopes scheduled through
// sim.Scheduler.AtCall — zero allocations per message in steady state.
package simnet

import (
	"fmt"
	"math/rand"
	"time"

	"diablo/internal/sim"
	"diablo/internal/span"
)

// NodeID identifies a node within a Network.
type NodeID int

// Message is what a node receives.
type Message struct {
	From    NodeID
	To      NodeID
	Size    int // wire size in bytes
	Payload any
}

// Handler processes an incoming message on the destination node.
type Handler func(msg Message)

// Node is a process attached to the network.
type Node struct {
	ID      NodeID
	Region  Region
	net     *Network
	handler Handler
	crashed bool
}

// SetHandler installs the message handler. Must be called before traffic
// arrives; a node without a handler drops messages.
func (n *Node) SetHandler(h Handler) { n.handler = h }

// Crash makes the node silently drop all future incoming and outgoing
// messages (fail-stop).
func (n *Node) Crash() { n.crashed = true }

// Restart clears a crash.
func (n *Node) Restart() { n.crashed = false }

// Crashed reports the node's fault state.
func (n *Node) Crashed() bool { return n.crashed }

// Send transmits a message from this node.
func (n *Node) Send(to NodeID, size int, payload any) {
	n.net.Send(n.ID, to, size, payload)
}

// link models one directed (src,dst) pipe with FIFO bandwidth queuing.
// Propagation and transmission parameters are derived from the region pair
// once, on the link's first use; the active fault pointer is revalidated
// only when the network's fault epoch moves.
type link struct {
	busyUntil   sim.Time
	halfRTT     time.Duration // one-way propagation delay
	bytesPerSec float64       // link byte rate; 0 = infinite
	fault       *LinkFault    // cached active fault (nil = healthy)
	faultEpoch  uint64
	init        bool
}

func (l *link) initParams(a, b Region) {
	l.halfRTT = time.Duration(RTT(a, b) / 2 * float64(time.Millisecond)) //lint:allow float div-then-mul chain has no x*y±z contraction shape; bit-exact on every GOARCH
	if bw := Bandwidth(a, b); bw > 0 {
		l.bytesPerSec = bw * 1e6 / 8 //lint:allow float multiply and divide by exact powers of ten and two; no contraction shape
	}
	l.init = true
}

// LinkFault is the degradable state of one region-pair link (or of every
// link, see EditAllLinksFault). The zero value is a healthy link.
type LinkFault struct {
	// Loss is the probability in [0, 1] that a message on the link is
	// dropped (bandwidth is still consumed, as a corrupted frame would).
	Loss float64
	// ExtraDelay is added to every message's propagation delay.
	ExtraDelay time.Duration
	// Jitter adds a uniform random delay in [0, Jitter) per message.
	Jitter time.Duration
	// BandwidthFactor scales the link's bandwidth (0.5 = half capacity);
	// 0 or 1 leaves it untouched.
	BandwidthFactor float64
}

// active reports whether the fault degrades anything.
func (f *LinkFault) active() bool {
	return f != nil && (f.Loss > 0 || f.ExtraDelay > 0 || f.Jitter > 0 ||
		(f.BandwidthFactor > 0 && f.BandwidthFactor != 1))
}

// envelope carries one in-flight message. Envelopes are recycled through a
// free list: delivery releases the envelope before invoking the handler,
// so even handler-triggered sends reuse it immediately.
type envelope struct {
	net  *Network
	dst  *Node
	msg  Message
	next *envelope
}

// Run delivers the message (sim.Callback).
//
//perf:noalloc
func (e *envelope) Run() {
	n, dst, msg := e.net, e.dst, e.msg
	e.net, e.dst = nil, nil
	e.msg = Message{}
	e.next = n.envFree
	n.envFree = e
	if dst.crashed || dst.handler == nil {
		return
	}
	if n.partition != nil && n.side(msg.From) != n.side(msg.To) {
		return // partition formed while in flight
	}
	n.Delivered++
	dst.handler(msg)
}

// Network is the simulated WAN.
type Network struct {
	Sched *sim.Scheduler
	nodes []*Node
	// links[from][to] is the directed pipe between two nodes.
	links [][]link

	// extraDelay adds a fixed delay to every message (fault injection used
	// by the Clique message-delay tests).
	extraDelay time.Duration
	// partition, when non-nil, maps each node to a side; messages across
	// sides are dropped.
	partition map[NodeID]int

	// linkFaults holds per-region-pair fault state (key ordered a <= b);
	// allLinks, when non-nil, applies to pairs without a specific entry.
	linkFaults map[[2]Region]*LinkFault
	allLinks   *LinkFault
	// faultEpoch invalidates the per-link fault cache; every fault edit
	// bumps it.
	faultEpoch uint64
	// slow maps a straggler node to its slowdown factor (> 1).
	slow map[NodeID]float64
	// rng drives loss and jitter draws; consensus randomness stays on the
	// scheduler's source so fault draws never perturb protocol behaviour.
	// The counting wrapper leaves the stream untouched but exposes the draw
	// position to checkpoint digests.
	rng    *rand.Rand //lint:allow snapshotdrift PRNG object; its draw position is captured as fault_draws
	rngSrc *sim.CountingSource
	// envFree is the recycled in-flight envelope pool.
	envFree *envelope //lint:allow snapshotdrift envelope free list; allocation cache, not replay state
	// linkStats, when non-nil, aggregates per-region-pair traffic. Kept a
	// plain pointer (one predictable branch, array indexing, no allocation)
	// so enabling it does not disturb the hot path.
	linkStats *LinkStats //lint:allow snapshotdrift reporting counters for the result table, not replay state
	// spans, when non-nil, labels each delivery event (destination node)
	// for causal span tracing. Nil-receiver hints make the disabled path
	// free.
	spans *span.Recorder

	// Delivered counts messages delivered; BytesSent counts payload bytes;
	// Lost counts messages dropped by link faults (not crashes/partitions).
	Delivered uint64
	BytesSent uint64
	Lost      uint64
}

// New creates an empty network on the given scheduler.
func New(sched *sim.Scheduler) *Network {
	src := sim.NewCountingSource(1)
	return &Network{
		Sched:      sched,
		faultEpoch: 1, // ahead of the links' zero epoch
		rng:        rand.New(src),
		rngSrc:     src,
	}
}

// SeedFaults reseeds the PRNG behind probabilistic link faults so two runs
// of the same experiment (same seed, same schedule) replay bit-identically.
func (n *Network) SeedFaults(seed int64) {
	src := sim.NewCountingSource(seed)
	n.rng = rand.New(src)
	n.rngSrc = src
}

// AddNode attaches a new node in the given region.
func (n *Network) AddNode(region Region) *Node {
	node := &Node{ID: NodeID(len(n.nodes)), Region: region, net: n}
	n.nodes = append(n.nodes, node)
	// Grow the link matrix by one column per existing row plus a new row.
	for i := range n.links {
		n.links[i] = append(n.links[i], link{})
	}
	n.links = append(n.links, make([]link, len(n.nodes)))
	return node
}

// Node returns the node with the given ID.
func (n *Network) Node(id NodeID) *Node {
	if int(id) < 0 || int(id) >= len(n.nodes) {
		panic(fmt.Sprintf("simnet: unknown node %d", id))
	}
	return n.nodes[id]
}

// Len returns the number of nodes.
func (n *Network) Len() int { return len(n.nodes) }

// SetExtraDelay injects a fixed additional delay on every message.
func (n *Network) SetExtraDelay(d time.Duration) { n.extraDelay = d }

// Partition splits nodes into sides; messages between different sides are
// dropped until HealPartition is called. Nodes not listed default to side 0.
func (n *Network) Partition(sides map[NodeID]int) { n.partition = sides }

// HealPartition removes the partition.
func (n *Network) HealPartition() { n.partition = nil }

func (n *Network) side(id NodeID) int {
	if n.partition == nil {
		return 0
	}
	return n.partition[id]
}

// SameSide reports whether two nodes can currently reach each other (no
// partition, or both on the same side).
func (n *Network) SameSide(a, b NodeID) bool { return n.side(a) == n.side(b) }

// pairKey orders a region pair so both directions share fault state.
func pairKey(a, b Region) [2]Region {
	if a > b {
		a, b = b, a
	}
	return [2]Region{a, b}
}

// EditLinkFault mutates the fault state of the link between two regions
// (both directions), creating it as needed.
func (n *Network) EditLinkFault(a, b Region, edit func(*LinkFault)) {
	if n.linkFaults == nil {
		n.linkFaults = make(map[[2]Region]*LinkFault)
	}
	key := pairKey(a, b)
	f := n.linkFaults[key]
	if f == nil {
		f = &LinkFault{}
		n.linkFaults[key] = f
	}
	edit(f)
	n.faultEpoch++
}

// EditAllLinksFault mutates the fault state applied to every link without
// a region-specific entry.
func (n *Network) EditAllLinksFault(edit func(*LinkFault)) {
	if n.allLinks == nil {
		n.allLinks = &LinkFault{}
	}
	edit(n.allLinks)
	n.faultEpoch++
}

// ClearLinkFaults removes all link fault state.
func (n *Network) ClearLinkFaults() {
	n.linkFaults = nil
	n.allLinks = nil
	n.faultEpoch++
}

// linkFaultFor returns the active fault on the (a, b) regions' link, or
// nil when the link is healthy.
//
//perf:noalloc
func (n *Network) linkFaultFor(a, b Region) *LinkFault {
	if f := n.linkFaults[pairKey(a, b)]; f.active() {
		return f
	}
	if n.allLinks.active() {
		return n.allLinks
	}
	return nil
}

// SetNodeSlowdown makes a node a straggler: every message to or from it is
// delayed by the given factor (>= 1) on top of the link's own timing,
// modeling a node whose packet processing has slowed (CPU steal, swap
// thrash). A factor <= 1 clears the slowdown.
func (n *Network) SetNodeSlowdown(id NodeID, factor float64) {
	if factor <= 1 {
		delete(n.slow, id)
		return
	}
	if n.slow == nil {
		n.slow = make(map[NodeID]float64)
	}
	n.slow[id] = factor
}

// slowFactor returns the delay multiplier for a message between two nodes.
//
//perf:noalloc
func (n *Network) slowFactor(from, to NodeID) float64 {
	f := 1.0
	if s := n.slow[from]; s > f {
		f = s
	}
	if s := n.slow[to]; s > f {
		f = s
	}
	return f
}

// Latency returns the one-way propagation delay between two nodes.
func (n *Network) Latency(from, to NodeID) time.Duration {
	a, b := n.Node(from).Region, n.Node(to).Region
	return time.Duration(RTT(a, b) / 2 * float64(time.Millisecond))
}

// transmission returns how long size bytes occupy the link.
func (n *Network) transmission(from, to NodeID, size int) time.Duration {
	a, b := n.Node(from).Region, n.Node(to).Region
	bw := Bandwidth(a, b) // Mbit/s
	if bw <= 0 || size <= 0 {
		return 0
	}
	bytesPerSec := bw * 1e6 / 8
	return time.Duration(float64(size) / bytesPerSec * float64(time.Second))
}

// allocEnvelope pops a recycled envelope or makes a fresh one.
//
//perf:noalloc
func (n *Network) allocEnvelope() *envelope {
	if e := n.envFree; e != nil {
		n.envFree = e.next
		e.next = nil
		return e
	}
	return &envelope{} //lint:allow hotalloc pool fill: one envelope per concurrency high-water mark, recycled forever after
}

// Send schedules delivery of a message. Delivery time is:
//
//	max(now, link free) + transmission(size) + RTT/2 + injected delay
//
// all scaled by active link faults (bandwidth degradation stretches
// transmission; extra delay, jitter and node slowdown stretch the
// propagation part). Messages on the same healthy link deliver in FIFO
// order; jitter may reorder deliveries, as a lossy path would. Messages to
// or from crashed nodes, across a partition, or losing the per-link loss
// draw are silently dropped (the link time is still consumed for outgoing
// traffic, as a real NIC would).
//
//perf:noalloc
func (n *Network) Send(from, to NodeID, size int, payload any) {
	src, dst := n.Node(from), n.Node(to)
	if src.crashed {
		return
	}

	l := &n.links[from][to]
	if !l.init {
		l.initParams(src.Region, dst.Region)
	}
	if l.faultEpoch != n.faultEpoch {
		l.fault = n.linkFaultFor(src.Region, dst.Region)
		l.faultEpoch = n.faultEpoch
	}
	fault := l.fault

	start := n.Sched.Now()
	if l.busyUntil > start {
		start = l.busyUntil
	}
	var trans time.Duration
	if l.bytesPerSec > 0 && size > 0 {
		trans = time.Duration(float64(size) / l.bytesPerSec * float64(time.Second)) //lint:allow float div-then-mul chain has no x*y±z contraction shape; bit-exact on every GOARCH
	}
	if fault != nil && fault.BandwidthFactor > 0 && fault.BandwidthFactor != 1 {
		trans = time.Duration(float64(trans) / fault.BandwidthFactor) //lint:allow float lone division, single rounding, no contraction shape
	}
	done := start + trans
	l.busyUntil = done
	prop := l.halfRTT + n.extraDelay
	if fault != nil {
		prop += fault.ExtraDelay
		if fault.Jitter > 0 {
			prop += time.Duration(n.rng.Float64() * float64(fault.Jitter)) //lint:allow float lone multiply, single rounding, no contraction shape
		}
	}
	if n.slow != nil {
		if s := n.slowFactor(from, to); s > 1 {
			prop = time.Duration(float64(prop) * s) //lint:allow float lone multiply, single rounding, no contraction shape
		}
	}
	arrive := done + prop
	n.BytesSent += uint64(size)
	if n.linkStats != nil {
		n.linkStats.Msgs[src.Region][dst.Region]++
		n.linkStats.Bytes[src.Region][dst.Region] += uint64(size)
	}

	if fault != nil && fault.Loss > 0 && n.rng.Float64() < fault.Loss {
		n.Lost++
		if n.linkStats != nil {
			n.linkStats.Lost[src.Region][dst.Region]++
		}
		return // lost on the wire, bandwidth already consumed
	}
	if n.partition != nil && n.side(from) != n.side(to) {
		return // dropped by the partition, bandwidth already consumed
	}

	e := n.allocEnvelope() //lint:allow hotalloc inlined pool fill (allocEnvelope): one envelope per concurrency high-water mark
	e.net, e.dst = n, dst
	e.msg = Message{From: from, To: to, Size: size, Payload: payload}
	n.spans.Hint("net.deliver", int32(to))
	n.Sched.AtCallKind(sim.KindDelivery, arrive, e)
}

// SetSpans installs (or, with nil, removes) the causal span recorder that
// labels delivery events.
func (n *Network) SetSpans(r *span.Recorder) { n.spans = r }

// LinkStats aggregates directed per-region-pair traffic: messages offered
// to each link, payload bytes, and messages dropped by link faults.
type LinkStats struct {
	Msgs  [NumRegions][NumRegions]uint64
	Bytes [NumRegions][NumRegions]uint64
	Lost  [NumRegions][NumRegions]uint64
}

// SetLinkStats installs (or, with nil, removes) the traffic aggregator.
func (n *Network) SetLinkStats(ls *LinkStats) { n.linkStats = ls }

// LinkLine is one region pair's traffic, for reports.
type LinkLine struct {
	From  string `json:"from"`
	To    string `json:"to"`
	Msgs  uint64 `json:"msgs"`
	Bytes uint64 `json:"bytes"`
	Lost  uint64 `json:"lost,omitempty"`
}

// Lines returns the non-empty region pairs in deterministic (region,
// region) order. Safe on a nil receiver.
func (ls *LinkStats) Lines() []LinkLine {
	if ls == nil {
		return nil
	}
	var out []LinkLine
	for a := 0; a < NumRegions; a++ {
		for b := 0; b < NumRegions; b++ {
			if ls.Msgs[a][b] == 0 && ls.Lost[a][b] == 0 {
				continue
			}
			out = append(out, LinkLine{
				From:  Region(a).String(),
				To:    Region(b).String(),
				Msgs:  ls.Msgs[a][b],
				Bytes: ls.Bytes[a][b],
				Lost:  ls.Lost[a][b],
			})
		}
	}
	return out
}

// Broadcast sends the payload from one node to every other node, its
// deliveries queued as one multicast group (see sim.Scheduler.BeginGroup).
//
//perf:noalloc
func (n *Network) Broadcast(from NodeID, size int, payload any) {
	n.Sched.BeginGroup()
	for _, node := range n.nodes {
		if node.ID != from {
			n.Send(from, node.ID, size, payload)
		}
	}
	n.Sched.EndGroup()
}

// PlaceEvenly returns region assignments for count nodes spread equally
// among the given regions, mirroring the paper's deployment strategy.
func PlaceEvenly(count int, regions []Region) []Region {
	if len(regions) == 0 {
		panic("simnet: no regions")
	}
	out := make([]Region, count)
	for i := range out {
		out[i] = regions[i%len(regions)]
	}
	return out
}
