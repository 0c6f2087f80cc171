package simnet

import (
	"sort"

	"diablo/internal/snapshot"
)

// SnapshotState implements snapshot.Stater: traffic counters, the fault
// PRNG position, and digests over the mutable fault and link state. Maps
// are folded in node-ID or sorted-key order so the payload never depends
// on Go map iteration.
func (n *Network) SnapshotState(e *snapshot.Encoder) {
	e.U64("delivered", n.Delivered)
	e.U64("bytes_sent", n.BytesSent)
	e.U64("lost", n.Lost)
	e.U64("fault_draws", n.rngSrc.Draws())
	e.U64("fault_epoch", n.faultEpoch)
	e.Dur("extra_delay", n.extraDelay)
	e.U64("nodes", uint64(len(n.nodes)))

	crashed := snapshot.NewHash()
	for _, node := range n.nodes {
		if node.crashed {
			crashed.I64(int64(node.ID))
		}
	}
	e.U64("crashed_digest", crashed.Sum())

	part := snapshot.NewHash()
	if n.partition != nil {
		for _, node := range n.nodes {
			part.I64(int64(n.side(node.ID)))
		}
	}
	e.U64("partition_digest", part.Sum())

	slow := snapshot.NewHash()
	for _, node := range n.nodes {
		if f, ok := n.slow[node.ID]; ok {
			slow.I64(int64(node.ID))
			slow.U64(uint64(f * 1e6)) //lint:allow float fixed-point via a lone multiply by an exact power of ten: single rounding, avoids float formatting
		}
	}
	e.U64("slow_digest", slow.Sum())

	faults := snapshot.NewHash()
	keys := make([][2]Region, 0, len(n.linkFaults))
	for k := range n.linkFaults {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i][0] != keys[j][0] {
			return keys[i][0] < keys[j][0]
		}
		return keys[i][1] < keys[j][1]
	})
	foldFault := func(f *LinkFault) {
		faults.U64(uint64(f.Loss * 1e9)) //lint:allow float lone multiply by an exact power of ten: fixed-point with a single rounding
		faults.Dur(f.ExtraDelay)
		faults.Dur(f.Jitter)
		faults.U64(uint64(f.BandwidthFactor * 1e6)) //lint:allow float lone multiply by an exact power of ten: fixed-point with a single rounding
	}
	for _, k := range keys {
		faults.I64(int64(k[0]))
		faults.I64(int64(k[1]))
		foldFault(n.linkFaults[k])
	}
	if n.allLinks != nil {
		faults.Str("all")
		foldFault(n.allLinks)
	}
	e.U64("link_fault_digest", faults.Sum())

	busy := snapshot.NewHash()
	now := n.Sched.Now()
	for from := range n.links {
		for to := range n.links[from] {
			// Only queue backlog still in the future matters; stale
			// busyUntil values differ between runs that initialized links
			// at different virtual times but never affect future sends.
			if b := n.links[from][to].busyUntil; b > now {
				busy.I64(int64(from))
				busy.I64(int64(to))
				busy.Dur(b - now)
			}
		}
	}
	e.U64("busy_digest", busy.Sum())
}
