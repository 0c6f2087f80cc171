package chain

import (
	"bytes"
	"sort"

	"diablo/internal/snapshot"
	"diablo/internal/types"
)

// SnapshotState implements snapshot.Stater for the deployed network:
// ledger position, commit/retry counters, fee and overload state, and
// digests over the ledger and per-node view heights.
func (n *Network) SnapshotState(e *snapshot.Encoder) {
	e.U64("height", n.height)
	e.U64("blocks", n.TotalBlocks)
	e.U64("committed_txs", n.TotalCommittedTxs)
	e.U64("retries", n.TotalRetries)
	e.U64("timeouts", n.TotalTimeouts)
	e.Bool("crashed", n.crashed)
	e.Dur("crashed_at", n.CrashedAt)
	e.U64("base_fee", n.baseFee)
	e.U64("overload_excess", n.arrivals.excess)
	e.U64("receipts", uint64(len(n.receipts)))

	ledger := snapshot.NewHash()
	for _, blk := range n.ledger {
		h := blk.Hash()
		ledger.U64(blk.Number)
		ledger.Bytes(h[:])
		ledger.Dur(blk.Timestamp)
		ledger.U64(uint64(len(blk.Txs)))
		ledger.U64(blk.GasUsed)
	}
	e.U64("ledger_digest", ledger.Sum())

	views := snapshot.NewHash()
	for _, nd := range n.Nodes {
		views.U64(nd.Height)
	}
	e.U64("view_digest", views.Sum())
}

// xorHashes folds a set of transaction IDs order-independently, so state
// held in maps can be digested without sorting on every checkpoint.
func xorHashes(h uint64, id types.Hash) uint64 {
	return h ^ snapshot.Digest(id[:])
}

// SnapshotClients captures every client's submission-tracking state, in
// node order then attachment order (both deterministic).
func (n *Network) SnapshotClients(e *snapshot.Encoder) { n.clients.SnapshotState(e) }

// SnapshotState implements snapshot.Stater for the network's clients.
func (cs *clientState) SnapshotState(e *snapshot.Encoder) {
	// Each client's awaited IDs, folded in one pass over the shared index.
	awaited := map[*Client]uint64{}
	for _, p := range cs.awaiting {
		if p != nil {
			awaited[p.c] = xorHashes(awaited[p.c], p.sub.ID())
		}
	}
	var clients, pending, retries, timedOut uint64
	h := snapshot.NewHash()
	for _, nd := range cs.net.Nodes {
		for _, c := range nd.clients {
			clients++
			pending += uint64(c.pending)
			retries += uint64(c.Retries)
			timedOut += uint64(c.TimedOut)
			h.I64(int64(nd.Index))
			h.U64(uint64(c.pending))
			h.U64(c.waitBase)
			h.U64(uint64(len(c.waiting)))
			h.U64(awaited[c])
			for _, slot := range c.waiting {
				h.U64(uint64(len(slot)))
				for _, in := range slot {
					id := in.p.sub.ID()
					h.Bytes(id[:])
				}
			}
		}
	}
	e.U64("clients", clients)
	e.U64("pending", pending)
	e.U64("retries", retries)
	e.U64("timed_out", timedOut)
	e.U64("state_digest", h.Sum())
}

// SnapshotState implements snapshot.Stater for the executor: execution
// counters, the state commitment, and digests over balances and nonces in
// sorted-address order.
func (x *Executor) SnapshotState(e *snapshot.Encoder) {
	e.U64("executed", x.Executed)
	e.U64("replayed", x.Replayed)
	root := x.StateRoot()
	e.Bytes("state_root", root[:])
	e.U64("contracts", uint64(len(x.contracts)))
	e.U64("cache_entries", uint64(len(x.cache)))

	addrs := make([]types.Address, 0, len(x.balances))
	for a := range x.balances {
		addrs = append(addrs, a)
	}
	sort.Slice(addrs, func(i, j int) bool { return bytes.Compare(addrs[i][:], addrs[j][:]) < 0 })
	bal := snapshot.NewHash()
	for _, a := range addrs {
		bal.Bytes(a[:])
		bal.U64(x.balances[a])
	}
	e.U64("balances_digest", bal.Sum())

	addrs = addrs[:0]
	for a := range x.nonces {
		addrs = append(addrs, a)
	}
	sort.Slice(addrs, func(i, j int) bool { return bytes.Compare(addrs[i][:], addrs[j][:]) < 0 })
	non := snapshot.NewHash()
	for _, a := range addrs {
		non.Bytes(a[:])
		non.U64(x.nonces[a])
	}
	e.U64("nonces_digest", non.Sum())
}
