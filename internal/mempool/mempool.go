// Package mempool implements the transaction-pool policies whose
// differences drive the paper's robustness findings (§6.3, §6.5):
//
//   - Quorum's IBFT was "historically designed to never drop a client
//     request": an unbounded pool that queues everything and collapses
//     under sustained overload.
//   - Diem caps both the per-signer count (100 transactions per sender)
//     and the pool size, dropping the excess: it sheds load during peaks
//     but survives constant overload better.
//   - geth-style pools are large but finite; Algorand's and Solana's are
//     smaller, producing the commit-ratio plateaus of Fig. 6.
//
// The pool is logically global with per-node visibility delays: instead of
// simulating per-transaction gossip between 200 replicas (memory- and
// event-prohibitive), each entry records where and when it entered the
// network, and a proposer only sees entries whose gossip delay from their
// origin has elapsed. Consensus-protocol messages remain real simulated
// messages; only transaction dissemination is aggregated this way.
package mempool

import (
	"errors"
	"time"

	"diablo/internal/types"
)

// Policy configures a pool.
type Policy struct {
	// Capacity bounds the number of pending transactions; 0 = unbounded
	// (the IBFT "never drop" design).
	Capacity int
	// PerSender bounds pending transactions from one sender (Diem: 100).
	PerSender int
}

// Admission errors.
var (
	ErrPoolFull  = errors.New("mempool: pool is full")
	ErrSenderCap = errors.New("mempool: too many pending transactions from sender")
	ErrDuplicate = errors.New("mempool: duplicate transaction")
)

// Entry is a pending transaction with its network entry point.
type Entry struct {
	Tx     *types.Transaction
	Origin int           // node the client submitted to
	Seen   time.Duration // virtual time of submission
}

// VisibilityFunc returns the gossip delay for a transaction originating at
// node origin to become visible at node viewer.
type VisibilityFunc func(origin, viewer int) time.Duration

// AdmitHook observes successful admissions. The harness wires it to the
// causal span layer so every admission opens a "mempool.admit" anchor
// span; nil (the default) costs nothing.
type AdmitHook func(tx *types.Transaction, origin int, now time.Duration)

// Pool is a FIFO transaction pool with policy enforcement and per-node
// visibility. It is not safe for concurrent use; the simulation is
// single-threaded.
//
// Ordering invariant: entries is sorted by Seen. Add is only ever called
// with the scheduler's current time, which never goes back, and every
// removal keeps the relative order; Add panics on a time before the newest
// entry's. TakeWith relies on it twice: expired entries (MaxAge) are a
// prefix, and no entry behind the one that ends a take needs looking at.
type Pool struct {
	policy   Policy
	entries  []Entry                 // FIFO, sorted by Seen
	byID     map[types.Hash]struct{} //lint:allow snapshotdrift index over entries; the entries digest covers the canonical order
	bySender map[types.Address]int   //lint:allow snapshotdrift index over entries; the entries digest covers the canonical order
	visible  VisibilityFunc
	dropped  uint64
	accepted uint64
	onAdmit  AdmitHook
}

// SetAdmitHook installs the admission observer.
func (p *Pool) SetAdmitHook(h AdmitHook) { p.onAdmit = h }

// New creates a pool. visible may be nil, meaning instant visibility.
func New(policy Policy, visible VisibilityFunc) *Pool {
	return &Pool{
		policy:   policy,
		byID:     make(map[types.Hash]struct{}),
		bySender: make(map[types.Address]int),
		visible:  visible,
	}
}

// Len returns the number of pending transactions.
func (p *Pool) Len() int { return len(p.entries) }

// Dropped returns how many submissions were rejected by policy.
func (p *Pool) Dropped() uint64 { return p.dropped }

// Accepted returns how many submissions were admitted.
func (p *Pool) Accepted() uint64 { return p.accepted }

// Add admits a transaction submitted at node origin at virtual time now.
func (p *Pool) Add(tx *types.Transaction, origin int, now time.Duration) error {
	id := tx.ID()
	if _, dup := p.byID[id]; dup {
		return ErrDuplicate
	}
	if p.policy.Capacity > 0 && len(p.entries) >= p.policy.Capacity {
		p.dropped++
		return ErrPoolFull
	}
	if p.policy.PerSender > 0 && p.bySender[tx.From] >= p.policy.PerSender {
		p.dropped++
		return ErrSenderCap
	}
	if n := len(p.entries); n > 0 && now < p.entries[n-1].Seen {
		panic("mempool: Add at a time before the newest pending entry")
	}
	p.entries = append(p.entries, Entry{Tx: tx, Origin: origin, Seen: now})
	p.byID[id] = struct{}{}
	p.bySender[tx.From]++
	p.accepted++
	if p.onAdmit != nil {
		p.onAdmit(tx, origin, now)
	}
	return nil
}

// Contains reports whether the transaction is pending.
func (p *Pool) Contains(id types.Hash) bool {
	_, ok := p.byID[id]
	return ok
}

// TakeSpec parameterizes a block-assembly TakeWith.
type TakeSpec struct {
	// Viewer and Now select which entries are visible (gossip delays).
	Viewer int
	Now    time.Duration
	// MaxTxs bounds the transaction count (0 = unlimited).
	MaxTxs int
	// MaxGas bounds total gas via GasOf (0 = unlimited).
	MaxGas uint64
	GasOf  func(*types.Transaction) uint64
	// MaxCost bounds total assembly time via CostOf (0 = unlimited); used
	// by slot-driven chains whose leaders can only pack what executes
	// within the fixed slot.
	MaxCost time.Duration
	CostOf  func(*types.Transaction) time.Duration
	// NextNonce, when set, enforces strict per-sender sequencing (Diem): a
	// sender's transactions are taken only in contiguous nonce order, so a
	// gap — e.g. a dropped transaction — stalls everything behind it from
	// that sender, the mechanism behind Diem's collapse under drops (§6.3).
	NextNonce func(types.Address) uint64
	// MinGasPrice, when positive, skips (but keeps pooled) transactions
	// whose gas price is below the current base fee — the London
	// underpricing behaviour (§5.2: a pre-signed transaction "risks to be
	// underpriced" when the fee rises).
	MinGasPrice uint64
	// MaxAge, when positive, evicts (drops) entries older than this —
	// Solana invalidates transactions whose recent blockhash is more than
	// ~120 seconds old (§5.2).
	MaxAge time.Duration
	// Skip, when set, excludes (but keeps pooled) entries the proposer
	// refuses to pack — a censoring Byzantine proposer. Skipped entries
	// stay visible to honest proposers.
	Skip func(tx *types.Transaction, origin int) bool
	// Origins, when set, receives the origin node of each returned
	// transaction, in order: block assembly groups a block's transactions
	// by the node their clients watch.
	Origins *[]int32
}

// TakeWith removes and returns the transactions the spec selects, in FIFO
// order; entries not yet visible to the viewer are skipped but stay pooled
// (see TakeSpec). It scans from the head only as far as the entry that
// ends the take (MaxTxs, MaxGas or MaxCost reached), so a block's worth
// out of a deep backlog costs O(taken + skipped), not O(depth); the
// ordering invariant makes that exact.
func (p *Pool) TakeWith(spec TakeSpec) []*types.Transaction {
	var out []*types.Transaction
	var gas uint64
	var cost time.Duration
	var expect map[types.Address]uint64
	if spec.NextNonce != nil {
		expect = make(map[types.Address]uint64)
	}
	es := p.entries
	kept := 0 // es[:kept] are the scanned entries that stay pooled
	stop := 0 // es[stop:] were not looked at
scan:
	for ; stop < len(es); stop++ {
		e := es[stop]
		switch {
		case spec.MaxAge > 0 && spec.Now-e.Seen > spec.MaxAge:
			// Expired (stale recent-blockhash): permanently invalid.
			p.remove(e.Tx)
			p.dropped++
			continue
		case p.visible != nil && e.Seen+p.visible(e.Origin, spec.Viewer) > spec.Now:
			// Not gossiped to this viewer yet.
		case spec.Skip != nil && spec.Skip(e.Tx, e.Origin):
			// Censored by this proposer: stays pooled for honest ones.
		case spec.MinGasPrice > 0 && e.Tx.GasPrice < spec.MinGasPrice:
			// Underpriced under the current base fee: stays pooled until
			// the fee falls (or forever, the paper's stuck-transaction
			// risk).
		case spec.NextNonce != nil && e.Tx.Nonce != nextNonce(expect, spec.NextNonce, e.Tx.From):
			// Out of order: a gap stalls this sender.
		default:
			g := uint64(0)
			if spec.GasOf != nil {
				g = spec.GasOf(e.Tx)
			}
			var c time.Duration
			if spec.CostOf != nil {
				c = spec.CostOf(e.Tx)
			}
			if len(out) > 0 && (spec.MaxGas > 0 && gas+g > spec.MaxGas || spec.MaxCost > 0 && cost+c > spec.MaxCost) {
				break scan // the block is full; e and all behind it stay
			}
			p.remove(e.Tx)
			if spec.MaxGas > 0 && g > spec.MaxGas {
				// Single transaction above the block gas limit can never be
				// included; drop it so it does not wedge the pool head.
				p.dropped++
				continue
			}
			out = append(out, e.Tx)
			if spec.Origins != nil {
				*spec.Origins = append(*spec.Origins, int32(e.Origin))
			}
			gas += g
			cost += c
			if expect != nil {
				expect[e.Tx.From] = e.Tx.Nonce + 1
			}
			if spec.MaxTxs > 0 && len(out) >= spec.MaxTxs {
				stop++
				break scan
			}
			continue
		}
		es[kept] = e
		kept++
	}
	if stop == len(es) {
		// Scanned to the end: compact in place and keep the capacity.
		clear(es[kept:])
		p.entries = es[:kept]
		return out
	}
	// Slide the kept entries up against the untouched tail and drop the
	// vacated head; cleared so the taken transactions are not kept reachable.
	head := stop - kept
	copy(es[head:stop], es[:kept])
	clear(es[:head])
	p.entries = es[head:]
	return out
}

// nextNonce is the nonce a sender's next taken transaction must carry: one
// past its last transaction taken in this call, else what the chain expects.
func nextNonce(taken map[types.Address]uint64, chain func(types.Address) uint64, from types.Address) uint64 {
	if n, ok := taken[from]; ok {
		return n
	}
	return chain(from)
}

// remove updates the indexes for a transaction leaving the pool. The entry
// slice itself is managed by the caller.
func (p *Pool) remove(tx *types.Transaction) {
	delete(p.byID, tx.ID())
	if c := p.bySender[tx.From]; c <= 1 {
		delete(p.bySender, tx.From)
	} else {
		p.bySender[tx.From] = c - 1
	}
}

// RemoveCommitted evicts transactions that were committed in a block
// produced elsewhere (e.g. by another proposer).
func (p *Pool) RemoveCommitted(ids map[types.Hash]struct{}) int {
	if len(ids) == 0 {
		return 0
	}
	kept := p.entries[:0]
	removed := 0
	for _, e := range p.entries {
		if _, hit := ids[e.Tx.ID()]; hit {
			p.remove(e.Tx)
			removed++
			continue
		}
		kept = append(kept, e)
	}
	p.entries = kept
	return removed
}

// OldestSeen returns the submission time of the oldest pending entry, or
// false when empty (used to detect backlog growth).
func (p *Pool) OldestSeen() (time.Duration, bool) {
	if len(p.entries) == 0 {
		return 0, false
	}
	return p.entries[0].Seen, true
}
