package chain

import (
	"errors"
	"time"

	"diablo/internal/mempool"
	"diablo/internal/sim"
	"diablo/internal/span"
	"diablo/internal/types"
)

// RetryPolicy configures client-side resubmission: a transaction that is
// neither decided nor rejected within Timeout is resubmitted with
// exponential backoff, up to MaxRetries times, after which the client gives
// up and fires OnTimeout. The zero value disables retries — a submitted
// transaction then waits for its commit indefinitely, as the original
// DIABLO Secondaries do.
type RetryPolicy struct {
	// Timeout is how long to wait for a decision before the first
	// resubmission; 0 disables the policy.
	Timeout time.Duration
	// MaxRetries bounds resubmissions; once exhausted the next timeout
	// abandons the transaction (OnTimeout).
	MaxRetries int
	// Backoff multiplies the wait after each attempt (default 2).
	Backoff float64
}

// Enabled reports whether the policy does anything.
func (p RetryPolicy) Enabled() bool { return p.Timeout > 0 }

// wait returns the timeout before attempt n's decision (0-based).
func (p RetryPolicy) wait(attempt int) time.Duration {
	b := p.Backoff
	if b < 1 {
		b = 2
	}
	w := float64(p.Timeout)
	for i := 0; i < attempt; i++ {
		w *= b
	}
	return time.Duration(w)
}

// retryable reports whether a submission error is transient (the node is
// down but may come back) rather than a policy rejection.
func retryable(err error) bool {
	return errors.Is(err, ErrNodeDown) || errors.Is(err, ErrNodeCrashed)
}

// Client is a blockchain client attached to one node, as used by a DIABLO
// Secondary: it submits pre-signed transactions to its collocated node and
// watches the node's block stream to detect commits, honoring the chain's
// confirmation depth (Solana clients wait 30 appended blocks).
//
// Commit detection is index-assisted: at assembly the network groups each
// block's transactions by the node they were submitted to, so a client only
// inspects the transactions that entered the network through its own node
// instead of scanning every block in full. The observable timing is
// identical to polling (the client learns about a transaction when the
// block reaches its node); only the bookkeeping is cheaper.
type Client struct {
	net  *Network
	node *Node

	// OnDecided fires when a submitted transaction is observed committed
	// (and confirmed) at this client's node.
	OnDecided func(s Submission, status types.ExecStatus, at time.Duration)
	// OnDropped fires when the node rejects a submission (mempool policy).
	OnDropped func(s Submission, err error, at time.Duration)
	// OnTimeout fires when the retry policy gives up on a transaction:
	// attempts resubmissions all timed out. Requires a non-zero RetryPolicy;
	// without one a transaction pending at a dead node lingers forever.
	OnTimeout func(s Submission, attempts int, at time.Duration)

	// Retries counts resubmissions; TimedOut counts abandoned transactions.
	Retries  int
	TimedOut int

	retry RetryPolicy
	// pending counts the transactions this client awaits; their records
	// are in the network's clientState.
	pending int
	// waiting holds txs observed in a block, awaiting confirmation depth:
	// waiting[i] are txs from block number waitBase+i.
	waiting  [][]includedTx
	waitBase uint64
}

// Submission identifies a settled transaction to the client's callbacks: the
// transaction, when Submit was called, and the caller's token from Submit —
// so a caller correlating outcomes with its own records keeps no index of
// its own.
type Submission struct {
	tx        *types.Transaction
	Submitted time.Duration
	Token     any
}

// ID returns the submitted transaction's ID. It is hashed on first use, so
// a caller that never reads it never pays for it.
func (s Submission) ID() types.Hash { return s.tx.ID() }

// pendingTx is the one record of a submitted-but-undecided transaction: the
// signed payload in sub (the retry policy resubmits it unchanged; dedup at
// the node keeps the mempool and commit accounting correct) with what the
// callbacks hand back, the transaction's handle in the pool's table, and the
// retry state. It is also the scheduler callback of its own RPC, so a send
// allocates nothing.
type pendingTx struct {
	c        *Client
	sub      Submission
	handle   uint64
	attempts int
	timer    sim.EventID
	hasTimer bool
	// settled is set once the record left the clientState (decided,
	// dropped, timed out, or superseded by a resubmission of the same
	// transaction); events still in flight for it then do nothing.
	settled bool
}

// decidedTx is a block's verdict on one transaction, as the network lists
// it for the clients of the node the transaction entered through: the
// transaction's handle (its committed mark keeps it) and its status.
type decidedTx struct {
	handle uint64
	status types.ExecStatus
}

// includedTx is one of this client's pending transactions seen in a block.
type includedTx struct {
	p      *pendingTx
	status types.ExecStatus
}

// clientState is what a network's clients share: the record awaiting each
// transaction's decision, indexed by the transaction's handle in the pool's
// table (types.TxTable), so submission, settlement and block delivery find
// a record without hashing the transaction. Its SnapshotState is the
// checkpoint's clients section.
type clientState struct {
	net      *Network
	awaiting []*pendingTx
}

// await makes p the record awaiting its transaction's decision and marks
// the transaction awaited. A record already awaiting the same transaction is
// superseded: it settles without a callback.
func (cs *clientState) await(p *pendingTx) {
	p.handle = cs.net.Pool.Txs().Mark(p.sub.tx, types.TxAwaited)
	for uint64(len(cs.awaiting)) <= p.handle {
		cs.awaiting = append(cs.awaiting, nil)
	}
	if old := cs.awaiting[p.handle]; old != nil {
		old.settled = true
		old.c.pending--
	}
	cs.awaiting[p.handle] = p
	p.c.pending++
}

// release retires p's place: its transaction is no longer awaited, and its
// slot in the pool's table is freed unless pooled or committed.
func (cs *clientState) release(p *pendingTx) {
	cs.awaiting[p.handle] = nil
	p.c.pending--
	cs.net.Pool.Txs().Unmark(p.handle, p.sub.tx, types.TxAwaited)
}

// awaiter returns the record awaiting the transaction with handle h, or nil.
func (cs *clientState) awaiter(h uint64) *pendingTx {
	if h < uint64(len(cs.awaiting)) {
		return cs.awaiting[h]
	}
	return nil
}

// rpcLatency is the client-to-collocated-node submission latency.
const rpcLatency = 500 * time.Microsecond

// NewClient attaches a client to the given node. The client starts with the
// network's DefaultRetry policy.
func (n *Network) NewClient(nodeIdx int) *Client {
	c := &Client{
		net:   n,
		node:  n.Nodes[nodeIdx],
		retry: n.DefaultRetry,
	}
	c.node.clients = append(c.node.clients, c)
	return c
}

// NodeIndex returns the node this client talks to.
func (c *Client) NodeIndex() int { return c.node.Index }

// Pending returns the number of submitted-but-undecided transactions.
func (c *Client) Pending() int { return c.pending }

// SetRetry replaces the client's retry policy.
func (c *Client) SetRetry(p RetryPolicy) { c.retry = p }

// Submit sends a pre-signed transaction to the client's node. The
// submission reaches the node after the chain's client-side overhead plus
// RPC latency; policy rejection surfaces through OnDropped, and — when a
// retry policy is set — transient failures and silent losses are retried
// until OnDecided or OnTimeout settles the transaction. token comes back in
// the callbacks' Submission; a pointer or nil costs no allocation.
//
// A transaction is awaited by one record at a time: submitting it again,
// through this client or another, supersedes the earlier record, which then
// settles without a callback.
func (c *Client) Submit(tx *types.Transaction, token any) {
	n, now := c.net, c.net.Sched.Now()
	p := &pendingTx{c: c, sub: Submission{tx: tx, Submitted: now, Token: token}}
	n.clients.await(p)
	n.Obs.Submitted.Inc()
	if n.tracer != nil {
		n.tracer.Submit(now, tx.ID(), c.node.Index)
	}
	if n.spans != nil {
		n.spans.PointTx(now, span.LabelSubmit, int32(c.node.Index), tx.ID())
	}
	c.send(p)
}

// send performs one submission attempt for a tracked transaction.
func (c *Client) send(p *pendingTx) {
	delay := rpcLatency + c.net.Params.SubmitOverhead
	c.net.spans.Hint("client.rpc", int32(c.node.Index))
	c.net.Sched.AfterCallKind(sim.KindClient, delay, p)
}

// Run implements sim.Callback: the RPC of one attempt arriving at the node.
//
//perf:noalloc
func (p *pendingTx) Run() {
	if p.settled {
		return // decided while the attempt was in flight
	}
	c := p.c
	if c.net.tracer != nil {
		c.net.tracer.Send(c.net.Sched.Now(), p.sub.ID(), c.node.Index, p.attempts)
	}
	err := c.node.SubmitTx(p.sub.tx)
	switch {
	case err == nil:
		c.arm(p)
	case c.retry.Enabled() && errors.Is(err, mempool.ErrDuplicate):
		// Already known from an earlier attempt. Poll the receipt: the
		// transaction may have committed in a block this client never
		// saw (its node was down when the block was decided). A real
		// client recovers exactly this way — "already known" from the
		// RPC, then a receipt query.
		if r, done := c.net.Receipt(p.sub.ID()); done {
			c.decide(p, r.Status)
			return
		}
		// Still pooled; keep waiting for the decision.
		c.arm(p)
	case c.retry.Enabled() && retryable(err):
		// The node is down; back off and try again.
		c.arm(p)
	default:
		c.settle(p)
		if c.OnDropped != nil {
			c.OnDropped(p.sub, err, c.net.Sched.Now())
		}
	}
}

// arm starts the decision timeout for the current attempt (no-op without a
// retry policy).
func (c *Client) arm(p *pendingTx) {
	if !c.retry.Enabled() {
		return
	}
	c.net.spans.Hint("client.retry", int32(c.node.Index))
	p.timer = c.net.Sched.AfterKind(sim.KindClient, c.retry.wait(p.attempts), func() { c.expire(p) })
	p.hasTimer = true
}

// expire handles a decision timeout: resubmit with backoff, or give up once
// retries are exhausted.
func (c *Client) expire(p *pendingTx) {
	if p.settled {
		return
	}
	if p.attempts >= c.retry.MaxRetries {
		c.settle(p)
		c.TimedOut++
		c.net.TotalTimeouts++
		c.net.Obs.Timeouts.Inc()
		if c.net.tracer != nil {
			c.net.tracer.Timeout(c.net.Sched.Now(), p.sub.ID(), p.attempts)
		}
		if c.OnTimeout != nil {
			c.OnTimeout(p.sub, p.attempts, c.net.Sched.Now())
		}
		return
	}
	p.attempts++
	c.Retries++
	c.net.TotalRetries++
	c.net.Obs.Retries.Inc()
	if c.net.tracer != nil {
		c.net.tracer.Retry(c.net.Sched.Now(), p.sub.ID(), p.attempts)
	}
	c.send(p)
}

// settle retires a transaction's record, cancelling any retry timer.
func (c *Client) settle(p *pendingTx) {
	if p.hasTimer {
		p.timer.Cancel()
	}
	p.settled = true
	c.net.clients.release(p)
}

// decide settles a transaction observed committed and reports it.
func (c *Client) decide(p *pendingTx, status types.ExecStatus) {
	now := c.net.Sched.Now()
	c.settle(p)
	c.net.Obs.Decided.Inc()
	if c.net.tracer != nil {
		c.net.tracer.Commit(now, p.sub.ID(), c.node.Index)
	}
	if c.net.spans != nil {
		c.net.spans.PointTx(now, span.LabelCommit, int32(c.node.Index), p.sub.ID())
	}
	if c.OnDecided != nil {
		c.OnDecided(p.sub, status, now)
	}
}

// onBlock handles a committed block arriving at the client's node. mine
// lists the block's transactions that entered the network via this node.
// Once ConfirmDepth further blocks have arrived, matches are decided.
func (c *Client) onBlock(blk *types.Block, mine []decidedTx) {
	if len(c.waiting) == 0 {
		c.waitBase = blk.Number
	}
	for c.waitBase+uint64(len(c.waiting)) <= blk.Number {
		c.waiting = append(c.waiting, nil)
	}
	if len(mine) > 0 && c.pending > 0 {
		slot := 0
		if blk.Number > c.waitBase {
			slot = int(blk.Number - c.waitBase)
		}
		for _, d := range mine {
			if p := c.net.clients.awaiter(d.handle); p != nil && p.c == c {
				c.waiting[slot] = append(c.waiting[slot], includedTx{p: p, status: d.status})
			}
		}
	}
	// Decide everything at confirmation depth.
	confirmed := int64(blk.Number) - int64(c.net.Params.ConfirmDepth) - int64(c.waitBase)
	for i := int64(0); i <= confirmed && i < int64(len(c.waiting)); i++ {
		for _, in := range c.waiting[i] {
			if !in.p.settled {
				c.decide(in.p, in.status)
			}
		}
		c.waiting[i] = nil
	}
	// Trim the decided prefix of the window.
	for len(c.waiting) > 0 && c.waiting[0] == nil &&
		int64(c.waitBase) <= int64(blk.Number)-int64(c.net.Params.ConfirmDepth) {
		c.waiting = c.waiting[1:]
		c.waitBase++
	}
}
