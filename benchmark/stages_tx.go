package main

import (
	"fmt"
	"time"

	"diablo/internal/chains"
	"diablo/internal/core"
	"diablo/internal/mempool"
	"diablo/internal/stream"
	"diablo/internal/types"
	"diablo/internal/wallet"
	"diablo/internal/workloads"
)

// stageGenerators times trace and stream generation: the set-up side of
// fifa-quorum (ByName + ForEach over 591k instants) and the pull side of
// stream-mint (Build + Next over the flash crowd).
func (s *stages) stageGenerators() error {
	var err error
	txs := 0
	d := s.spans.time("workloads.ByName+ForEach", func() {
		for i := 0; i < s.n(3, 1) && err == nil; i++ {
			var tr *workloads.Trace
			if tr, err = workloads.ByName("fifa98"); err == nil {
				tr.ForEach(func(int, time.Duration) { txs++ })
			}
		}
	})
	if err != nil {
		return err
	}
	s.l.put("workloads.gen_ns_per_tx", perOp(d, txs, time.Nanosecond))

	intents := 0
	d = s.spans.time("stream.Build+Next", func() {
		var src stream.Source
		src, err = stream.Build(stream.Config{
			Scenario: "flash-mint",
			Clients:  uint64(s.n(1_000_000, 20_000)),
			Peak:     8000,
			Decay:    60 * time.Second,
			Duration: 120 * time.Second,
		}, s.seed)
		if err != nil {
			return
		}
		var it stream.Intent
		for src.Next(&it) {
			intents++
		}
	})
	if err != nil {
		return err
	}
	s.l.put("stream.next_ns_per_tx", perOp(d, intents, time.Nanosecond))
	return nil
}

// permuted is the i-th index of an affine scan over a million clients, so
// that a lazy wallet's direct-mapped cache never hits.
func permuted(i int) uint64 { return (uint64(i)*611_953 + 7) % 1_000_000 }

// stageWallet times key provisioning (every cell's wallet.New of 2,000
// accounts), signing (fifa-quorum) and lazy derivation (stream-mint).
func (s *stages) stageWallet() error {
	namespace := fmt.Sprintf("benchmark-%d", s.seed)
	var w *wallet.Wallet
	reps := s.n(5, 1)
	d := s.spans.time("wallet.New", func() {
		for i := 0; i < reps; i++ {
			w = wallet.New(wallet.FastScheme{}, namespace, hotSenders)
		}
	})
	s.l.put("wallet.new_ms", perOp(d, reps, time.Millisecond))

	n := s.n(200_000, 2000)
	data := make([]byte, 8)
	d = s.spans.time("Account.SignNext", func() {
		for i := 0; i < n; i++ {
			tx := types.Transaction{Kind: types.KindInvoke, GasLimit: 5_000_000, GasPrice: 1, Data: data}
			w.Get(i % hotSenders).SignNext(&tx)
		}
	})
	s.l.put("wallet.sign_ns_per_tx", perOp(d, n, time.Nanosecond))

	lazy := wallet.NewLazy(wallet.FastScheme{}, namespace+"/stream", 0)
	d = s.spans.time("Lazy.Account", func() {
		for i := 0; i < n; i++ {
			lazy.Account(permuted(i))
		}
	})
	s.l.put("wallet.lazy_ns_per_account", perOp(d, n, time.Nanosecond))
	if lazy.Hits != 0 {
		return fmt.Errorf("lazy wallet hit its cache %d times on permuted indices", lazy.Hits)
	}
	return nil
}

// stageTypes times the two hashes every transaction and block pays.
func (s *stages) stageTypes() error {
	n := s.n(200_000, 2000)
	txs := make([]types.Transaction, n)
	data := make([]byte, 8)
	for i := range txs {
		txs[i] = types.Transaction{Kind: types.KindInvoke, Nonce: uint64(i), GasLimit: 5_000_000, GasPrice: 1, Data: data}
	}
	d := s.spans.time("Transaction.ID", func() {
		for i := range txs {
			txs[i].ID()
		}
	})
	s.l.put("types.txid_ns", perOp(d, n, time.Nanosecond))

	const blockTxs = 1000
	blocks := make([]types.Block, s.n(200, 2))
	for b := range blocks {
		blk := &blocks[b]
		blk.Number = uint64(b + 1)
		for i := 0; i < blockTxs; i++ {
			blk.Txs = append(blk.Txs, &txs[(b*blockTxs+i)%n])
		}
	}
	d = s.spans.time("Block.Hash", func() {
		for b := range blocks {
			blocks[b].Hash()
		}
	})
	s.l.put("types.block_hash_us", perOp(d, len(blocks), time.Microsecond))
	return nil
}

// stageCore times the client side of the run path on a deployed 20-node
// Quorum: Encode for a provisioned sender (fifa-quorum) and for an implicit
// one (stream-mint), then Trigger together with the RPC event that carries
// the transaction into Node.SubmitTx and the pool.
func (s *stages) stageCore() error {
	net, err := deployQuorum(s.seed, 20)
	if err != nil {
		return err
	}
	ad := core.NewSimAdapter(net, wallet.New(wallet.FastScheme{}, fmt.Sprintf("benchmark-%d", s.seed), hotSenders))
	fifa, err := ad.CreateResource(core.ResourceSpec{Kind: core.ResourceContract, Name: "fifa"})
	if err != nil {
		return err
	}
	nft, err := ad.CreateResource(core.ResourceSpec{Kind: core.ResourceContract, Name: "nft"})
	if err != nil {
		return err
	}
	cl, err := ad.CreateClient([]core.Endpoint{0})
	if err != nil {
		return err
	}
	cl.Observe(func(any, core.Observation) {})

	n := s.n(100_000, 1000)
	encoded := make([]core.Interaction, n)
	d := s.spans.time("Client.Encode", func() {
		for i := range encoded {
			encoded[i], err = cl.Encode(core.InteractionSpec{
				Kind: core.InteractInvoke, From: i % hotSenders, Contract: fifa, Function: "add",
			})
			if err != nil {
				return
			}
		}
	})
	if err != nil {
		return err
	}
	s.l.put("core.encode_ns_per_tx", perOp(d, n, time.Nanosecond))

	d = s.spans.time("Client.Encode implicit", func() {
		for i := 0; i < n; i++ {
			_, err = cl.Encode(core.InteractionSpec{
				Kind: core.InteractInvoke, Implicit: true, FromIndex: permuted(i), Contract: nft, Function: "mint",
			})
			if err != nil {
				return
			}
		}
	})
	if err != nil {
		return err
	}
	s.l.put("core.encode_implicit_ns_per_tx", perOp(d, n, time.Nanosecond))

	// The engine submits one 50 ms window (a few hundred transactions) per
	// event; the RPC events of a window run before the next one.
	const window = 256
	d = s.spans.time("Client.Trigger+rpc", func() {
		for i, e := range encoded {
			if err = cl.Trigger(e, int32(i)); err != nil {
				return
			}
			if i%window == window-1 {
				net.Sched.RunFor(time.Millisecond)
			}
		}
		net.Sched.RunFor(time.Millisecond)
	})
	if err != nil {
		return err
	}
	s.l.put("core.trigger_ns_per_tx", perOp(d, n, time.Nanosecond))
	if net.Pool.Len() != n {
		return fmt.Errorf("pool holds %d of %d triggered transactions", net.Pool.Len(), n)
	}
	return nil
}

// gossipDelay stands in for the network's region-pair visibility table.
func gossipDelay(origin, viewer int) time.Duration {
	if origin == viewer {
		return 0
	}
	return 50 * time.Millisecond
}

// fill adds txs to p, entry i arriving at node i%nodes at i*step, and
// returns how many were admitted.
func fill(p *mempool.Pool, txs []*types.Transaction, nodes int, step time.Duration) int {
	admitted := 0
	for i, tx := range txs {
		if p.Add(tx, i%nodes, time.Duration(i)*step) == nil {
			admitted++
		}
	}
	return admitted
}

// stageMempool times admission and block-assembly takes under the three
// policy shapes the workloads meet: Quorum's never-drop pool at fifa-quorum
// depth (hot senders) and with all-new senders (stream-mint), and the capped,
// sequenced and expiring pools of chains-devnet's Diem and Solana cells.
func (s *stages) stageMempool() error {
	const nodes = 20
	hot, err := s.hot()
	if err != nil {
		return err
	}
	depth := len(hot)

	pool := mempool.New(mempool.Policy{}, gossipDelay)
	d := s.spans.time("Pool.Add hot", func() { fill(pool, hot, nodes, time.Microsecond) })
	s.l.put("mempool.add_ns_per_tx.hot", perOp(d, depth, time.Nanosecond))

	// Deep takes: Quorum's 1,500-transaction blocks out of the full pool.
	now := time.Duration(depth)*time.Microsecond + time.Second
	taken := 0
	d = s.spans.time("Pool.TakeWith deep", func() {
		for i := 0; i < s.n(20, 2); i++ {
			taken += len(pool.TakeWith(mempool.TakeSpec{Viewer: 0, Now: now, MaxTxs: 1500}))
		}
	})
	s.l.put("mempool.take_ns_per_tx.deep", perOp(d, taken, time.Nanosecond))

	cold, err := invokeTxs(depth, depth, 0xA1)
	if err != nil {
		return err
	}
	pool = mempool.New(mempool.Policy{}, gossipDelay)
	d = s.spans.time("Pool.Add cold", func() { fill(pool, cold, nodes, time.Microsecond) })
	s.l.put("mempool.add_ns_per_tx.cold", perOp(d, depth, time.Nanosecond))

	// Diem: 9,800 entries, 100 per sender, strict nonces, 1,000 per block.
	// Once the pool is at capacity every further Add is a rejection.
	diem := chains.MustParams("diem")
	capacity := min(diem.Mempool.Capacity, depth/2)
	pool = mempool.New(mempool.Policy{Capacity: capacity, PerSender: diem.Mempool.PerSender}, gossipDelay)
	if got := fill(pool, hot[:capacity], nodes, time.Microsecond); got != capacity {
		return fmt.Errorf("capped pool admitted %d of %d", got, capacity)
	}
	rejected := hot[capacity:]
	d = s.spans.time("Pool.Add capped", func() { fill(pool, rejected, nodes, time.Microsecond) })
	s.l.put("mempool.add_ns_per_tx.capped", perOp(d, len(rejected), time.Nanosecond))

	next := map[types.Address]uint64{}
	taken = 0
	var takes stopwatch
	s.spans.begin("Pool.TakeWith sequenced")
	for round := 0; round < s.n(10, 1); round++ {
		if round > 0 {
			clear(next)
			fill(pool, hot[:capacity], nodes, time.Microsecond)
		}
		for pool.Len() > 0 {
			takes.start()
			txs := pool.TakeWith(mempool.TakeSpec{
				Viewer: 0, Now: now, MaxTxs: diem.MaxBlockTxs,
				NextNonce: func(a types.Address) uint64 { return next[a] },
			})
			takes.stop()
			if len(txs) == 0 {
				return fmt.Errorf("sequenced take stalled with %d pooled", pool.Len())
			}
			for _, tx := range txs {
				next[tx.From] = tx.Nonce + 1
			}
			taken += len(txs)
		}
	}
	s.spans.end()
	s.l.put("mempool.take_ns_per_tx.sequenced", perOp(takes.total, taken, time.Nanosecond))

	// Solana: 5,200 entries that expire after 120 s. Entries arrive 50 ms
	// apart, so at take time the older half has expired and is evicted.
	solana := chains.MustParams("solana")
	capacity = min(solana.Mempool.Capacity, depth/2)
	pool = mempool.New(mempool.Policy{Capacity: capacity}, gossipDelay)
	left := 0
	takes = stopwatch{}
	s.spans.begin("Pool.TakeWith ttl")
	for round := 0; round < s.n(20, 1); round++ {
		left += fill(pool, hot[:capacity], nodes, 50*time.Millisecond)
		takes.start()
		pool.TakeWith(mempool.TakeSpec{
			Viewer: 0, Now: time.Duration(capacity) * 50 * time.Millisecond,
			MaxTxs: solana.MaxBlockTxs, MaxAge: solana.TxTTL,
		})
		takes.stop()
		if pool.Len() != 0 {
			return fmt.Errorf("expiring take left %d pooled", pool.Len())
		}
	}
	s.spans.end()
	s.l.put("mempool.take_ns_per_tx.ttl", perOp(takes.total, left, time.Nanosecond))
	return nil
}
