package main

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"time"

	"diablo/internal/bench"
	"diablo/internal/chains"
	"diablo/internal/chains/chain"
	"diablo/internal/dapps"
	"diablo/internal/minisol"
	"diablo/internal/trie"
	"diablo/internal/types"
)

// stageChain times the node harness: deployment at both cell sizes, block
// assembly out of a fifa-quorum-deep pool, and block application with its
// state root for native transfers (chains-devnet) and cache replays
// (fifa-quorum).
func (s *stages) stageChain() error {
	for _, size := range []struct {
		metric string
		nodes  int
		reps   int
	}{{"chain.deploy_ms.n20", 20, s.n(5, 1)}, {"chain.deploy_ms.n200", 200, s.n(3, 1)}} {
		var err error
		d := s.spans.time(fmt.Sprintf("chain.Deploy n=%d", size.nodes), func() {
			for i := 0; i < size.reps && err == nil; i++ {
				_, err = deployQuorum(s.seed, size.nodes)
			}
		})
		if err != nil {
			return err
		}
		s.l.put(size.metric, perOp(d, size.reps, time.Millisecond))
	}

	// Deep assembly: every transaction enters through Node.SubmitTx, then
	// the proposer assembles Quorum-sized blocks out of the full pool.
	net, err := deployQuorum(s.seed, 20)
	if err != nil {
		return err
	}
	hot, err := s.hot()
	if err != nil {
		return err
	}
	for i, tx := range hot {
		if err := net.Nodes[i%len(net.Nodes)].SubmitTx(tx); err != nil {
			return fmt.Errorf("filling the pool: %w", err)
		}
		if i%4000 == 3999 {
			// 4,000 TPS, as the FIFA trace averages: under the nodes'
			// verification capacity, so the network does not collapse.
			net.Sched.RunFor(time.Second)
		}
	}
	net.Sched.RunFor(time.Second) // past every gossip delay
	blocks, empty := s.n(20, 2), 0
	d := s.spans.time("Network.AssembleBlock deep", func() {
		for i := 0; i < blocks; i++ {
			if blk, _ := net.AssembleBlock(0, false); blk == nil {
				empty++
			}
		}
	})
	if empty > 0 {
		return fmt.Errorf("deep assembly returned %d empty blocks of %d", empty, blocks)
	}
	s.l.put("chain.assemble_us_per_block.deep", perOp(d, blocks, time.Microsecond))

	// Native transfers over the provisioned accounts, a trie root per block.
	quorum := chains.MustParams("quorum")
	exec := chain.NewExecutor(quorum.Profile)
	exec.SetCommitment(quorum.StateCommitment)
	const blockTxs = 1000
	accounts := make([]types.Address, hotSenders)
	for i := range accounts {
		accounts[i] = types.Address{0xAC, byte(i >> 8), byte(i)}
	}
	blocks = s.n(30, 2)
	var apply, root stopwatch
	s.spans.begin("Executor.ApplyBlock+StateRoot transfers")
	for b := 0; b < blocks; b++ {
		blk := &types.Block{Number: uint64(b + 1), Timestamp: time.Duration(b+1) * time.Second}
		for i := 0; i < blockTxs; i++ {
			g := b*blockTxs + i
			blk.Txs = append(blk.Txs, &types.Transaction{
				Kind: types.KindTransfer, From: accounts[g%hotSenders], To: accounts[(g+1)%hotSenders],
				Nonce: uint64(g / hotSenders), Value: 1, GasLimit: 21000, GasPrice: 1,
			})
		}
		apply.start()
		receipts := exec.ApplyBlock(blk.Txs, blk, quorum)
		apply.stop()
		root.start()
		blk.StateRoot = exec.StateRoot()
		root.stop()
		for _, r := range receipts {
			if r.Status != types.StatusOK {
				return fmt.Errorf("transfer failed: %s", r.Error)
			}
		}
	}
	s.spans.end()
	s.l.put("chain.apply_ns_per_tx.transfer", perOp(apply.total, blocks*blockTxs, time.Nanosecond))
	s.l.put("chain.stateroot_us_per_block", perOp(root.total, blocks, time.Microsecond))

	// Cache replays: the FIFA invocation past the gas-cache threshold.
	exec = chain.NewExecutor(quorum.Profile)
	exec.CacheAfter = bench.DefaultCacheAfter
	fifa, err := dapps.Get("fifa")
	if err != nil {
		return err
	}
	if _, err := exec.DeployDApp(stageOwner, fifa); err != nil {
		return err
	}
	n := min(len(hot), s.n(150_000, 3000))
	d = s.spans.time("Executor.ApplyBlock replay", func() {
		for b := 0; b*quorum.MaxBlockTxs < n; b++ {
			blk := &types.Block{Number: uint64(b + 1), Timestamp: time.Duration(b+1) * time.Second}
			blk.Txs = hot[b*quorum.MaxBlockTxs : min(n, (b+1)*quorum.MaxBlockTxs)]
			exec.ApplyBlock(blk.Txs, blk, quorum)
		}
	})
	if got := exec.Executed + exec.Replayed; got != uint64(n) {
		return fmt.Errorf("replay stage applied %d of %d", got, n)
	}
	s.l.put("chain.apply_ns_per_tx.replay", perOp(d, n, time.Nanosecond))
	return nil
}

// stageTrie times the state commitment on the shape chains-devnet gives it:
// the 2,000 provisioned accounts as 20-byte keys, 8-byte balances that keep
// being overwritten, and a thousand dirty keys per root. (The trie is an
// uncompressed nibble trie, some 6 KB a key, so more keys than a cell holds
// would measure the allocator.)
func (s *stages) stageTrie() error {
	keys := make([]types.Address, hotSenders)
	var idx [8]byte
	for i := range keys {
		binary.BigEndian.PutUint64(idx[:], uint64(i))
		keys[i] = types.AddressFromHash(types.HashBytes(idx[:]))
	}
	val := make([]byte, 8)
	t := trie.New()
	for i := range keys {
		t.Put(keys[i][:], val)
	}
	t.Root()

	n := s.n(400_000, 4000)
	d := s.spans.time("Trie.Put", func() {
		for i := 0; i < n; i++ {
			t.Put(keys[i%hotSenders][:], val)
		}
	})
	s.l.put("trie.put_ns_per_key", perOp(d, n, time.Nanosecond))

	rounds := s.n(50, 2)
	var roots stopwatch
	s.spans.begin("Trie.Root 1k dirty")
	for r := 0; r < rounds; r++ {
		t.Root()
		binary.BigEndian.PutUint64(val, uint64(r+1))
		for i := 0; i < 1000; i++ {
			t.Put(keys[(r*1000+i)%hotSenders][:], val)
		}
		roots.start()
		t.Root()
		roots.stop()
	}
	s.spans.end()
	s.l.put("trie.root_us.1k_dirty", perOp(roots.total, rounds, time.Microsecond))
	return nil
}

// vmCalls returns n invocations of the DApp's first function on contract c,
// with the arguments the engine would generate, each from its own sender.
func vmCalls(c *chain.Contract, d *dapps.DApp, rng *rand.Rand, n int) ([]*types.Transaction, error) {
	fn := d.Functions[0]
	txs := make([]*types.Transaction, n)
	for i := range txs {
		args := d.ArgGen(rng, fn)
		var calldata []uint64
		var err error
		if c.AVM != nil {
			calldata, err = c.AVM.AppArgs(fn, args...)
		} else {
			calldata, err = c.ABI.Calldata(fn, args...)
		}
		if err != nil {
			return nil, err
		}
		txs[i] = &types.Transaction{
			Kind: types.KindInvoke, From: types.Address{0xCA, byte(i >> 8), byte(i)}, To: c.Address,
			GasLimit: 5_000_000, GasPrice: 1, Data: chain.EncodeInvokeData(calldata, d.DataBytes),
		}
	}
	return txs, nil
}

// stageVM times full interpretation (gas cache off) of the Uber call under
// each execution profile, the workload of uber-exec, and of the FIFA call
// that fifa-quorum replays from the cache; then compiling every DApp for
// both backends, which a process pays once, in set-up.
func (s *stages) stageVM() error {
	rng := rand.New(rand.NewSource(s.seed))
	for _, v := range []struct {
		metric string
		chain  string
		dapp   string
		calls  int
	}{
		{"vm.uber_us_per_call", "quorum", "uber", s.n(1000, 10)},
		{"vm.fifa_us_per_call", "quorum", "fifa", s.n(50_000, 100)},
		{"avm.uber_us_per_call", "algorand", "uber", s.n(2000, 10)},
		{"vmprofiles.movevm_uber_us_per_call", "diem", "uber", s.n(2000, 10)},
		{"vmprofiles.ebpf_uber_us_per_call", "solana", "uber", s.n(2000, 10)},
	} {
		params := chains.MustParams(v.chain)
		exec := chain.NewExecutor(params.Profile) // CacheAfter 0: every call interpreted
		d, err := dapps.Get(v.dapp)
		if err != nil {
			return err
		}
		c, err := exec.DeployDApp(stageOwner, d)
		if err != nil {
			return err
		}
		txs, err := vmCalls(c, d, rng, v.calls)
		if err != nil {
			return err
		}
		blk := &types.Block{Number: 1, Timestamp: time.Second}
		el := s.spans.time("Executor.Apply "+params.Profile.Name+"/"+v.dapp, func() {
			for _, tx := range txs {
				exec.Apply(tx, blk, params)
			}
		})
		if exec.Executed != uint64(v.calls) {
			return fmt.Errorf("%s: interpreted %d of %d calls", v.metric, exec.Executed, v.calls)
		}
		s.l.put(v.metric, perOp(el, v.calls, time.Microsecond))
	}

	var err error
	d := s.spans.time("minisol.Compile+CompileAVM", func() {
		for _, name := range append(dapps.Names(), "nft", "dex") {
			var dapp *dapps.DApp
			if dapp, err = dapps.Get(name); err != nil {
				return
			}
			if _, err = minisol.Compile(dapp.Source); err != nil {
				return
			}
			// The AVM cannot express every DApp (the paper's YouTube case);
			// a rejected compile still costs its time.
			_, _ = minisol.CompileAVM(dapp.Source)
		}
	})
	if err != nil {
		return err
	}
	s.l.put("minisol.compile_ms", float64(d)/float64(time.Millisecond))
	return nil
}
