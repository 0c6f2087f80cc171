package main

import (
	"encoding/binary"
	"fmt"
	"runtime"
	"time"

	"diablo/internal/bench"
	"diablo/internal/chains"
	"diablo/internal/chains/chain"
	"diablo/internal/configs"
	"diablo/internal/dapps"
	"diablo/internal/sim"
	"diablo/internal/simnet"
	"diablo/internal/types"
	"diablo/internal/vmprofiles"
)

// stages is the per-layer ledger timed from outside: each stage calls one
// layer's public functions directly, on inputs shaped like the workload the
// stage mirrors, inside a span of the benchmark's own. Stage inputs depend
// on the seed and the scale only, not on the selected workload, so a process
// runs them once.
type stages struct {
	l      *ledger
	spans  *spanLog
	seed   int64
	quick  bool
	outDir string
	// checks counts the stage-level correctness checks made (a parallel or
	// observed pass against its plain twin); failures lists those that did
	// not hold.
	checks   int
	failures []string

	hotTxs []*types.Transaction
}

// n picks a stage size: full at benchmark scale, small at --quick scale.
func (s *stages) n(full, small int) int { return pick(s.quick, full, small) }

// run executes every stage. The order follows the path of a transaction
// through the layers, bottom layers last.
func (s *stages) run() error {
	s.spans.begin("stages")
	defer s.spans.end()
	// The ledger outlives the stages; their 400k-transaction input must not,
	// or it would sit in the heap of every workload measured afterwards.
	defer func() { s.hotTxs = nil }()
	for _, st := range []struct {
		name string
		fn   func() error
	}{
		{"workloads+stream", s.stageGenerators},
		{"wallet", s.stageWallet},
		{"types", s.stageTypes},
		{"core", s.stageCore},
		{"mempool", s.stageMempool},
		{"chain", s.stageChain},
		{"chain.parallel", s.stageParallelApply},
		{"trie", s.stageTrie},
		{"vm", s.stageVM},
		{"consensus", s.stageConsensus},
		{"simnet", s.stageSimnet},
		{"sim", s.stageSim},
		{"stats+collect", s.stageReport},
		{"observers", s.stageObservers},
		{"core.ForEach", s.stageSweep},
	} {
		s.spans.begin("stage " + st.name)
		err := st.fn()
		s.spans.end()
		if err != nil {
			return fmt.Errorf("stage %s: %w", st.name, err)
		}
	}
	return nil
}

// check records one correctness check of a stage.
func (s *stages) check(ok bool, failure string) {
	s.checks++
	if !ok {
		s.failures = append(s.failures, failure)
	}
}

// perOp converts a duration over n operations into a per-operation figure
// in the given unit (time.Nanosecond, time.Microsecond, ...).
func perOp(d time.Duration, n int, unit time.Duration) float64 {
	return ratio(float64(d)/float64(unit), float64(n))
}

// mallocs returns the allocations fn makes.
func mallocs(fn func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	fn()
	runtime.ReadMemStats(&after)
	return after.Mallocs - before.Mallocs
}

// hotSenders is the provisioned account count of the paper's cells.
const hotSenders = 2000

// stageOwner deploys every stage's contracts, so they land at one address.
var stageOwner = types.Address{0xB0}

// invokeTxs returns n unsigned invocations of the FIFA contract's add() from
// the given number of senders, nonces in sequence per sender. IDs are
// computed up front: on the run path core.simClient.Trigger has already
// hashed a transaction before any later layer sees it.
func invokeTxs(n, senders int, tag byte) ([]*types.Transaction, error) {
	to, data, err := fifaTarget()
	if err != nil {
		return nil, err
	}
	addrs := make([]types.Address, senders)
	var idx [8]byte
	for i := range addrs {
		binary.BigEndian.PutUint64(idx[:], uint64(i))
		addrs[i] = types.AddressFromHash(types.HashBytes([]byte{tag}, idx[:]))
	}
	txs := make([]*types.Transaction, n)
	for i := range txs {
		tx := &types.Transaction{
			Kind:     types.KindInvoke,
			From:     addrs[i%senders],
			To:       to,
			Nonce:    uint64(i / senders),
			GasLimit: 5_000_000,
			GasPrice: 1,
			Data:     data,
		}
		tx.ID()
		txs[i] = tx
	}
	return txs, nil
}

// fifaTarget returns the address the FIFA contract gets when stageOwner
// deploys it first on a fresh executor, and the calldata of add().
func fifaTarget() (types.Address, []byte, error) {
	d, err := dapps.Get("fifa")
	if err != nil {
		return types.Address{}, nil, err
	}
	c, err := chain.NewExecutor(vmprofiles.Geth).DeployDApp(stageOwner, d)
	if err != nil {
		return types.Address{}, nil, err
	}
	calldata, err := c.ABI.Calldata("add")
	if err != nil {
		return types.Address{}, nil, err
	}
	return c.Address, chain.EncodeInvokeData(calldata, 0), nil
}

// deepPool is the pool depth the fifa-quorum cell peaks near.
const deepPool = 400_000

// hot returns the shared 400k-transaction, 2,000-sender input of the deep
// mempool and block-assembly stages.
func (s *stages) hot() ([]*types.Transaction, error) {
	if s.hotTxs == nil {
		txs, err := invokeTxs(s.n(deepPool, 4000), hotSenders, 0xA0)
		if err != nil {
			return nil, err
		}
		s.hotTxs = txs
	}
	return s.hotTxs, nil
}

// deployQuorum builds a Quorum network of the given size on a fresh
// scheduler and WAN, the way bench.Run does, with the FIFA contract deployed
// and the default gas cache. The engine is not started: a stage drives the
// network's functions itself.
func deployQuorum(seed int64, nodes int) (*chain.Network, error) {
	sched := sim.NewScheduler(seed)
	wan := simnet.New(sched)
	net := chain.Deploy(sched, wan, chains.MustParams("quorum"), chain.Deployment{
		Nodes:   nodes,
		VCPUs:   configs.Consortium.VCPUs,
		Regions: configs.Consortium.Regions,
	})
	net.Exec.CacheAfter = bench.DefaultCacheAfter
	d, err := dapps.Get("fifa")
	if err != nil {
		return nil, err
	}
	if _, err := net.Exec.DeployDApp(stageOwner, d); err != nil {
		return nil, err
	}
	return net, nil
}

// stopwatch sums the time between start and stop calls, for a stage that
// must leave its refills out of the figure.
type stopwatch struct {
	total time.Duration
	t0    time.Time
}

func (w *stopwatch) start() { w.t0 = time.Now() }
func (w *stopwatch) stop()  { w.total += time.Since(w.t0) }
