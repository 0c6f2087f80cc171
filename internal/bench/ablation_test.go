package bench

import (
	"fmt"
	"testing"
	"time"

	"diablo/internal/avm"
	"diablo/internal/chains"
	"diablo/internal/chains/chain"
	"diablo/internal/configs"
	"diablo/internal/dapps"
	"diablo/internal/sim"
	"diablo/internal/simnet"
	"diablo/internal/types"
	"diablo/internal/vm"
	"diablo/internal/vmprofiles"
	"diablo/internal/workloads"
)

// Ablation benchmarks for the design decisions DESIGN.md calls out: the
// gossip fanout, the gas cache, the signature scheme and the discrete
// event engine itself.

// BenchmarkAblationGossipFanout measures how the dissemination tree's
// arity affects block propagation across the 200-node consortium: low
// fanout means deep trees (more hops), high fanout concentrates uplink
// load at the root.
func BenchmarkAblationGossipFanout(b *testing.B) {
	for _, fanout := range []int{2, 4, 8, 16, 64} {
		b.Run(fmt.Sprintf("fanout-%d", fanout), func(b *testing.B) {
			var last time.Duration
			for i := 0; i < b.N; i++ {
				sched := sim.NewScheduler(int64(i + 1))
				wan := simnet.New(sched)
				params := chains.MustParams("quorum")
				net := chain.Deploy(sched, wan, params, chain.Deployment{
					Nodes: 200, VCPUs: 8, Regions: simnet.AllRegions(),
				})
				var worst time.Duration
				net.Gossip(0, 120_000, fanout, func(idx int, at time.Duration) {
					if at > worst {
						worst = at
					}
				})
				sched.Run()
				last = worst
			}
			b.ReportMetric(last.Seconds()*1000, "propagation-ms")
		})
	}
}

// BenchmarkAblationGasCache compares a DApp experiment with full bytecode
// interpretation against the warm-cache executor: same aggregate results
// (checked by TestGasCacheFidelity), very different simulation cost.
func BenchmarkAblationGasCache(b *testing.B) {
	for _, mode := range []struct {
		name       string
		cacheAfter int
	}{
		{"full-interpretation", -1},
		{"cached-after-16", 16},
	} {
		b.Run(mode.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				tr, _ := workloads.ByName("fifa98")
				out, err := Run(Experiment{
					Chain:      "quorum",
					Config:     configs.Consortium,
					Traces:     []*workloads.Trace{tr.Truncated(20 * time.Second)},
					Seed:       int64(i + 1),
					Tail:       30 * time.Second,
					CacheAfter: mode.cacheAfter,
					ScaleNodes: 10,
				})
				if err != nil {
					b.Fatal(err)
				}
				if i == b.N-1 {
					b.ReportMetric(float64(out.ExecutedTxs), "interpreted-txs")
					b.ReportMetric(float64(out.ReplayedTxs), "replayed-txs")
				}
			}
		})
	}
}

// BenchmarkAblationConsensusMessageComplexity contrasts IBFT's O(n²)
// voting against HotStuff's linear votes and BA*'s constant committees as
// the network grows, measuring simulated messages per committed block.
func BenchmarkAblationConsensusMessageComplexity(b *testing.B) {
	for _, chainName := range []string{"quorum", "diem", "algorand"} {
		for _, nodes := range []int{10, 50, 200} {
			b.Run(fmt.Sprintf("%s-%d", chainName, nodes), func(b *testing.B) {
				var perBlock float64
				for i := 0; i < b.N; i++ {
					sched := sim.NewScheduler(int64(i + 1))
					wan := simnet.New(sched)
					params := chains.MustParams(chainName)
					net := chain.Deploy(sched, wan, params, chain.Deployment{
						Nodes: nodes, VCPUs: 8, Regions: simnet.AllRegions(),
					})
					client := net.NewClient(0)
					net.Start()
					acct := newBenchAccount(chainName, i)
					for k := 0; k < 50; k++ {
						k := k
						sched.At(time.Duration(k)*100*time.Millisecond, func() {
							client.Submit(benchTransfer(acct, uint64(k)), nil)
						})
					}
					sched.RunUntil(60 * time.Second)
					net.Stop()
					if net.Height() == 0 {
						b.Fatal("no blocks committed")
					}
					perBlock = float64(wan.Delivered) / float64(net.Height())
				}
				b.ReportMetric(perBlock, "msgs/block")
			})
		}
	}
}

// BenchmarkSchedulerThroughput measures the raw event engine: how many
// simulation events per second the core loop sustains.
func BenchmarkSchedulerThroughput(b *testing.B) {
	s := sim.NewScheduler(1)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s.After(time.Duration(i%1000)*time.Microsecond, func() {})
		if i%4096 == 4095 {
			s.Run()
		}
	}
	s.Run()
}

// BenchmarkAblationVMBackends compares one contract call on the two
// compiler backends: the EVM-style gas-metered interpreter against the
// TEAL-style AVM with opcode budgets.
func BenchmarkAblationVMBackends(b *testing.B) {
	d, err := dapps.Get("fifa")
	if err != nil {
		b.Fatal(err)
	}
	b.Run("evm", func(b *testing.B) {
		compiled, err := d.Compile()
		if err != nil {
			b.Fatal(err)
		}
		st := vmprofiles.NewCountingStorage()
		initData, _ := compiled.Calldata(d.InitFunc)
		vm.New().Execute(compiled.Code, &vm.Context{Storage: st, GasLimit: 1 << 40, Calldata: initData})
		calldata, _ := compiled.Calldata("add")
		in := vm.New()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			res := in.Execute(compiled.Code, &vm.Context{Storage: st, GasLimit: 10_000_000, Calldata: calldata})
			if res.Status != types.StatusOK {
				b.Fatal(res.Status)
			}
			if i == b.N-1 {
				b.ReportMetric(float64(res.GasUsed), "gas")
			}
		}
	})
	b.Run("avm", func(b *testing.B) {
		compiled, err := d.CompileAVM()
		if err != nil {
			b.Fatal(err)
		}
		kv := avm.NewMapKV(0)
		initArgs, _ := compiled.AppArgs(d.InitFunc)
		avm.Execute(compiled.Program, &avm.Context{Args: initArgs, State: kv, Budget: 1 << 40})
		args, _ := compiled.AppArgs("add")
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			res := avm.Execute(compiled.Program, &avm.Context{Args: args, State: kv})
			if res.Outcome != avm.Approved {
				b.Fatal(res.Outcome, res.Err)
			}
			if i == b.N-1 {
				b.ReportMetric(float64(res.OpsUsed), "ops")
			}
		}
	})
}
