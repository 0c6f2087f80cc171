package main

import (
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"time"

	"diablo/internal/chains"
	"diablo/internal/chains/chain"
	"diablo/internal/dapps"
	"diablo/internal/types"
)

// stageParallelApply is the benchmark's single use of Executor.Workers: it
// applies Uber blocks at Quorum's gas ceiling, fully interpreted, serially
// and on as many workers as the host has CPUs, and reports serial time over
// parallel time. If parallel intra-block execution is ever cut, this file
// and its one metric are all the benchmark has to lose.
func (s *stages) stageParallelApply() error {
	quorum := chains.MustParams("quorum")
	uber, err := dapps.Get("uber")
	if err != nil {
		return err
	}
	// With the cache off, block assembly charges every call its own gas
	// limit, so the ceiling holds BlockGasLimit / DefaultGasLimit calls.
	perBlock := s.n(int(quorum.BlockGasLimit/quorum.DefaultGasLimit), 8)
	blocks := s.n(3, 1)

	apply := func(workers int) ([]*types.Receipt, time.Duration, error) {
		exec := chain.NewExecutor(quorum.Profile)
		exec.Workers = workers
		c, err := exec.DeployDApp(stageOwner, uber)
		if err != nil {
			return nil, 0, err
		}
		txs, err := vmCalls(c, uber, rand.New(rand.NewSource(s.seed)), perBlock*blocks)
		if err != nil {
			return nil, 0, err
		}
		var receipts []*types.Receipt
		d := s.spans.time(fmt.Sprintf("Executor.ApplyBlock workers=%d", workers), func() {
			for b := 0; b < blocks; b++ {
				blk := &types.Block{Number: uint64(b + 1), Timestamp: time.Duration(b+1) * time.Second}
				blk.Txs = txs[b*perBlock : (b+1)*perBlock]
				receipts = append(receipts, exec.ApplyBlock(blk.Txs, blk, quorum)...)
			}
		})
		return receipts, d, nil
	}

	serial, serialD, err := apply(1)
	if err != nil {
		return err
	}
	parallel, parallelD, err := apply(runtime.NumCPU())
	if err != nil {
		return err
	}
	s.check(reflect.DeepEqual(serial, parallel), "stage chain.parallel: parallel receipts differ from serial")
	s.l.put("chain.apply_par_speedup", ratio(float64(serialD), float64(parallelD)))
	return nil
}
