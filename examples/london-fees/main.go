// London fee dynamics example: saturate a simulated Ethereum deployment
// and watch the EIP-1559 base fee climb, stall under-priced transactions,
// and fall back once the burst passes — the §5.2 mechanics that forced the
// paper's authors to sign transactions online.
//
//	go run ./examples/london-fees
package main

import (
	"fmt"
	"log"
	"time"

	"diablo/internal/chains"
	"diablo/internal/chains/chain"
	"diablo/internal/sim"
	"diablo/internal/simnet"
	"diablo/internal/types"
	"diablo/internal/wallet"
)

func main() {
	params, err := chains.ParamsFor("ethereum")
	if err != nil {
		log.Fatal(err)
	}
	sched := sim.NewScheduler(1)
	wan := simnet.New(sched)
	net := chain.Deploy(sched, wan, params, chain.Deployment{
		Nodes: 4, VCPUs: 8, Regions: []simnet.Region{simnet.Ohio},
	})
	w := wallet.New(wallet.FastScheme{}, "london-example", 200)
	client := net.NewClient(0)

	floor := net.BaseFee()
	// The under-priced transaction is submitted with a token; the burst's
	// transactions carry none.
	var stuck chain.Submission
	var stuckCommitAt time.Duration
	client.OnDecided = func(s chain.Submission, _ types.ExecStatus, at time.Duration) {
		if s.Token != nil {
			stuck, stuckCommitAt = s, at
		}
	}

	net.Start()
	// Saturate blocks for 60 seconds with well-priced traffic (each
	// sender reads the live fee right before signing, as DIABLO had to).
	for i := 0; i < 3000; i++ {
		i := i
		sched.At(time.Duration(i)*20*time.Millisecond, func() {
			tx := &types.Transaction{
				Kind: types.KindTransfer, To: w.Get(0).Address, Value: 1,
				GasLimit: 21000, GasPrice: net.BaseFee() * 2,
			}
			w.Get(i%199 + 1).SignNext(tx)
			client.Submit(tx, nil)
		})
	}
	// Mid-burst, submit one transaction pre-signed at the old fee.
	sched.At(30*time.Second, func() {
		tx := &types.Transaction{
			Kind: types.KindTransfer, To: w.Get(0).Address, Value: 1,
			GasLimit: 21000, GasPrice: floor,
		}
		w.Get(0).SignNext(tx)
		client.Submit(tx, "pre-signed")
	})

	fmt.Printf("%-8s %12s\n", "time", "base fee")
	for _, at := range []int{0, 12, 24, 36, 48, 60, 120, 240, 480} {
		at := at
		sched.At(time.Duration(at)*time.Second, func() {
			fmt.Printf("%6ds %12d\n", at, net.BaseFee())
		})
	}
	sched.RunUntil(600 * time.Second)
	net.Stop()

	fmt.Println()
	fmt.Printf("fee floor: %d; the saturated blocks pushed it up 12.5%% per block,\n", floor)
	fmt.Println("then empty blocks walked it back down after the burst.")
	if stuckCommitAt > 0 {
		fmt.Printf("\nthe transaction pre-signed at the old fee (t=%.0fs) stayed stuck for\n", stuck.Submitted.Seconds())
		fmt.Printf("%.0f seconds until the fee fell below its price — the paper's\n", (stuckCommitAt - stuck.Submitted).Seconds())
		fmt.Println("\"risks to be underpriced\" problem, and why DIABLO signs online.")
	} else {
		fmt.Println("\nthe under-priced transaction never committed within the run.")
	}
}
