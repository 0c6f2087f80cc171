package chains

import (
	"testing"
	"time"

	"diablo/internal/chains/chain"
	"diablo/internal/consensus/raft"
	"diablo/internal/types"
	"diablo/internal/wallet"
)

// Extension-chain tests: quorum-raft (Quorum's CFT option, §5.2) and
// redbelly (the leaderless deterministic BFT design of §6.3/§6.6).

func TestExtensionRegistry(t *testing.T) {
	for _, name := range ExtensionNames() {
		p, err := ParamsFor(name)
		if err != nil {
			t.Fatal(err)
		}
		if p.Name != name || p.NewEngine == nil {
			t.Fatalf("%s: bad params", name)
		}
	}
}

func TestRaftCommitsTransfers(t *testing.T) {
	sched, net := testNet(t, "quorum-raft", 7)
	w := wallet.New(wallet.FastScheme{}, "raft", 10)
	client := net.NewClient(2)
	committed := 0
	var lastLat time.Duration
	client.OnDecided = func(sub chain.Submission, s types.ExecStatus, at time.Duration) {
		committed++
		lastLat = at - sub.Submitted
	}
	net.Start()
	for i := 0; i < 50; i++ {
		i := i
		sched.At(time.Duration(i)*100*time.Millisecond, func() {
			tx := &types.Transaction{Kind: types.KindTransfer, To: w.Get(0).Address, Value: 1, GasLimit: 21000, GasPrice: 1 << 30}
			w.Get(i % 10).SignNext(tx)
			client.Submit(tx, nil)
		})
	}
	sched.RunUntil(120 * time.Second)
	net.Stop()
	if committed != 50 {
		t.Fatalf("committed %d/50 (height %d)", committed, net.Height())
	}
	if lastLat <= 0 || lastLat > 30*time.Second {
		t.Fatalf("implausible latency %v", lastLat)
	}
	eng := net.Engine().(*raft.Engine)
	if eng.Elections != 1 {
		t.Fatalf("elections = %d, want 1 in a crash-free run", eng.Elections)
	}
}

// TestRaftSurvivesLeaderCrash kills the elected leader mid-run; a new
// election must restore progress.
func TestRaftSurvivesLeaderCrash(t *testing.T) {
	sched, net := testNet(t, "quorum-raft", 7)
	w := wallet.New(wallet.FastScheme{}, "raft-crash", 10)
	client := net.NewClient(2)
	committed := 0
	client.OnDecided = func(chain.Submission, types.ExecStatus, time.Duration) { committed++ }
	net.Start()

	// Let a leader emerge and commit a first batch.
	for i := 0; i < 10; i++ {
		i := i
		sched.At(time.Duration(i)*100*time.Millisecond, func() {
			tx := &types.Transaction{Kind: types.KindTransfer, To: w.Get(0).Address, Value: 1, GasLimit: 21000, GasPrice: 1 << 30}
			w.Get(i % 10).SignNext(tx)
			client.Submit(tx, nil)
		})
	}
	sched.RunUntil(20 * time.Second)
	if committed != 10 {
		t.Fatalf("pre-crash committed %d/10", committed)
	}
	// The first elected leader is whichever campaigned first; crash every
	// candidate's obvious choice: crash node 0..2 (one of them led).
	net.Nodes[0].Sim.Crash()

	for i := 10; i < 20; i++ {
		i := i
		sched.At(sched.Now()+time.Duration(i-9)*100*time.Millisecond, func() {
			tx := &types.Transaction{Kind: types.KindTransfer, To: w.Get(0).Address, Value: 1, GasLimit: 21000, GasPrice: 1 << 30}
			w.Get(i % 10).SignNext(tx)
			client.Submit(tx, nil)
		})
	}
	sched.RunUntil(sched.Now() + 120*time.Second)
	net.Stop()
	if committed != 20 {
		t.Fatalf("post-crash committed %d/20: leader crash not survived", committed)
	}
}

// TestRedbellyCommitsAndScales runs the leaderless chain on a
// geo-distributed network.
func TestRedbellyCommitsAndScales(t *testing.T) {
	sched, net := testNet(t, "redbelly", 10)
	w := wallet.New(wallet.FastScheme{}, "rbb", 50)
	client := net.NewClient(0)
	committed := 0
	client.OnDecided = func(chain.Submission, types.ExecStatus, time.Duration) { committed++ }
	net.Start()
	for i := 0; i < 200; i++ {
		i := i
		sched.At(time.Duration(i)*10*time.Millisecond, func() {
			tx := &types.Transaction{Kind: types.KindTransfer, To: w.Get(0).Address, Value: 1, GasLimit: 21000, GasPrice: 1 << 30}
			w.Get(i % 50).SignNext(tx)
			client.Submit(tx, nil)
		})
	}
	sched.RunUntil(120 * time.Second)
	net.Stop()
	if committed != 200 {
		t.Fatalf("committed %d/200", committed)
	}
}
