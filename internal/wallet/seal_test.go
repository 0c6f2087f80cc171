package wallet_test

import (
	"bytes"
	"testing"
	"time"

	"diablo/internal/bench"
	"diablo/internal/configs"
	"diablo/internal/types"
	"diablo/internal/wallet"
	"diablo/internal/workloads"
)

// TestSealedPlaceholder: a sealed transaction is as large as the same
// transaction carrying a real wire signature, and the placeholder every
// sealed transaction shares is still all zeros after a whole experiment
// and after a write through an append to a sealed Sig.
func TestSealedPlaceholder(t *testing.T) {
	acct := wallet.NewAccount(wallet.FastScheme{}, []byte("seal"))
	seal := func() *types.Transaction {
		tx := &types.Transaction{Kind: types.KindInvoke, To: types.Address{1}, Data: []byte{1, 2, 3}}
		acct.Sign(tx)
		return tx
	}
	zero := make([]byte, wallet.SigSize)
	requireZero := func(when string) {
		t.Helper()
		if sig := seal().Sig; !bytes.Equal(sig, zero) {
			t.Fatalf("placeholder %s: %x", when, sig)
		}
	}

	tx := seal()
	wire := *tx
	wire.Sig = acct.WireSig(tx)
	if tx.Size() != wire.Size() {
		t.Fatalf("sealed size %d, wire-signed size %d", tx.Size(), wire.Size())
	}

	out, err := bench.Run(bench.Experiment{
		Chain:      "quorum",
		Config:     configs.Devnet,
		Traces:     []*workloads.Trace{workloads.NativeConstant(50, 4*time.Second)},
		Seed:       1,
		Tail:       10 * time.Second,
		ScaleNodes: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	if out.Summary.Committed == 0 {
		t.Fatal("the experiment committed nothing")
	}
	requireZero("after an experiment")

	grown := append(tx.Sig, 0)
	grown[0] = 0xff
	requireZero("after an append to a sealed signature")
}
