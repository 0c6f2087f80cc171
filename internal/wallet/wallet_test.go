package wallet

import (
	"math/rand"
	"testing"
	"testing/quick"

	"diablo/internal/types"
)

func TestSignAndVerifyAllSchemes(t *testing.T) {
	t.Run("fasthash", func(t *testing.T) {
		acct := NewAccount(FastScheme{}, []byte("seed"))
		tx := &types.Transaction{Kind: types.KindTransfer, To: types.Address{2}, Value: 5}
		acct.SignNext(tx)
		if err := VerifyTx(FastScheme{}, tx); err == nil {
			t.Fatal("sealed placeholder accepted as a signature")
		}
		tx.Sig = acct.WireSig(tx)
		if err := VerifyTx(FastScheme{}, tx); err != nil {
			t.Fatalf("valid tx rejected: %v", err)
		}
		if tx.Nonce != 0 || acct.Nonce != 1 {
			t.Fatalf("nonce sequencing wrong: tx=%d acct=%d", tx.Nonce, acct.Nonce)
		}
	})
}

func TestVerifyRejectsTampering(t *testing.T) {
	t.Run("fasthash", func(t *testing.T) {
		acct := NewAccount(FastScheme{}, []byte("seed"))
		tx := &types.Transaction{Kind: types.KindTransfer, To: types.Address{2}, Value: 5}
		acct.Sign(tx)
		tx.Sig = acct.WireSig(tx)

		tampered := *tx
		tampered.Value = 9999
		if err := VerifyTx(FastScheme{}, &tampered); err == nil {
			t.Fatal("tampered payload accepted")
		}

		badSig := *tx
		badSig.Sig = append([]byte(nil), tx.Sig...)
		badSig.Sig[0] ^= 0xff
		if err := VerifyTx(FastScheme{}, &badSig); err == nil {
			t.Fatal("corrupted signature accepted")
		}

		other := NewAccount(FastScheme{}, []byte("other"))
		stolen := *tx
		stolen.From = other.Address
		if err := VerifyTx(FastScheme{}, &stolen); err == nil {
			t.Fatal("sender/pubkey mismatch accepted")
		}
	})
}

func TestVerifyRejectsUnsigned(t *testing.T) {
	tx := &types.Transaction{}
	if err := VerifyTx(FastScheme{}, tx); err == nil {
		t.Fatal("unsigned transaction accepted")
	}
}

func TestDeterministicAccounts(t *testing.T) {
	a := NewAccount(FastScheme{}, []byte("x"))
	b := NewAccount(FastScheme{}, []byte("x"))
	if a.Address != b.Address {
		t.Fatal("same seed produced different addresses")
	}
	c := NewAccount(FastScheme{}, []byte("y"))
	if a.Address == c.Address {
		t.Fatal("different seeds collided")
	}
}

func TestWalletProvisioning(t *testing.T) {
	w := New(FastScheme{}, "exp1", 130)
	if w.Len() != 130 {
		t.Fatalf("Len = %d, want 130", w.Len())
	}
	seen := map[types.Address]bool{}
	for _, a := range w.Accounts {
		if seen[a.Address] {
			t.Fatal("duplicate account address")
		}
		seen[a.Address] = true
	}
	a, ok := w.Lookup(w.Get(7).Address)
	if !ok || a != w.Get(7) {
		t.Fatal("Lookup failed")
	}
	if _, ok := w.Lookup(types.Address{0xff}); ok {
		t.Fatal("Lookup found a nonexistent account")
	}
	// Same namespace reproduces the same wallet.
	w2 := New(FastScheme{}, "exp1", 130)
	if w2.Get(99).Address != w.Get(99).Address {
		t.Fatal("wallet not reproducible")
	}
	// Different namespaces must not collide.
	w3 := New(FastScheme{}, "exp2", 1)
	if _, ok := w.Lookup(w3.Get(0).Address); ok {
		t.Fatal("namespaces collided")
	}
}

func TestPickUniform(t *testing.T) {
	w := New(FastScheme{}, "p", 4)
	rng := rand.New(rand.NewSource(1))
	counts := map[types.Address]int{}
	for i := 0; i < 4000; i++ {
		counts[w.Pick(rng).Address]++
	}
	for addr, c := range counts {
		if c < 800 || c > 1200 {
			t.Fatalf("account %v picked %d times out of 4000", addr, c)
		}
	}
}

// Property: any wire-signed transaction verifies, and flipping a bit in
// any byte of its calldata fails verification.
func TestSignatureSoundnessProperty(t *testing.T) {
	f := func(seed, data []byte, flip uint16) bool {
		if len(data) == 0 {
			data = []byte{0}
		}
		acct := NewAccount(FastScheme{}, seed)
		tx := &types.Transaction{Kind: types.KindInvoke, To: types.Address{3}, Data: data}
		acct.Sign(tx)
		tx.Sig = acct.WireSig(tx)
		if VerifyTx(FastScheme{}, tx) != nil {
			return false
		}
		bad := *tx
		bad.Data = append([]byte(nil), data...)
		bad.Data[int(flip)%len(data)] ^= 0x01
		return VerifyTx(FastScheme{}, &bad) != nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkSignFast(b *testing.B) {
	acct := NewAccount(FastScheme{}, []byte("bench"))
	tx := &types.Transaction{To: types.Address{1}, Value: 1}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		acct.Sign(tx)
	}
}

// Allocation budget: sealing encodes into the wallet's shared buffer, takes
// the ID from those bytes and points the signature at the shared
// placeholder, so it allocates nothing — and ID() afterwards is a cache hit
// equal to the hash of the signing bytes.
func TestSignNextAllocatesNothing(t *testing.T) {
	w := New(FastScheme{}, "alloc", 4)
	data := make([]byte, 16)
	var tx types.Transaction
	i := 0
	n := testing.AllocsPerRun(200, func() {
		tx = types.Transaction{Kind: types.KindInvoke, GasLimit: 5_000_000, GasPrice: 1, Data: data}
		w.Get(i % 4).SignNext(&tx)
		tx.ID()
		i++
	})
	if n != 0 {
		t.Fatalf("SignNext + ID allocates %v times, want 0", n)
	}
	if tx.ID() != types.HashBytes(tx.SigningBytes()) {
		t.Fatal("cached ID is not the hash of the signing bytes")
	}
	if len(tx.Sig) != SigSize {
		t.Fatalf("sealed signature is %d bytes, want %d", len(tx.Sig), SigSize)
	}
}
