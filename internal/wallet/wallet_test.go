package wallet

import (
	"math/rand"
	"testing"
	"testing/quick"

	"diablo/internal/types"
)

var schemes = []Scheme{Ed25519Scheme{}, FastScheme{}}

func TestSignAndVerifyAllSchemes(t *testing.T) {
	for _, s := range schemes {
		t.Run(s.Name(), func(t *testing.T) {
			acct := NewAccount(s, []byte("seed"))
			tx := &types.Transaction{Kind: types.KindTransfer, To: types.Address{2}, Value: 5}
			acct.SignNext(tx)
			if err := VerifyTx(s, tx); err != nil {
				t.Fatalf("valid tx rejected: %v", err)
			}
			if tx.Nonce != 0 || acct.Nonce != 1 {
				t.Fatalf("nonce sequencing wrong: tx=%d acct=%d", tx.Nonce, acct.Nonce)
			}
		})
	}
}

func TestVerifyRejectsTampering(t *testing.T) {
	for _, s := range schemes {
		t.Run(s.Name(), func(t *testing.T) {
			acct := NewAccount(s, []byte("seed"))
			tx := &types.Transaction{Kind: types.KindTransfer, To: types.Address{2}, Value: 5}
			acct.Sign(tx)

			tampered := *tx
			tampered.Value = 9999
			if err := VerifyTx(s, &tampered); err == nil {
				t.Fatal("tampered payload accepted")
			}

			badSig := *tx
			badSig.Sig = append([]byte(nil), tx.Sig...)
			badSig.Sig[0] ^= 0xff
			if err := VerifyTx(s, &badSig); err == nil {
				t.Fatal("corrupted signature accepted")
			}

			other := NewAccount(s, []byte("other"))
			stolen := *tx
			stolen.From = other.Address
			if err := VerifyTx(s, &stolen); err == nil {
				t.Fatal("sender/pubkey mismatch accepted")
			}
		})
	}
}

func TestVerifyRejectsUnsigned(t *testing.T) {
	tx := &types.Transaction{}
	if err := VerifyTx(Ed25519Scheme{}, tx); err == nil {
		t.Fatal("unsigned transaction accepted")
	}
}

func TestDeterministicAccounts(t *testing.T) {
	for _, s := range schemes {
		a := NewAccount(s, []byte("x"))
		b := NewAccount(s, []byte("x"))
		if a.Address != b.Address {
			t.Fatalf("%s: same seed produced different addresses", s.Name())
		}
		c := NewAccount(s, []byte("y"))
		if a.Address == c.Address {
			t.Fatalf("%s: different seeds collided", s.Name())
		}
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

func TestAddressesOrder(t *testing.T) {
	w := New(FastScheme{}, "o", 5)
	addrs := w.Addresses()
	for i, a := range addrs {
		if a != w.Get(i).Address {
			t.Fatal("Addresses order mismatch")
		}
	}
}

func TestSchemeByName(t *testing.T) {
	for _, name := range []string{"ed25519", "fasthash"} {
		s, err := SchemeByName(name)
		if err != nil || s.Name() != name {
			t.Fatalf("SchemeByName(%q) = %v, %v", name, s, err)
		}
	}
	if _, err := SchemeByName("rsa4096"); err == nil {
		t.Fatal("unknown scheme accepted")
	}
}

// Property: for both schemes, any signed message verifies and any single
// byte flip in the message fails verification.
func TestSignatureSoundnessProperty(t *testing.T) {
	for _, s := range schemes {
		s := s
		f := func(seed, msg []byte, flip uint16) bool {
			if len(msg) == 0 {
				msg = []byte{0}
			}
			pub, priv := s.Keys(seed)
			sig := s.Sign(priv, msg)
			if !s.Verify(pub, msg, sig) {
				return false
			}
			bad := append([]byte(nil), msg...)
			bad[int(flip)%len(bad)] ^= 0x01
			return !s.Verify(pub, bad, sig)
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
			t.Fatalf("%s: %v", s.Name(), err)
		}
	}
}

func BenchmarkSignEd25519(b *testing.B) {
	acct := NewAccount(Ed25519Scheme{}, []byte("bench"))
	tx := &types.Transaction{To: types.Address{1}, Value: 1}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		acct.Sign(tx)
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

// Allocation budget: signing encodes into the wallet's shared buffer, takes
// the ID from the same bytes and writes the tag straight into the signature,
// so the 64-byte signature is the only allocation — and ID() afterwards is
// a cache hit equal to the hash of the signed payload.
func TestSignNextAllocatesOnlyTheSignature(t *testing.T) {
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
	if n > 1 {
		t.Fatalf("SignNext + ID allocates %v times, want at most 1", n)
	}
	if tx.ID() != types.HashBytes(tx.SigningBytes()) {
		t.Fatal("cached ID is not the hash of the signing bytes")
	}
	if err := VerifyTx(FastScheme{}, &tx); err != nil {
		t.Fatal(err)
	}
}
