package types

import (
	"bytes"
	"testing"
	"testing/quick"
	"time"
)

func sampleTx(nonce uint64) *Transaction {
	return &Transaction{
		Kind:     KindTransfer,
		From:     Address{1},
		To:       Address{2},
		Nonce:    nonce,
		Value:    100,
		GasLimit: 21000,
		GasPrice: 1,
	}
}

func TestTxIDDeterministicAndCached(t *testing.T) {
	a, b := sampleTx(1), sampleTx(1)
	if a.ID() != b.ID() {
		t.Fatal("identical transactions hash differently")
	}
	if a.ID() != a.ID() {
		t.Fatal("cached hash unstable")
	}
	c := sampleTx(2)
	if a.ID() == c.ID() {
		t.Fatal("different nonces produced the same hash")
	}
}

func TestTxIDCoversAllFields(t *testing.T) {
	base := sampleTx(1)
	mutations := []func(*Transaction){
		func(tx *Transaction) { tx.Kind = KindInvoke },
		func(tx *Transaction) { tx.From = Address{9} },
		func(tx *Transaction) { tx.To = Address{9} },
		func(tx *Transaction) { tx.Value = 999 },
		func(tx *Transaction) { tx.GasLimit = 999 },
		func(tx *Transaction) { tx.GasPrice = 999 },
		func(tx *Transaction) { tx.Data = []byte{1, 2, 3} },
	}
	for i, mutate := range mutations {
		tx := sampleTx(1)
		mutate(tx)
		if tx.ID() == base.ID() {
			t.Errorf("mutation %d did not change the transaction ID", i)
		}
	}
}

func TestTxIDExcludesSignature(t *testing.T) {
	a, b := sampleTx(1), sampleTx(1)
	b.Sig = []byte("signature")
	b.PubKey = []byte("pub")
	if a.ID() != b.ID() {
		t.Fatal("signature must not affect the transaction ID")
	}
}

func TestTxSize(t *testing.T) {
	tx := sampleTx(1)
	tx.Data = make([]byte, 100)
	tx.Sig = make([]byte, 64)
	tx.PubKey = make([]byte, 32)
	want := 1 + 40 + 32 + 100 + 64 + 32
	if tx.Size() != want {
		t.Fatalf("Size = %d, want %d", tx.Size(), want)
	}
}

func TestContractAddressDeterministic(t *testing.T) {
	a := ContractAddress(Address{1}, 0)
	b := ContractAddress(Address{1}, 0)
	c := ContractAddress(Address{1}, 1)
	d := ContractAddress(Address{2}, 0)
	if a != b {
		t.Fatal("contract address not deterministic")
	}
	if a == c || a == d || c == d {
		t.Fatal("contract address collisions")
	}
}

func TestBlockHashCoversContents(t *testing.T) {
	mk := func() *Block {
		return &Block{
			Number:    7,
			Parent:    Hash{1},
			Proposer:  Address{3},
			Timestamp: 4 * time.Second,
			Txs:       []*Transaction{sampleTx(1), sampleTx(2)},
			GasUsed:   42000,
		}
	}
	base := mk()
	baseHash := base.Hash()

	if mk().Hash() != baseHash {
		t.Fatal("identical blocks hash differently")
	}
	b := mk()
	b.Number = 8
	if b.Hash() == baseHash {
		t.Fatal("block number not covered by hash")
	}
	b = mk()
	b.Txs = b.Txs[:1]
	if b.Hash() == baseHash {
		t.Fatal("transaction list not covered by hash")
	}
	b = mk()
	b.StateRoot = Hash{9}
	if b.Hash() == baseHash {
		t.Fatal("state root not covered by hash")
	}
}

func TestBlockTxRootOrderSensitive(t *testing.T) {
	t1, t2 := sampleTx(1), sampleTx(2)
	a := &Block{Txs: []*Transaction{t1, t2}}
	b := &Block{Txs: []*Transaction{t2, t1}}
	if a.TxRoot() == b.TxRoot() {
		t.Fatal("TxRoot must be order sensitive")
	}
}

func TestBlockSize(t *testing.T) {
	b := &Block{Txs: []*Transaction{sampleTx(1)}}
	if b.Size() <= sampleTx(1).Size() {
		t.Fatalf("block size %d should exceed its tx size", b.Size())
	}
}

func TestStringers(t *testing.T) {
	if KindTransfer.String() != "transfer" || KindInvoke.String() != "invoke" || KindDeploy.String() != "deploy" {
		t.Fatal("TxKind strings wrong")
	}
	if StatusBudgetExceeded.String() != "budget exceeded" {
		t.Fatal("ExecStatus string wrong")
	}
	h := HashBytes([]byte("x"))
	if len(h.String()) != 2+64 {
		t.Fatalf("hash string %q has wrong length", h.String())
	}
	var a Address
	if !a.IsZero() {
		t.Fatal("zero address not zero")
	}
}

// Property: SigningBytes is injective over (nonce, value, data) — no two
// distinct transactions share an encoding.
func TestSigningBytesInjectiveProperty(t *testing.T) {
	f := func(n1, n2, v1, v2 uint64, d1, d2 []byte) bool {
		t1 := &Transaction{Nonce: n1, Value: v1, Data: d1}
		t2 := &Transaction{Nonce: n2, Value: v2, Data: d2}
		same := n1 == n2 && v1 == v2 && bytes.Equal(d1, d2)
		enc := bytes.Equal(t1.SigningBytes(), t2.SigningBytes())
		return same == enc
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: HashBytes over split inputs equals hash over concatenation.
func TestHashBytesConcatProperty(t *testing.T) {
	f := func(a, b []byte) bool {
		joined := append(append([]byte{}, a...), b...)
		return HashBytes(a, b) == HashBytes(joined)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Seal encodes without hashing; ID hashes the signing bytes on first use
// and caches them; a re-Seal after a mutation drops the stale ID.
func TestSealLeavesIDLazy(t *testing.T) {
	tx := sampleTx(1)
	buf := tx.Seal(nil)
	if !bytes.Equal(buf, tx.SigningBytes()) {
		t.Fatal("Seal did not return the signing bytes")
	}
	if !tx.hash.IsZero() {
		t.Fatal("Seal computed the ID")
	}
	id := tx.ID()
	if id != HashBytes(buf) || tx.hash != id {
		t.Fatalf("ID() = %s, cached %s, want the hash of the signing bytes %s", id, tx.hash, HashBytes(buf))
	}
	tx.Nonce++
	buf = tx.Seal(buf)
	if !tx.hash.IsZero() {
		t.Fatal("re-Seal kept the stale ID")
	}
	if got := tx.ID(); got == id || got != HashBytes(buf) {
		t.Fatalf("ID() after a mutation and re-Seal = %s, want the new hash %s", got, HashBytes(buf))
	}
}

// Allocation budget: a sealed transaction's ID, once computed, is a cache
// hit, and an unsigned one's encodes into a stack array and hashes without
// a temporary — neither touches the heap.
func TestTxIDAllocatesNothing(t *testing.T) {
	sealed := sampleTx(1)
	sealed.Data = make([]byte, 16)
	buf := sealed.Seal(nil)
	if !bytes.Equal(buf, sealed.SigningBytes()) || sealed.ID() != HashBytes(buf) {
		t.Fatal("ID is not the hash of the signing bytes Seal returned")
	}
	if n := testing.AllocsPerRun(100, func() { sealed.ID() }); n != 0 {
		t.Fatalf("ID() on a sealed transaction allocates %v times", n)
	}
	data := make([]byte, 16)
	if n := testing.AllocsPerRun(100, func() {
		tx := Transaction{Kind: KindInvoke, Nonce: 7, Data: data}
		tx.ID()
	}); n != 0 {
		t.Fatalf("ID() on an unsigned transaction allocates %v times", n)
	}
}
