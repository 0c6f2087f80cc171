// Package wallet manages client accounts: key generation, transaction
// signing and verification, and per-account nonce tracking. DIABLO
// Secondaries pre-sign transactions before an experiment starts, exactly as
// the paper describes, so signing cost is off the critical path.
//
// Two signature schemes are provided. Ed25519Scheme uses real Ed25519 from
// the standard library and is the default for functional tests and small
// experiments. FastScheme replaces the asymmetric primitive with a keyed
// SHA-256 tag of the same wire size; it preserves every protocol code path
// (signing, transport size, verification, rejection of tampered payloads)
// while making million-transaction experiments affordable on one machine.
// Which scheme an experiment used is recorded in its results.
package wallet

import (
	"crypto/ed25519"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"

	"diablo/internal/types"
)

// Scheme abstracts the signature algorithm.
type Scheme interface {
	// Name identifies the scheme in experiment metadata.
	Name() string
	// Keys derives a deterministic key pair from a seed.
	Keys(seed []byte) (pub, priv []byte)
	// Sign signs msg with priv.
	Sign(priv, msg []byte) []byte
	// Verify checks sig over msg against pub.
	Verify(pub, msg, sig []byte) bool
}

// Ed25519Scheme signs with crypto/ed25519.
type Ed25519Scheme struct{}

// Name implements Scheme.
func (Ed25519Scheme) Name() string { return "ed25519" }

// Keys implements Scheme.
func (Ed25519Scheme) Keys(seed []byte) (pub, priv []byte) {
	sum := sha256.Sum256(seed)
	key := ed25519.NewKeyFromSeed(sum[:])
	return key.Public().(ed25519.PublicKey), key
}

// Sign implements Scheme.
func (Ed25519Scheme) Sign(priv, msg []byte) []byte {
	return ed25519.Sign(ed25519.PrivateKey(priv), msg)
}

// Verify implements Scheme.
func (Ed25519Scheme) Verify(pub, msg, sig []byte) bool {
	if len(pub) != ed25519.PublicKeySize || len(sig) != ed25519.SignatureSize {
		return false
	}
	return ed25519.Verify(ed25519.PublicKey(pub), msg, sig)
}

// FastScheme produces 64-byte keyed-hash tags. It is NOT cryptographically
// secure against an adversary who knows the private key derivation; it
// exists to keep large simulations cheap while exercising identical code
// paths and wire formats.
type FastScheme struct{}

// Name implements Scheme.
func (FastScheme) Name() string { return "fasthash" }

// Keys implements Scheme.
func (FastScheme) Keys(seed []byte) (pub, priv []byte) {
	s := sha256.Sum256(seed)
	p := sha256.Sum256(s[:])
	return p[:], s[:]
}

// Sign implements Scheme.
func (FastScheme) Sign(priv, msg []byte) []byte {
	// Padded to the Ed25519 signature size so network byte accounting
	// matches: the tag, then the key so Verify can check it.
	sig := make([]byte, 64)
	h := sha256.New()
	h.Write(priv)
	h.Write(msg)
	h.Sum(sig[:0])
	copy(sig[32:], priv)
	return sig
}

// Verify implements Scheme.
func (FastScheme) Verify(pub, msg, sig []byte) bool {
	if len(sig) != 64 {
		return false
	}
	priv := sig[32:]
	p := sha256.Sum256(priv)
	if string(p[:]) != string(pub) {
		return false
	}
	h := sha256.New()
	h.Write(priv)
	h.Write(msg)
	var tag [sha256.Size]byte
	h.Sum(tag[:0])
	return string(tag[:]) == string(sig[:32])
}

// Account is a client keypair with a local nonce counter. Accounts of one
// Wallet or Lazy sign through a shared buffer, so like the rest of the
// simulation they are not safe for concurrent use.
type Account struct {
	Address types.Address
	Pub     []byte
	priv    []byte
	Nonce   uint64
	scheme  Scheme
	// buf is the signing-bytes scratch. It belongs to whatever derived the
	// account, not to the account: a stream's senders are each new, and a
	// per-account buffer would be grown once per transaction and then idle.
	buf *[]byte
}

// NewAccount derives an account deterministically from a seed.
func NewAccount(scheme Scheme, seed []byte) *Account {
	return newAccount(scheme, seed, new([]byte))
}

func newAccount(scheme Scheme, seed []byte, buf *[]byte) *Account {
	pub, priv := scheme.Keys(seed)
	return &Account{
		Address: types.AddressFromHash(types.HashBytes(pub)),
		Pub:     pub,
		priv:    priv,
		scheme:  scheme,
		buf:     buf,
	}
}

// Sign signs a transaction in place, setting From, Sig and PubKey, and
// caches its ID from the same encoding the signature covers. It does not
// touch the nonce; use NextNonce or SignNext for sequenced sending.
func (a *Account) Sign(tx *types.Transaction) {
	tx.From = a.Address
	tx.PubKey = a.Pub
	*a.buf = tx.Seal(*a.buf)
	tx.Sig = a.scheme.Sign(a.priv, *a.buf)
}

// NextNonce returns the account's next sequence number and increments it.
func (a *Account) NextNonce() uint64 {
	n := a.Nonce
	a.Nonce++
	return n
}

// SignNext assigns the next nonce and signs the transaction.
func (a *Account) SignNext(tx *types.Transaction) {
	tx.Nonce = a.NextNonce()
	a.Sign(tx)
}

// VerifyTx checks a transaction's signature and that its sender address
// matches the public key.
func VerifyTx(scheme Scheme, tx *types.Transaction) error {
	if len(tx.PubKey) == 0 || len(tx.Sig) == 0 {
		return errors.New("wallet: unsigned transaction")
	}
	want := types.AddressFromHash(types.HashBytes(tx.PubKey))
	if want != tx.From {
		return errors.New("wallet: sender address does not match public key")
	}
	if !scheme.Verify(tx.PubKey, tx.SigningBytes(), tx.Sig) {
		return errors.New("wallet: invalid signature")
	}
	return nil
}

// Wallet is an ordered set of accounts, as provisioned for an experiment
// (the paper uses 2,000 accounts, or 130 where Diem's tooling fails).
type Wallet struct {
	Scheme    Scheme
	Namespace string
	Accounts  []*Account
	byAddr    map[types.Address]*Account
}

// New creates n deterministic accounts labelled by an experiment namespace.
func New(scheme Scheme, namespace string, n int) *Wallet {
	w := &Wallet{Scheme: scheme, Namespace: namespace, byAddr: make(map[types.Address]*Account, n)}
	buf := new([]byte)
	for i := 0; i < n; i++ {
		seed := make([]byte, 0, len(namespace)+8)
		seed = append(seed, namespace...)
		seed = binary.BigEndian.AppendUint64(seed, uint64(i))
		acct := newAccount(scheme, seed, buf)
		w.Accounts = append(w.Accounts, acct)
		w.byAddr[acct.Address] = acct
	}
	return w
}

// Len returns the number of accounts.
func (w *Wallet) Len() int { return len(w.Accounts) }

// Get returns the i-th account.
func (w *Wallet) Get(i int) *Account { return w.Accounts[i] }

// Lookup finds an account by address.
func (w *Wallet) Lookup(addr types.Address) (*Account, bool) {
	a, ok := w.byAddr[addr]
	return a, ok
}

// Pick returns a uniformly random account.
func (w *Wallet) Pick(rng *rand.Rand) *Account {
	return w.Accounts[rng.Intn(len(w.Accounts))]
}

// Addresses returns all account addresses in order.
func (w *Wallet) Addresses() []types.Address {
	out := make([]types.Address, len(w.Accounts))
	for i, a := range w.Accounts {
		out[i] = a.Address
	}
	return out
}

// SchemeByName returns the named signature scheme.
func SchemeByName(name string) (Scheme, error) {
	switch name {
	case "ed25519":
		return Ed25519Scheme{}, nil
	case "fasthash":
		return FastScheme{}, nil
	default:
		return nil, fmt.Errorf("wallet: unknown signature scheme %q", name)
	}
}
