// Package wallet manages client accounts: key generation, transaction
// sealing, wire signing and verification, and per-account nonce tracking.
//
// DIABLO Secondaries pre-sign transactions before an experiment starts, as
// the paper describes, so signing cost is off the critical path; a node's
// verification cost is charged in virtual time by the chain model. Inside
// the process nothing reads a signature's bytes, so Account.Sign seals a
// transaction instead: it sets the sender, caches the ID and attaches a
// shared all-zero placeholder of the wire signature's size, which keeps
// every transaction size, block size and byte count exact. A real
// signature is made only where bytes leave the process: the remote
// Secondaries sign with WireSig, and the Primary checks with VerifyTx.
package wallet

import (
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"math/rand"

	"diablo/internal/types"
)

// Scheme abstracts the signature algorithm.
type Scheme interface {
	// Keys derives a deterministic key pair from a seed.
	Keys(seed []byte) (pub, priv []byte)
	// Sign signs msg with priv.
	Sign(priv, msg []byte) []byte
	// Verify checks sig over msg against pub.
	Verify(pub, msg, sig []byte) bool
}

// SigSize is the size of a wire signature, and of the placeholder a sealed
// transaction carries instead.
const SigSize = 64

// sealedSig is the placeholder every sealed transaction's Sig points at.
// It is never written: Sign hands out sealedSig[:SigSize:SigSize], whose
// capacity makes any append copy.
var sealedSig [SigSize]byte

// FastScheme produces SigSize-byte keyed-hash signatures, the size of an
// Ed25519 signature. It is NOT cryptographically secure (a signature
// carries its key): it detects corrupted and altered transactions on the
// Primary/Secondary wire at the cost of one SHA-256.
type FastScheme struct{}

// Keys implements Scheme.
func (FastScheme) Keys(seed []byte) (pub, priv []byte) {
	s := sha256.Sum256(seed)
	p := sha256.Sum256(s[:])
	return p[:], s[:]
}

// Sign implements Scheme.
func (FastScheme) Sign(priv, msg []byte) []byte {
	// The tag, then the key so Verify can check it.
	sig := make([]byte, SigSize)
	h := sha256.New()
	h.Write(priv)
	h.Write(msg)
	h.Sum(sig[:0])
	copy(sig[32:], priv)
	return sig
}

// Verify implements Scheme.
func (FastScheme) Verify(pub, msg, sig []byte) bool {
	if len(sig) != SigSize {
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

// Sign seals a transaction in place: it sets From and PubKey, caches the
// ID from the signing bytes and sets Sig to the shared placeholder, which
// has the wire signature's size but is not a valid signature. It does not
// touch the nonce; use NextNonce or SignNext for sequenced sending, and
// WireSig for a signature that leaves the process.
func (a *Account) Sign(tx *types.Transaction) {
	tx.From = a.Address
	tx.PubKey = a.Pub
	*a.buf = tx.Seal(*a.buf)
	tx.Sig = sealedSig[:SigSize:SigSize]
}

// WireSig returns the account's real signature over the transaction's
// signing bytes, for a transaction sealed by this account that is about
// to leave the process.
func (a *Account) WireSig(tx *types.Transaction) []byte {
	*a.buf = tx.AppendSigningBytes((*a.buf)[:0])
	return a.scheme.Sign(a.priv, *a.buf)
}

// NextNonce returns the account's next sequence number and increments it.
func (a *Account) NextNonce() uint64 {
	n := a.Nonce
	a.Nonce++
	return n
}

// SignNext assigns the next nonce and seals the transaction.
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
