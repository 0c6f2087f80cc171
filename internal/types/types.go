// Package types defines the chain-agnostic data structures shared by all
// simulated blockchains: addresses, hashes, transactions, blocks and
// receipts, together with a deterministic binary encoding used for hashing
// and for wire transfer between DIABLO components.
package types

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"time"
)

// HashSize is the size of a Hash in bytes.
const HashSize = 32

// AddressSize is the size of an Address in bytes.
const AddressSize = 20

// Hash is a 32-byte SHA-256 digest.
type Hash [HashSize]byte

// Address identifies an account or contract.
type Address [AddressSize]byte

// ZeroHash is the all-zero hash.
var ZeroHash Hash

// ZeroAddress is the all-zero address, used as the "to" of contract
// creation transactions.
var ZeroAddress Address

// String renders the hash as 0x-prefixed hex.
func (h Hash) String() string { return "0x" + hex.EncodeToString(h[:]) }

// Short returns the first 4 bytes of the hash in hex, for logs.
func (h Hash) Short() string { return hex.EncodeToString(h[:4]) }

// IsZero reports whether the hash is all zeroes.
func (h Hash) IsZero() bool { return h == ZeroHash }

// String renders the address as 0x-prefixed hex.
func (a Address) String() string { return "0x" + hex.EncodeToString(a[:]) }

// IsZero reports whether the address is all zeroes.
func (a Address) IsZero() bool { return a == ZeroAddress }

// HashBytes hashes arbitrary data with SHA-256.
func HashBytes(data ...[]byte) Hash {
	h := sha256.New()
	for _, d := range data {
		h.Write(d)
	}
	var out Hash
	h.Sum(out[:0])
	return out
}

// AddressFromHash derives an address from a hash (its first 20 bytes).
func AddressFromHash(h Hash) Address {
	var a Address
	copy(a[:], h[:AddressSize])
	return a
}

// ContractAddress derives the deterministic address of a contract deployed
// by sender with the given nonce.
func ContractAddress(sender Address, nonce uint64) Address {
	var buf [8]byte
	binary.BigEndian.PutUint64(buf[:], nonce)
	return AddressFromHash(HashBytes(sender[:], buf[:]))
}

// TxKind distinguishes the two DIABLO interaction types plus deployment.
type TxKind uint8

const (
	// KindTransfer is a native asset transfer (the paper's transfer_X).
	KindTransfer TxKind = iota
	// KindInvoke is a smart contract invocation (the paper's invoke_D_Xs).
	KindInvoke
	// KindDeploy creates a new contract from the bytecode in Data.
	KindDeploy
)

func (k TxKind) String() string {
	switch k {
	case KindTransfer:
		return "transfer"
	case KindInvoke:
		return "invoke"
	case KindDeploy:
		return "deploy"
	default:
		return fmt.Sprintf("TxKind(%d)", uint8(k))
	}
}

// Transaction is a signed request from a client to a blockchain. The same
// structure serves every simulated chain; chains differ in how they
// validate, order and execute it.
type Transaction struct {
	Kind     TxKind
	From     Address
	To       Address // recipient or contract; ignored for deploy
	Nonce    uint64  // per-sender sequence number
	Value    uint64  // native amount transferred
	GasLimit uint64  // maximum gas the sender pays for
	GasPrice uint64  // fee per gas unit
	Data     []byte  // calldata (invoke) or bytecode (deploy)

	// Sig is a shared placeholder of the wire signature's size on a
	// transaction sealed in-process (wallet.Account.Sign), and a real
	// signature over SigningBytes on one a remote Secondary uploads.
	Sig    []byte
	PubKey []byte // signer public key

	hash   Hash   // cached by ID on first use; zero until then
	handle uint64 // slot in the TxTable that marked it last; never encoded or digested
}

// signingFixedSize is the signing encoding's size without Data.
const signingFixedSize = 1 + 2*AddressSize + 4*8

// AppendSigningBytes appends the canonical byte encoding the signature
// covers to dst and returns the extended slice.
//
//perf:noalloc
func (tx *Transaction) AppendSigningBytes(dst []byte) []byte {
	dst = append(dst, byte(tx.Kind))
	dst = append(dst, tx.From[:]...)
	dst = append(dst, tx.To[:]...)
	dst = binary.BigEndian.AppendUint64(dst, tx.Nonce)
	dst = binary.BigEndian.AppendUint64(dst, tx.Value)
	dst = binary.BigEndian.AppendUint64(dst, tx.GasLimit)
	dst = binary.BigEndian.AppendUint64(dst, tx.GasPrice)
	return append(dst, tx.Data...)
}

// SigningBytes returns the canonical byte encoding the signature covers.
func (tx *Transaction) SigningBytes() []byte {
	return tx.AppendSigningBytes(make([]byte, 0, signingFixedSize+len(tx.Data)))
}

// Seal encodes the signing bytes into buf (reusing its capacity) and
// returns them for the signer. It does not hash: it clears the cached ID,
// which ID computes on first use, so a transaction nothing identifies (one
// a full pool drops in an untraced run) is never hashed, and a re-Seal
// after a mutation yields the new ID. A sealed transaction must not be
// mutated without sealing it again.
func (tx *Transaction) Seal(buf []byte) []byte {
	tx.hash = Hash{}
	return tx.AppendSigningBytes(buf[:0])
}

// ID returns the transaction hash (over the signed payload, excluding the
// signature itself), computed on first use and cached.
//
//perf:noalloc
func (tx *Transaction) ID() Hash {
	if tx.hash.IsZero() {
		// Calldata of every DApp call fits the stack array; a larger
		// payload (video upload, contract deployment) makes append grow.
		var buf [signingFixedSize + 64]byte
		tx.hash = sha256.Sum256(tx.AppendSigningBytes(buf[:0]))
	}
	return tx.hash
}

// Size returns the transaction's wire size in bytes, used to model network
// transmission delay and block size limits.
func (tx *Transaction) Size() int {
	return 1 + 2*AddressSize + 4*8 + len(tx.Data) + len(tx.Sig) + len(tx.PubKey)
}

// Block is a committed batch of transactions.
type Block struct {
	Number    uint64
	Parent    Hash
	Proposer  Address
	Timestamp time.Duration // virtual time at which the block was produced
	Txs       []*Transaction
	StateRoot Hash
	GasUsed   uint64

	hash Hash
}

// HeaderBytes returns the canonical encoding of the block header (the
// transaction list is summarized by its Merkle-style running hash).
func (b *Block) HeaderBytes() []byte {
	var u [8]byte
	buf := make([]byte, 0, 8*3+HashSize*3+AddressSize)
	binary.BigEndian.PutUint64(u[:], b.Number)
	buf = append(buf, u[:]...)
	buf = append(buf, b.Parent[:]...)
	buf = append(buf, b.Proposer[:]...)
	binary.BigEndian.PutUint64(u[:], uint64(b.Timestamp))
	buf = append(buf, u[:]...)
	txRoot := b.TxRoot()
	buf = append(buf, txRoot[:]...)
	buf = append(buf, b.StateRoot[:]...)
	binary.BigEndian.PutUint64(u[:], b.GasUsed)
	buf = append(buf, u[:]...)
	return buf
}

// TxRoot returns a digest committing to the ordered transaction list.
func (b *Block) TxRoot() Hash {
	h := sha256.New()
	for _, tx := range b.Txs {
		id := tx.ID()
		h.Write(id[:])
	}
	var out Hash
	h.Sum(out[:0])
	return out
}

// Hash returns the block hash. The result is cached; callers must not
// mutate the block after first calling Hash.
func (b *Block) Hash() Hash {
	if b.hash.IsZero() {
		b.hash = HashBytes(b.HeaderBytes())
	}
	return b.hash
}

// Size returns the approximate wire size of the block in bytes.
func (b *Block) Size() int {
	size := 8*3 + HashSize*2 + AddressSize
	for _, tx := range b.Txs {
		size += tx.Size()
	}
	return size
}

// ExecStatus is the outcome of executing a transaction.
type ExecStatus uint8

const (
	// StatusOK means the transaction executed successfully.
	StatusOK ExecStatus = iota
	// StatusReverted means the contract aborted (require failed / revert).
	StatusReverted
	// StatusOutOfGas means execution exhausted the gas limit.
	StatusOutOfGas
	// StatusBudgetExceeded means the VM's hard per-transaction compute
	// budget was exceeded (the paper's "budget exceeded" client error on
	// Algorand, Diem and Solana).
	StatusBudgetExceeded
	// StatusInvalid means the transaction failed validation (bad nonce,
	// insufficient balance, bad signature).
	StatusInvalid
)

func (s ExecStatus) String() string {
	switch s {
	case StatusOK:
		return "ok"
	case StatusReverted:
		return "reverted"
	case StatusOutOfGas:
		return "out of gas"
	case StatusBudgetExceeded:
		return "budget exceeded"
	case StatusInvalid:
		return "invalid"
	default:
		return fmt.Sprintf("ExecStatus(%d)", uint8(s))
	}
}

// Event is a log entry emitted by contract execution.
type Event struct {
	Contract Address
	Name     string
	Data     []uint64
}

// Receipt records the result of executing one transaction in a block.
type Receipt struct {
	TxID     Hash
	Block    uint64
	Status   ExecStatus
	GasUsed  uint64
	Error    string
	Events   []Event
	Contract Address // populated for deployments
}
