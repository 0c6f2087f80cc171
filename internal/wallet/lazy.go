package wallet

import (
	"encoding/binary"

	"diablo/internal/types"
)

// Lazy derives accounts on demand from (namespace, index) instead of
// materializing a population up front: the streaming workloads of
// internal/stream address millions of implicit clients, and only the
// ones actually encoding a transaction ever become real Account values.
// A small direct-mapped cache absorbs the repeated signers (DEX bots,
// multi-day diurnal clients) while keeping memory constant: the wallet's
// footprint is the cache size, never the population size.
type Lazy struct {
	scheme    Scheme
	namespace string
	slots     []lazySlot
	seedBuf   []byte
	signBuf   []byte // shared by every derived account (see Account.buf)

	// Derived and Hits count account derivations and cache hits.
	Derived uint64
	Hits    uint64
}

type lazySlot struct {
	used bool
	idx  uint64
	acct *Account
}

// DefaultLazyCache is the default direct-mapped cache size.
const DefaultLazyCache = 1024

// NewLazy creates an on-demand wallet. cacheSize <= 0 uses the default.
func NewLazy(scheme Scheme, namespace string, cacheSize int) *Lazy {
	if cacheSize <= 0 {
		cacheSize = DefaultLazyCache
	}
	return &Lazy{
		scheme:    scheme,
		namespace: namespace,
		slots:     make([]lazySlot, cacheSize),
		seedBuf:   make([]byte, 0, len(namespace)+8),
	}
}

// Account returns the account for an implicit client index, deriving it
// if the cache does not hold it. The returned pointer is valid until the
// slot is evicted; callers must not retain it across other indices.
func (l *Lazy) Account(idx uint64) *Account {
	slot := &l.slots[idx%uint64(len(l.slots))]
	if slot.used && slot.idx == idx {
		l.Hits++
		return slot.acct
	}
	l.seedBuf = append(l.seedBuf[:0], l.namespace...)
	l.seedBuf = binary.BigEndian.AppendUint64(l.seedBuf, idx)
	acct := newAccount(l.scheme, l.seedBuf, &l.signBuf)
	slot.used, slot.idx, slot.acct = true, idx, acct
	l.Derived++
	return acct
}

// Address returns the implicit client's address.
func (l *Lazy) Address(idx uint64) types.Address {
	return l.Account(idx).Address
}
