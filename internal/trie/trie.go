// Package trie implements a Merkle radix trie over hex nibbles, in the
// spirit of Ethereum's Merkle Patricia Trie: insertion-order independent,
// with a root hash that commits to the full key/value mapping. Simulated
// chains that model geth maintain account and contract state in this trie;
// the paper notes Solana replaces it with a cheaper structure, which
// package trie also provides as FlatAccumulator.
package trie

import (
	"bytes"
	"crypto/sha256"

	"diablo/internal/types"
)

// node is a 17-ary trie node: children[0..15] index the next hex nibble and
// a node may additionally hold a value terminating at this point.
type node struct {
	children [16]*node
	value    []byte
	hasValue bool

	// hash caches the node's commitment; nil means dirty.
	hash []byte
}

// Trie is a mutable Merkle trie. The zero value is not usable; call New.
type Trie struct {
	root *node
	size int
}

// New returns an empty trie.
func New() *Trie { return &Trie{root: &node{}} }

// nibbles expands a key into hex nibbles.
func nibbles(key []byte) []byte {
	out := make([]byte, 0, len(key)*2)
	for _, b := range key {
		out = append(out, b>>4, b&0x0f)
	}
	return out
}

// Put inserts or updates key -> value. A nil value is stored as empty.
func (t *Trie) Put(key, value []byte) {
	n := t.root
	n.hash = nil
	for _, nb := range nibbles(key) {
		if n.children[nb] == nil {
			n.children[nb] = &node{}
		}
		n = n.children[nb]
		n.hash = nil
	}
	if !n.hasValue {
		t.size++
	}
	n.value = append([]byte(nil), value...)
	n.hasValue = true
}

// Get returns the value for key and whether it exists.
func (t *Trie) Get(key []byte) ([]byte, bool) {
	n := t.root
	for _, nb := range nibbles(key) {
		if n.children[nb] == nil {
			return nil, false
		}
		n = n.children[nb]
	}
	if !n.hasValue {
		return nil, false
	}
	return n.value, true
}

// Delete removes key, reporting whether it was present. Empty branches are
// pruned so the structure (and therefore the root) matches a trie that
// never contained the key.
func (t *Trie) Delete(key []byte) bool {
	path := []*node{t.root}
	nbs := nibbles(key)
	n := t.root
	for _, nb := range nbs {
		if n.children[nb] == nil {
			return false
		}
		n = n.children[nb]
		path = append(path, n)
	}
	if !n.hasValue {
		return false
	}
	n.hasValue = false
	n.value = nil
	t.size--
	// Prune empty leaves bottom-up and mark the path dirty.
	for i := len(path) - 1; i >= 0; i-- {
		path[i].hash = nil
		if i > 0 && path[i].empty() {
			path[i-1].children[nbs[i-1]] = nil
		}
	}
	return true
}

func (n *node) empty() bool {
	if n.hasValue {
		return false
	}
	for _, c := range n.children {
		if c != nil {
			return false
		}
	}
	return true
}

// Len returns the number of stored keys.
func (t *Trie) Len() int { return t.size }

var emptyHash = sha256.Sum256(nil)

// commit computes (and caches) the node's hash.
func (n *node) commit() []byte {
	if n == nil {
		return emptyHash[:]
	}
	if n.hash != nil {
		return n.hash
	}
	h := sha256.New()
	for i, c := range n.children {
		if c == nil {
			continue
		}
		h.Write([]byte{byte(i)})
		h.Write(c.commit())
	}
	if n.hasValue {
		h.Write([]byte{0xff})
		vh := sha256.Sum256(n.value)
		h.Write(vh[:])
	}
	n.hash = h.Sum(nil)
	return n.hash
}

// Root returns the Merkle commitment over the whole mapping. Computing the
// root is incremental: only paths touched since the last Root call are
// rehashed.
func (t *Trie) Root() types.Hash {
	var out types.Hash
	copy(out[:], t.root.commit())
	return out
}

// Equal reports whether two tries hold the same mapping (via root hashes).
func (t *Trie) Equal(o *Trie) bool {
	return bytes.Equal(t.root.commit(), o.root.commit())
}

// FlatAccumulator is the cheap alternative state commitment used by the
// simulated Solana: a running hash over (key, value) updates. It is orders
// of magnitude faster than a trie but its commitment depends on update
// order — matching Solana's design choice of trading the Merkle Patricia
// Trie for speed (the paper, §5.2).
type FlatAccumulator struct {
	state map[string][]byte
	acc   types.Hash
}

// NewFlat returns an empty accumulator.
func NewFlat() *FlatAccumulator {
	return &FlatAccumulator{state: make(map[string][]byte)}
}

// Put records key -> value and folds the update into the commitment.
func (f *FlatAccumulator) Put(key, value []byte) {
	f.state[string(key)] = append([]byte(nil), value...)
	f.acc = types.HashBytes(f.acc[:], key, value)
}

// Get returns the value for key.
func (f *FlatAccumulator) Get(key []byte) ([]byte, bool) {
	v, ok := f.state[string(key)]
	return v, ok
}

// Len returns the number of keys.
func (f *FlatAccumulator) Len() int { return len(f.state) }

// Root returns the running commitment.
func (f *FlatAccumulator) Root() types.Hash { return f.acc }
