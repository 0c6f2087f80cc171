package types

// TxMarks is the state a TxTable keeps for one transaction: one bit per
// owner that tracks it.
type TxMarks uint8

const (
	// TxPooled marks a transaction waiting in the table's mempool.
	TxPooled TxMarks = 1 << iota
	// TxAwaited marks a transaction a client awaits a decision on.
	TxAwaited
	// TxCommitted marks a transaction included in a block. It is never
	// cleared, so a committed transaction keeps its slot, as the ledger
	// keeps it reachable anyway.
	TxCommitted
)

// TxTable gives the transactions one pool (or one network and its pool)
// tracks dense handles, and keeps their marks in a slice indexed by
// handle. The admission path probes a slot where it would otherwise hash
// the transaction and probe maps keyed by the 32-byte ID, so a transaction
// that is never included is never hashed.
//
// A handle is a slot index, below 1<<32, stored in the transaction when a
// table first marks it. Marks and Mark trust it only while the slot holds
// that very transaction: a handle left by another table, or by a slot freed
// since, reads as foreign, and the transaction gets a fresh slot. A
// transaction carries one handle, so one tracked by two tables at once is
// found by lookup only in the table that marked it last; the other treats
// it as new. Unmark takes the handle Mark returned, so it frees the right
// slot either way.
//
// A slot is freed when its last mark clears (the transaction was taken,
// dropped or timed out), and freed slots are reused first, so the table
// never holds more slots than transactions were tracked at once, and a
// freed slot keeps no transaction reachable.
type TxTable struct {
	slots []txSlot
	free  uint32 // 1 + index of the first free slot; 0 when none is
	live  int
}

// txSlot is one handle's transaction (nil while free) and marks, or, while
// free, the link to the next free slot.
type txSlot struct {
	tx    *Transaction
	next  uint32
	marks TxMarks
}

// slot returns tx's slot, or nil when tx has none in this table.
func (t *TxTable) slot(tx *Transaction) *txSlot {
	if tx.handle < uint64(len(t.slots)) {
		if s := &t.slots[tx.handle]; s.tx == tx {
			return s
		}
	}
	return nil
}

// Marks returns tx's marks, 0 when tx has no slot in this table.
func (t *TxTable) Marks(tx *Transaction) TxMarks {
	if s := t.slot(tx); s != nil {
		return s.marks
	}
	return 0
}

// Mark sets m on tx, giving tx a slot first if it has none here, and
// returns tx's handle. The handle stays valid until the last mark clears.
func (t *TxTable) Mark(tx *Transaction, m TxMarks) uint64 {
	s := t.slot(tx)
	if s == nil {
		if t.free != 0 {
			tx.handle = uint64(t.free - 1)
			s = &t.slots[tx.handle]
			t.free = s.next
		} else {
			tx.handle = uint64(len(t.slots))
			t.slots = append(t.slots, txSlot{})
			s = &t.slots[tx.handle]
		}
		*s = txSlot{tx: tx}
		t.live++
	}
	s.marks |= m
	return tx.handle
}

// Unmark clears m on slot h, the handle Mark returned for tx, and frees
// the slot once no mark is left. It does nothing when the slot no longer
// holds tx.
func (t *TxTable) Unmark(h uint64, tx *Transaction, m TxMarks) {
	if h >= uint64(len(t.slots)) || t.slots[h].tx != tx {
		return
	}
	s := &t.slots[h]
	if s.marks &^= m; s.marks == 0 {
		*s = txSlot{next: t.free}
		t.free = uint32(h) + 1
		t.live--
	}
}

// Live returns how many transactions hold a slot.
func (t *TxTable) Live() int { return t.live }
