package types

import "testing"

// A table hands out dense handles, reuses freed slots first and holds no
// transaction whose marks have all cleared; a handle another table gave
// reads as foreign.
func TestTxTableMarksAndReuse(t *testing.T) {
	var tab TxTable
	a, b, c := sampleTx(1), sampleTx(2), sampleTx(3)
	ha := tab.Mark(a, TxPooled)
	hb := tab.Mark(b, TxAwaited)
	if ha != 0 || hb != 1 || tab.Live() != 2 {
		t.Fatalf("handles %d, %d with %d live, want 0, 1 with 2", ha, hb, tab.Live())
	}
	if h := tab.Mark(a, TxAwaited); h != ha || tab.Marks(a) != TxPooled|TxAwaited {
		t.Fatalf("re-Mark: handle %d marks %b, want %d and pooled|awaited", h, tab.Marks(a), ha)
	}
	tab.Unmark(ha, a, TxPooled)
	if tab.Marks(a) != TxAwaited || tab.Live() != 2 {
		t.Fatal("clearing one of two marks freed the slot")
	}
	tab.Unmark(ha, a, TxAwaited)
	if tab.Marks(a) != 0 || tab.Live() != 1 || tab.slots[ha].tx != nil {
		t.Fatal("clearing the last mark kept the slot")
	}
	if hc := tab.Mark(c, TxCommitted); hc != ha {
		t.Fatalf("fresh handle %d, want the freed slot %d", hc, ha)
	}
	if tab.Marks(a) != 0 {
		t.Fatal("a freed handle still finds its old transaction")
	}
	tab.Unmark(ha, a, TxCommitted) // a no longer holds the slot: no effect
	if tab.Marks(c) != TxCommitted {
		t.Fatal("a stale Unmark cleared another transaction's mark")
	}

	// A transaction is found by lookup in the table that marked it last.
	var other TxTable
	other.Mark(sampleTx(8), TxPooled)
	other.Mark(sampleTx(9), TxPooled)
	if other.Marks(b) != 0 {
		t.Fatal("another table's handle read as this table's")
	}
	if h := other.Mark(b, TxPooled); h != 2 || tab.Marks(b) != 0 || other.Marks(b) != TxPooled {
		t.Fatalf("b moved to the second table at %d; marks %b there, %b in the first", h, other.Marks(b), tab.Marks(b))
	}
	if tab.Unmark(hb, b, TxAwaited); tab.Live() != 1 {
		t.Fatal("Unmark by handle did not free the first table's slot")
	}
}

func TestTxTableAllocatesNothingOnReuse(t *testing.T) {
	var tab TxTable
	txs := []*Transaction{sampleTx(1), sampleTx(2)}
	for _, tx := range txs {
		tab.Mark(tx, TxPooled)
	}
	for _, tx := range txs {
		tab.Unmark(tx.handle, tx, TxPooled)
	}
	if n := testing.AllocsPerRun(100, func() {
		for _, tx := range txs {
			h := tab.Mark(tx, TxPooled)
			tab.Unmark(h, tx, TxPooled)
		}
	}); n != 0 {
		t.Fatalf("Mark/Unmark over free slots allocates %v times", n)
	}
}
