package mempool

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"
	"time"

	"diablo/internal/types"
)

func tx(sender byte, nonce uint64) *types.Transaction {
	return &types.Transaction{From: types.Address{sender}, Nonce: nonce, GasLimit: 21000}
}

func gasOf(t *types.Transaction) uint64 { return t.GasLimit }

func TestFIFOTake(t *testing.T) {
	p := New(Policy{}, nil)
	for i := uint64(0); i < 5; i++ {
		if err := p.Add(tx(1, i), 0, time.Duration(i)); err != nil {
			t.Fatal(err)
		}
	}
	got := p.TakeWith(TakeSpec{Viewer: 0, Now: time.Minute, MaxTxs: 3})
	if len(got) != 3 {
		t.Fatalf("took %d, want 3", len(got))
	}
	for i, x := range got {
		if x.Nonce != uint64(i) {
			t.Fatalf("not FIFO: %d at %d", x.Nonce, i)
		}
	}
	if p.Len() != 2 {
		t.Fatalf("Len = %d, want 2", p.Len())
	}
	rest := p.TakeWith(TakeSpec{Viewer: 0, Now: time.Minute})
	if len(rest) != 2 || rest[0].Nonce != 3 {
		t.Fatalf("remaining take wrong: %v", rest)
	}
}

func TestDuplicateRejected(t *testing.T) {
	p := New(Policy{}, nil)
	a := tx(1, 1)
	if err := p.Add(a, 0, 0); err != nil {
		t.Fatal(err)
	}
	if err := p.Add(a, 0, 0); err != ErrDuplicate {
		t.Fatalf("err = %v, want duplicate", err)
	}
	if p.Len() != 1 || p.Dropped() != 0 {
		t.Fatalf("Len = %d, Dropped = %d after a duplicate, want 1 and 0", p.Len(), p.Dropped())
	}
	// Taken, it is forgotten: adding it again is admitted.
	p.TakeWith(TakeSpec{Viewer: 0, Now: time.Minute})
	if err := p.Add(a, 0, time.Minute); err != nil {
		t.Fatalf("re-Add after take: %v", err)
	}
}

// A transaction another pool handed a handle is new to this one: its
// handle reads as foreign, it is admitted, and this pool's duplicate check
// then holds for it. Neither pool's table keeps a transaction it no
// longer holds.
func TestTransactionFromAnotherPoolAdmitted(t *testing.T) {
	a, b := New(Policy{}, nil), New(Policy{}, nil)
	x := tx(1, 0)
	for i := uint64(1); i <= 3; i++ {
		if err := a.Add(tx(2, i), 0, 0); err != nil {
			t.Fatal(err)
		}
	}
	if err := a.Add(x, 0, 0); err != nil {
		t.Fatal(err)
	}
	a.TakeWith(TakeSpec{Viewer: 0, Now: time.Minute}) // x's slot in a is freed
	if err := b.Add(x, 0, 0); err != nil {
		t.Fatalf("transaction from another pool: %v", err)
	}
	if err := b.Add(x, 0, 0); err != ErrDuplicate {
		t.Fatalf("second Add to the new pool: err = %v, want duplicate", err)
	}
	if err := a.Add(x, 0, time.Minute); err != nil {
		t.Fatalf("back to the first pool: %v", err)
	}
	if got := a.Txs().Live(); got != 1 {
		t.Fatalf("first pool tracks %d transactions, want 1", got)
	}
	b.TakeWith(TakeSpec{Viewer: 0, Now: time.Minute})
	if got := b.Txs().Live(); got != 0 {
		t.Fatalf("drained pool tracks %d transactions, want 0", got)
	}
}

func TestCapacityBound(t *testing.T) {
	p := New(Policy{Capacity: 3}, nil)
	for i := uint64(0); i < 3; i++ {
		if err := p.Add(tx(1, i), 0, 0); err != nil {
			t.Fatal(err)
		}
	}
	if err := p.Add(tx(1, 99), 0, 0); err != ErrPoolFull {
		t.Fatalf("err = %v, want pool full", err)
	}
	if p.Dropped() != 1 || p.Accepted() != 3 {
		t.Fatalf("dropped=%d accepted=%d", p.Dropped(), p.Accepted())
	}
	// Taking frees capacity.
	p.TakeWith(TakeSpec{Viewer: 0, Now: time.Minute, MaxTxs: 1})
	if err := p.Add(tx(1, 99), 0, 0); err != nil {
		t.Fatalf("add after take: %v", err)
	}
}

func TestPerSenderCapDiem(t *testing.T) {
	// Diem: at most 100 pending transactions per signer.
	p := New(Policy{PerSender: 100}, nil)
	for i := uint64(0); i < 100; i++ {
		if err := p.Add(tx(1, i), 0, 0); err != nil {
			t.Fatal(err)
		}
	}
	if err := p.Add(tx(1, 100), 0, 0); err != ErrSenderCap {
		t.Fatalf("err = %v, want sender cap", err)
	}
	// A different sender is unaffected.
	if err := p.Add(tx(2, 0), 0, 0); err != nil {
		t.Fatalf("other sender blocked: %v", err)
	}
	// Removing frees the sender's budget.
	p.TakeWith(TakeSpec{Viewer: 0, Now: time.Minute, MaxTxs: 1})
	if err := p.Add(tx(1, 100), 0, 0); err != nil {
		t.Fatalf("add after free: %v", err)
	}
}

func TestUnboundedGrowth(t *testing.T) {
	// The IBFT "never drop" policy: everything is admitted.
	p := New(Policy{}, nil)
	for i := 0; i < 50000; i++ {
		if err := p.Add(tx(byte(i%200), uint64(i)), 0, 0); err != nil {
			t.Fatalf("unbounded pool rejected tx %d: %v", i, err)
		}
	}
	if p.Len() != 50000 {
		t.Fatalf("Len = %d", p.Len())
	}
}

func TestGasLimitedTake(t *testing.T) {
	p := New(Policy{}, nil)
	for i := uint64(0); i < 10; i++ {
		p.Add(tx(1, i), 0, 0)
	}
	got := p.TakeWith(TakeSpec{Viewer: 0, Now: time.Minute, MaxGas: 63000, GasOf: gasOf}) // 3 x 21000
	if len(got) != 3 {
		t.Fatalf("took %d txs, want 3 within gas limit", len(got))
	}
	if p.Len() != 7 {
		t.Fatalf("Len = %d, want 7", p.Len())
	}
}

func TestOversizedTxDropped(t *testing.T) {
	p := New(Policy{}, nil)
	big := tx(1, 0)
	big.GasLimit = 50_000_000
	p.Add(big, 0, 0)
	p.Add(tx(1, 1), 0, 0)
	got := p.TakeWith(TakeSpec{Viewer: 0, Now: time.Minute, MaxGas: 8_000_000, GasOf: gasOf})
	if len(got) != 1 || got[0].Nonce != 1 {
		t.Fatalf("oversized tx not skipped: %v", got)
	}
	if p.Len() != 0 {
		t.Fatal("oversized tx should be dropped, not kept")
	}
	if p.Dropped() != 1 {
		t.Fatalf("Dropped = %d", p.Dropped())
	}
}

func TestVisibilityDelay(t *testing.T) {
	// Transactions originating at node 1 take 500ms to reach node 0.
	vis := func(origin, viewer int) time.Duration {
		if origin == viewer {
			return 0
		}
		return 500 * time.Millisecond
	}
	p := New(Policy{}, vis)
	p.Add(tx(1, 0), 1, time.Second)

	if got := p.TakeWith(TakeSpec{Viewer: 0, Now: time.Second}); len(got) != 0 {
		t.Fatal("tx visible before gossip delay")
	}
	if got := p.TakeWith(TakeSpec{Viewer: 1, Now: time.Second}); len(got) != 1 {
		t.Fatal("tx not visible at its origin")
	}
	p.Add(tx(1, 1), 1, time.Second)
	if got := p.TakeWith(TakeSpec{Viewer: 0, Now: 1500 * time.Millisecond}); len(got) != 1 {
		t.Fatal("tx not visible after gossip delay")
	}
}

func TestVisibilitySkipPreservesOrder(t *testing.T) {
	vis := func(origin, viewer int) time.Duration {
		if origin == viewer {
			return 0
		}
		return time.Hour
	}
	p := New(Policy{}, vis)
	p.Add(tx(1, 0), 9, 0) // invisible to node 0
	p.Add(tx(1, 1), 0, 0) // visible
	p.Add(tx(1, 2), 9, 0) // invisible
	p.Add(tx(1, 3), 0, 0) // visible
	got := p.TakeWith(TakeSpec{Viewer: 0, Now: time.Second})
	if len(got) != 2 || got[0].Nonce != 1 || got[1].Nonce != 3 {
		t.Fatalf("visible take wrong: %+v", got)
	}
	if p.Len() != 2 {
		t.Fatalf("Len = %d, want 2 invisible left", p.Len())
	}
	// The skipped entries are still takeable at their origin.
	got = p.TakeWith(TakeSpec{Viewer: 9, Now: time.Second})
	if len(got) != 2 || got[0].Nonce != 0 || got[1].Nonce != 2 {
		t.Fatalf("origin take wrong: %+v", got)
	}
}

// Property: the pool never exceeds its capacity and never loses or
// duplicates transactions across arbitrary add/take sequences.
func TestPoolInvariantsProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		cap := rng.Intn(50) + 1
		p := New(Policy{Capacity: cap, PerSender: 10}, nil)
		inPool := map[types.Hash]bool{}
		taken := map[types.Hash]bool{}
		next := uint64(0)
		for step := 0; step < 300; step++ {
			if rng.Intn(3) != 0 {
				x := tx(byte(rng.Intn(5)), next)
				next++
				err := p.Add(x, 0, time.Duration(step))
				if err == nil {
					if inPool[x.ID()] {
						return false // duplicate admitted
					}
					inPool[x.ID()] = true
				}
			} else {
				for _, x := range p.TakeWith(TakeSpec{Viewer: 0, Now: time.Hour, MaxTxs: rng.Intn(5) + 1}) {
					if !inPool[x.ID()] || taken[x.ID()] {
						return false // lost or duplicated
					}
					delete(inPool, x.ID())
					taken[x.ID()] = true
				}
			}
			if p.Len() > cap || p.Len() != len(inPool) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// takeFullScan is the pre-prefix TakeWith, kept as the reference the
// property test below compares against: it visits every entry on every
// take and so depends on no ordering of the pool.
func takeFullScan(p *Pool, spec TakeSpec) []*types.Transaction {
	var out []*types.Transaction
	var gas uint64
	var cost time.Duration
	var expect map[types.Address]uint64
	if spec.NextNonce != nil {
		expect = make(map[types.Address]uint64)
	}
	var kept []Entry
	taking := true
	for _, e := range p.entries {
		if spec.MaxAge > 0 && spec.Now-e.Seen > spec.MaxAge {
			p.remove(e)
			p.dropped++
			continue
		}
		if !taking {
			kept = append(kept, e)
			continue
		}
		if p.visible != nil && e.Seen+p.visible(int(e.Origin), spec.Viewer) > spec.Now {
			kept = append(kept, e)
			continue
		}
		if spec.Skip != nil && spec.Skip(e.Tx, int(e.Origin)) {
			kept = append(kept, e)
			continue
		}
		if spec.MinGasPrice > 0 && e.Tx.GasPrice < spec.MinGasPrice {
			kept = append(kept, e)
			continue
		}
		if spec.NextNonce != nil {
			want, seen := expect[e.Tx.From]
			if !seen {
				want = spec.NextNonce(e.Tx.From)
			}
			if e.Tx.Nonce != want {
				kept = append(kept, e)
				continue
			}
		}
		g := uint64(0)
		if spec.GasOf != nil {
			g = spec.GasOf(e.Tx)
		}
		var c time.Duration
		if spec.CostOf != nil {
			c = spec.CostOf(e.Tx)
		}
		if spec.MaxGas > 0 && gas+g > spec.MaxGas && len(out) > 0 {
			kept = append(kept, e)
			taking = false
			continue
		}
		if spec.MaxCost > 0 && cost+c > spec.MaxCost && len(out) > 0 {
			kept = append(kept, e)
			taking = false
			continue
		}
		if spec.MaxGas > 0 && g > spec.MaxGas {
			p.remove(e)
			p.dropped++
			continue
		}
		out = append(out, e.Tx)
		if spec.Origins != nil {
			*spec.Origins = append(*spec.Origins, e.Origin)
		}
		gas += g
		cost += c
		if expect != nil {
			expect[e.Tx.From] = e.Tx.Nonce + 1
		}
		p.remove(e)
		if spec.MaxTxs > 0 && len(out) >= spec.MaxTxs {
			taking = false
		}
	}
	p.entries = kept
	return out
}

// Property: the prefix take returns what a full scan of the pool returns —
// same transactions and origins, same entries left in the same order, same
// drop count — over random pools, specs and interleaved adds.
func TestPrefixTakeMatchesFullScan(t *testing.T) {
	const nodes, senders = 4, 6
	visible := func(origin, viewer int) time.Duration {
		return time.Duration((origin+3*viewer)%nodes) * 40 * time.Millisecond
	}
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		policy := Policy{Capacity: rng.Intn(3) * 150, PerSender: rng.Intn(2) * 60}
		got, want := New(policy, visible), New(policy, visible)
		chainNonce := map[types.Address]uint64{} // what NextNonce reports
		nextNonce := make([]uint64, senders)
		now := time.Duration(0)
		for step := 0; step < 60; step++ {
			for i := rng.Intn(30); i > 0; i-- {
				now += time.Duration(rng.Intn(30)) * time.Millisecond
				s := rng.Intn(senders)
				x := &types.Transaction{
					From: types.Address{byte(s)}, Nonce: nextNonce[s],
					GasLimit: uint64(1+rng.Intn(12)) * 10_000, GasPrice: uint64(1 + rng.Intn(4)),
				}
				if rng.Intn(10) > 0 { // one in ten leaves a nonce gap
					nextNonce[s]++
				}
				origin := rng.Intn(nodes)
				if e1, e2 := got.Add(x, origin, now), want.Add(x, origin, now); e1 != e2 {
					t.Logf("seed %d step %d: Add %v vs %v", seed, step, e1, e2)
					return false
				}
			}
			now += time.Duration(rng.Intn(400)) * time.Millisecond
			var o1, o2 []int32
			spec := TakeSpec{Viewer: rng.Intn(nodes), Now: now, GasOf: gasOf}
			if rng.Intn(3) > 0 {
				spec.MaxTxs = 1 + rng.Intn(25)
			}
			if rng.Intn(2) == 0 {
				spec.MaxGas = uint64(5+rng.Intn(100)) * 10_000 // some single transactions exceed it
			}
			if rng.Intn(3) == 0 {
				spec.MaxCost = time.Duration(1+rng.Intn(10)) * time.Millisecond
				spec.CostOf = func(x *types.Transaction) time.Duration { return time.Duration(x.GasPrice) * time.Millisecond }
			}
			if rng.Intn(3) == 0 {
				spec.MaxAge = time.Duration(1+rng.Intn(3)) * time.Second
			}
			if rng.Intn(3) == 0 {
				spec.NextNonce = func(a types.Address) uint64 { return chainNonce[a] }
			}
			if rng.Intn(3) == 0 {
				spec.MinGasPrice = uint64(1 + rng.Intn(3))
			}
			if rng.Intn(4) == 0 {
				censored := rng.Intn(nodes)
				spec.Skip = func(_ *types.Transaction, origin int) bool { return origin == censored }
			}
			spec.Origins = &o1
			a := got.TakeWith(spec)
			spec.Origins = &o2
			b := takeFullScan(want, spec)
			for _, x := range b {
				if x.Nonce >= chainNonce[x.From] {
					chainNonce[x.From] = x.Nonce + 1
				}
			}
			if fmt.Sprint(a) != fmt.Sprint(b) || fmt.Sprint(o1) != fmt.Sprint(o2) || len(o1) != len(a) ||
				fmt.Sprint(got.entries) != fmt.Sprint(want.entries) ||
				got.Dropped() != want.Dropped() || got.Len() != want.Len() {
				t.Logf("seed %d step %d: took %d vs %d, left %d vs %d, dropped %d vs %d", seed, step,
					len(a), len(b), got.Len(), want.Len(), got.Dropped(), want.Dropped())
				return false
			}
			// A taken transaction is no longer indexed: adding it back is
			// not a duplicate (the pools may still refuse it by policy).
			for _, x := range a {
				if e1, e2 := got.Add(x, 0, now), want.Add(x, 0, now); e1 != e2 || e1 == ErrDuplicate {
					t.Logf("seed %d step %d: re-Add of a taken transaction: %v vs %v", seed, step, e1, e2)
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// The ordering invariant the prefix take rests on: entries stay sorted by
// Seen through adds, takes and evictions, an Add that would break it is
// refused loudly, and a take leaves no taken transaction reachable in the
// slice's slack.
func TestPoolOrderedBySeen(t *testing.T) {
	p := New(Policy{}, func(origin, viewer int) time.Duration { return time.Duration(origin) * time.Second })
	for i := uint64(0); i < 40; i++ {
		p.Add(tx(byte(i%5), i), int(i%3), time.Duration(i)*100*time.Millisecond)
	}
	backing := p.entries
	p.TakeWith(TakeSpec{Viewer: 0, Now: 4 * time.Second, MaxTxs: 7})
	mid := p.entries[3].Tx // taken out of the middle: every other entry is skipped
	p.TakeWith(TakeSpec{Viewer: 0, Now: 4 * time.Second, Skip: func(x *types.Transaction, _ int) bool { return x != mid }})
	p.TakeWith(TakeSpec{Viewer: 0, Now: 5 * time.Second, MaxAge: 3 * time.Second, MaxTxs: 2})
	for i := 1; i < len(p.entries); i++ {
		if p.entries[i].Seen < p.entries[i-1].Seen {
			t.Fatalf("entries out of Seen order at %d", i)
		}
	}
	live := map[*types.Transaction]bool{}
	for _, e := range p.entries {
		live[e.Tx] = true
	}
	for i, e := range backing {
		if e.Tx != nil && !live[e.Tx] {
			t.Fatalf("backing slot %d still references a transaction that left the pool", i)
		}
	}
	defer func() {
		if recover() == nil {
			t.Fatal("Add before the newest entry's time did not panic")
		}
	}()
	p.Add(tx(9, 0), 0, time.Second)
}

func BenchmarkPoolAddTake(b *testing.B) {
	p := New(Policy{Capacity: 100000}, nil)
	txs := make([]*types.Transaction, 1000)
	for i := range txs {
		txs[i] = &types.Transaction{From: types.Address{byte(i)}, Nonce: uint64(i)}
		txs[i].ID()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		x := txs[i%1000]
		// Fresh identity per round to avoid duplicate rejection.
		y := *x
		y.Nonce = uint64(i)
		p.Add(&y, 0, time.Duration(i))
		if i%100 == 99 {
			p.TakeWith(TakeSpec{Viewer: 0, Now: time.Duration(i) + time.Hour, MaxTxs: 100})
		}
	}
}
