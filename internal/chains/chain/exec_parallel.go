package chain

// Parallel intra-block transaction execution (DESIGN.md §14).
//
// ApplyBlock runs a block's transactions in two phases when Workers > 1.
// Phase one speculates every transaction concurrently on a worker pool:
// each transaction executes on a txLane, a buffered overlay over the
// immutable pre-block state that records every state touch into a
// pexec.RWSet. Because the multi-version store is empty during
// speculation, every lane reads pure pre-block state, so the speculative
// results are independent of worker count and scheduling.
//
// Phase two is a serial commit scan in canonical order. A transaction
// spec-commits — adopts its speculative receipt and write log — iff it
// did not abort, has no read-after-write edge from an earlier
// transaction's speculative writes (pexec.BuildGraph), and none of its
// reads were actually written by an earlier fallback re-execution.
// Everything else re-executes sequentially on a fresh lane whose reads
// resolve through the multi-version store (highest committed version
// below its own index). Both kinds of committed lane publish their write
// logs to the multi-version store for later readers.
//
// Finally the scan's ordered per-transaction mutation logs replay into
// the canonical executor state in canonical order. Replaying the ordered
// log — not just final values — matters because the Solana-style flat
// state commitment folds every intermediate balance write into a running
// accumulator, so the canonical sequence of commitBalance calls must be
// reproduced exactly for state roots to match serial execution.

import (
	"diablo/internal/avm"
	"diablo/internal/pexec"
	"diablo/internal/types"
	"diablo/internal/vm"
	"diablo/internal/vmprofiles"
)

// minParallelTxs is the smallest block the parallel path accepts; tiny
// blocks are cheaper to execute serially than to coordinate.
const minParallelTxs = 4

// Key constructors for the pexec key spaces.

func balanceKey(a types.Address) pexec.Key { return pexec.Key{Space: pexec.SpaceBalance, Addr: a} }
func nonceKey(a types.Address) pexec.Key   { return pexec.Key{Space: pexec.SpaceNonce, Addr: a} }
func contractKey(a types.Address) pexec.Key {
	return pexec.Key{Space: pexec.SpaceContract, Addr: a}
}
func storageKey(a types.Address, slot uint64) pexec.Key {
	return pexec.Key{Space: pexec.SpaceStorage, Addr: a, Slot: slot}
}
func appKey(a types.Address, key uint64) pexec.Key {
	return pexec.Key{Space: pexec.SpaceAppState, Addr: a, Slot: key}
}
func lenKey(a types.Address) pexec.Key    { return pexec.Key{Space: pexec.SpaceLen, Addr: a} }
func appLenKey(a types.Address) pexec.Key { return pexec.Key{Space: pexec.SpaceAppLen, Addr: a} }
func cacheMVKey(k cacheKey) pexec.Key {
	return pexec.Key{Space: pexec.SpaceCache, Addr: k.contract, Slot: k.selector}
}

// blockMV is the per-block multi-version state: scalar values (balances,
// nonces, storage slots, app-state keys, length-delta sentinels) and gas
// cache entries live in separate typed stores.
type blockMV struct {
	scalars *pexec.Store[uint64]
	caches  *pexec.Store[cacheEntry]
}

func newBlockMV() *blockMV {
	return &blockMV{scalars: pexec.NewStore[uint64](), caches: pexec.NewStore[cacheEntry]()}
}

// stateOp is one entry of a lane's ordered mutation log, replayed into
// canonical state at flush time.
type stateOp struct {
	kind     uint8
	addr     types.Address
	slot     uint64
	val      uint64
	ckey     cacheKey
	entry    cacheEntry
	contract *Contract
}

const (
	opBalance uint8 = iota
	opNonce
	opStore
	opStoreDelete
	opAppPut
	opAppDelete
	opCache
	opContract
)

// txLane executes one transaction against a buffered overlay of the
// pre-block state, recording every touch into its RWSet. During phase-one
// speculation mv is nil and every miss falls through to the executor's
// canonical maps (read-only — concurrent lanes never write shared state);
// during a fallback re-execution mv resolves reads against earlier
// committed transactions first.
type txLane struct {
	exec   *Executor
	idx    int // canonical index within the block
	engine *engine
	set    *pexec.RWSet
	mv     *blockMV // nil during speculation

	// newContracts is the commit scan's shared registry of contracts
	// deployed earlier in this block (fallback lanes only); speculation
	// aborts deploys, so it is nil in phase one.
	newContracts map[types.Address]*Contract

	balances map[types.Address]uint64
	nonces   map[types.Address]uint64
	cache    map[cacheKey]cacheEntry

	// Per-contract storage overlays, plus creation-ordered address lists
	// so publishing never ranges over a map.
	storage      map[types.Address]*laneStorage
	storageOrder []types.Address
	appstate     map[types.Address]*laneKV
	appOrder     []types.Address

	log      []stateOp
	executed uint64
	replayed uint64

	aborted bool
	receipt *types.Receipt
}

func newLane(e *Executor, idx int, eng *engine, mv *blockMV, newContracts map[types.Address]*Contract) *txLane {
	return &txLane{
		exec:         e,
		idx:          idx,
		engine:       eng,
		mv:           mv,
		newContracts: newContracts,
		set:          pexec.NewRWSet(),
		balances:     make(map[types.Address]uint64),
		nonces:       make(map[types.Address]uint64),
		cache:        make(map[cacheKey]cacheEntry),
		storage:      make(map[types.Address]*laneStorage),
		appstate:     make(map[types.Address]*laneKV),
	}
}

// speculate runs the phase-one pass. In-band deploys abort: their effect
// (a new contract) cannot be represented in the scalar multi-version
// store, so they always take the sequential fallback, where the shared
// newContracts registry carries them.
func (l *txLane) speculate(tx *types.Transaction, blk *types.Block, p Params) {
	if tx.Kind == types.KindDeploy {
		l.aborted = true
		return
	}
	l.receipt = applyOn(l, tx, blk, p)
}

// rerun is the sequential fallback execution (all kinds allowed).
func (l *txLane) rerun(tx *types.Transaction, blk *types.Block, p Params) {
	l.receipt = applyOn(l, tx, blk, p)
}

// txLane implements execState.

func (l *txLane) vmProfile() *vmprofiles.Profile { return l.exec.profile }
func (l *txLane) vmEngine() *engine              { return l.engine }
func (l *txLane) cacheThreshold() int            { return l.exec.CacheAfter }
func (l *txLane) noteExecuted()                  { l.executed++ }
func (l *txLane) noteReplayed()                  { l.replayed++ }

func (l *txLane) getBalance(a types.Address) uint64 {
	l.set.Read(balanceKey(a))
	if v, ok := l.balances[a]; ok {
		return v
	}
	if l.mv != nil {
		if v, _, ok := l.mv.scalars.Read(balanceKey(a), l.idx); ok {
			return v
		}
	}
	return l.exec.Balance(a)
}

func (l *txLane) putBalance(a types.Address, v uint64) {
	l.set.Write(balanceKey(a))
	l.balances[a] = v
	l.log = append(l.log, stateOp{kind: opBalance, addr: a, val: v})
}

func (l *txLane) getNonce(a types.Address) uint64 {
	l.set.Read(nonceKey(a))
	if v, ok := l.nonces[a]; ok {
		return v
	}
	if l.mv != nil {
		if v, _, ok := l.mv.scalars.Read(nonceKey(a), l.idx); ok {
			return v
		}
	}
	return l.exec.nonces[a]
}

func (l *txLane) putNonce(a types.Address, v uint64) {
	l.set.Write(nonceKey(a))
	l.nonces[a] = v
	l.log = append(l.log, stateOp{kind: opNonce, addr: a, val: v})
}

func (l *txLane) getContract(a types.Address) (*Contract, bool) {
	// Recorded on hit and miss: an earlier in-block deploy changes a
	// miss into a hit, so the miss itself is a dependency.
	l.set.Read(contractKey(a))
	if l.newContracts != nil {
		if c, ok := l.newContracts[a]; ok {
			return c, true
		}
	}
	c, ok := l.exec.contracts[a]
	return c, ok
}

func (l *txLane) putContract(a types.Address, c *Contract) {
	l.set.Write(contractKey(a))
	if l.newContracts != nil {
		l.newContracts[a] = c
	}
	l.log = append(l.log, stateOp{kind: opContract, addr: a, contract: c})
}

func (l *txLane) getCache(k cacheKey) (cacheEntry, bool) {
	l.set.Read(cacheMVKey(k))
	if e, ok := l.cache[k]; ok {
		return e, true
	}
	if l.mv != nil {
		if v, _, ok := l.mv.caches.Read(cacheMVKey(k), l.idx); ok {
			return v, true
		}
	}
	return l.exec.getCache(k)
}

func (l *txLane) putCache(k cacheKey, ce cacheEntry) {
	l.set.Write(cacheMVKey(k))
	l.cache[k] = ce
	l.log = append(l.log, stateOp{kind: opCache, ckey: k, entry: ce})
}

func (l *txLane) contractStorage(c *Contract) vm.Storage {
	s := l.storage[c.Address]
	if s == nil {
		s = &laneStorage{
			lane: l,
			addr: c.Address,
			base: c.Storage,
			buf:  make(map[uint64]uint64),
			dead: make(map[uint64]struct{}),
		}
		l.storage[c.Address] = s
		l.storageOrder = append(l.storageOrder, c.Address)
	}
	return vm.RecordingStorage{Inner: s, Rec: slotRecorder{lane: l, addr: c.Address}}
}

func (l *txLane) contractAppState(c *Contract) avm.KVStore {
	s := l.appstate[c.Address]
	if s == nil {
		s = &laneKV{
			lane: l,
			addr: c.Address,
			base: c.AppState,
			buf:  make(map[uint64]uint64),
			dead: make(map[uint64]struct{}),
		}
		l.appstate[c.Address] = s
		l.appOrder = append(l.appOrder, c.Address)
	}
	return avm.RecordingKV{Inner: s, Rec: kvRecorder{lane: l, addr: c.Address}}
}

// slotRecorder adapts vm.SlotRecorder onto a lane's RWSet for one
// contract's storage.
type slotRecorder struct {
	lane *txLane
	addr types.Address
}

func (r slotRecorder) OnLoad(key uint64)   { r.lane.set.Read(storageKey(r.addr, key)) }
func (r slotRecorder) OnStore(key uint64)  { r.lane.set.Write(storageKey(r.addr, key)) }
func (r slotRecorder) OnExists(key uint64) { r.lane.set.Read(storageKey(r.addr, key)) }
func (r slotRecorder) OnDelete(key uint64) { r.lane.set.Write(storageKey(r.addr, key)) }

// OnLen fires when a bounded profile checks the entry count before
// admitting a slot — a read of the length sentinel.
func (r slotRecorder) OnLen() { r.lane.set.Read(lenKey(r.addr)) }

// kvRecorder is the AVM twin of slotRecorder.
type kvRecorder struct {
	lane *txLane
	addr types.Address
}

func (r kvRecorder) OnGet(key uint64)    { r.lane.set.Read(appKey(r.addr, key)) }
func (r kvRecorder) OnPut(key uint64)    { r.lane.set.Write(appKey(r.addr, key)) }
func (r kvRecorder) OnDelete(key uint64) { r.lane.set.Write(appKey(r.addr, key)) }
func (r kvRecorder) OnLen()              { r.lane.set.Read(appLenKey(r.addr)) }

// lenDeltaOf decodes a length-delta sentinel published to the
// multi-version store (stored as the two's-complement uint64).
func lenDeltaOf(v uint64) int { return int(int64(v)) }

// laneStorage is a lane's buffered overlay over one contract's slot
// storage. Reads resolve buffer → tombstones → multi-version store →
// pre-block base; writes stay in the buffer and the ordered op log. The
// bound of a limited profile is enforced above us by
// vmprofiles.boundedStorage through Exists and Len, so the overlay only
// has to answer those consistently with the committed prefix.
type laneStorage struct {
	lane     *txLane
	addr     types.Address
	base     *vmprofiles.CountingStorage
	buf      map[uint64]uint64
	dead     map[uint64]struct{}
	lenDelta int
}

// exists resolves slot existence without recording: every caller's path
// already recorded the slot (SSTORE probes Exists through the recorder
// first) or records the length sentinel instead.
func (s *laneStorage) exists(key uint64) bool {
	if _, ok := s.buf[key]; ok {
		return true
	}
	if _, ok := s.dead[key]; ok {
		return false
	}
	if s.lane.mv != nil {
		if _, del, ok := s.lane.mv.scalars.Read(storageKey(s.addr, key), s.lane.idx); ok {
			return !del
		}
	}
	return s.base.Exists(key)
}

func (s *laneStorage) Load(key uint64) uint64 {
	if v, ok := s.buf[key]; ok {
		return v
	}
	if _, ok := s.dead[key]; ok {
		return 0
	}
	if s.lane.mv != nil {
		if v, del, ok := s.lane.mv.scalars.Read(storageKey(s.addr, key), s.lane.idx); ok {
			if del {
				return 0
			}
			return v
		}
	}
	return s.base.Load(key)
}

func (s *laneStorage) Store(key, value uint64) error {
	if !s.exists(key) {
		s.lenDelta++
		s.lane.set.Write(lenKey(s.addr))
	}
	s.buf[key] = value
	delete(s.dead, key)
	s.lane.log = append(s.lane.log, stateOp{kind: opStore, addr: s.addr, slot: key, val: value})
	return nil
}

func (s *laneStorage) Exists(key uint64) bool { return s.exists(key) }

func (s *laneStorage) Delete(key uint64) {
	if s.exists(key) {
		s.lenDelta--
		s.lane.set.Write(lenKey(s.addr))
	}
	delete(s.buf, key)
	s.dead[key] = struct{}{}
	s.lane.log = append(s.lane.log, stateOp{kind: opStoreDelete, addr: s.addr, slot: key})
}

// Len is the entry count visible at this lane's canonical position: the
// pre-block count, plus every earlier committed transaction's published
// delta, plus this lane's own uncommitted delta.
func (s *laneStorage) Len() int {
	n := s.base.Len() + s.lenDelta
	if s.lane.mv != nil {
		n += s.lane.mv.scalars.SumBelow(lenKey(s.addr), s.lane.idx, lenDeltaOf)
	}
	return n
}

// laneKV is the AVM app-state twin of laneStorage. Unlike slot storage,
// the bound lives inside avm.MapKV itself, so the overlay re-implements
// the identical admission rule against the visible length.
type laneKV struct {
	lane     *txLane
	addr     types.Address
	base     *avm.MapKV
	buf      map[uint64]uint64
	dead     map[uint64]struct{}
	lenDelta int
}

func (s *laneKV) exists(key uint64) bool {
	if _, ok := s.buf[key]; ok {
		return true
	}
	if _, ok := s.dead[key]; ok {
		return false
	}
	if s.lane.mv != nil {
		if _, del, ok := s.lane.mv.scalars.Read(appKey(s.addr, key), s.lane.idx); ok {
			return !del
		}
	}
	_, ok := s.base.Get(key)
	return ok
}

func (s *laneKV) visibleLen() int {
	n := s.base.Len() + s.lenDelta
	if s.lane.mv != nil {
		n += s.lane.mv.scalars.SumBelow(appLenKey(s.addr), s.lane.idx, lenDeltaOf)
	}
	return n
}

func (s *laneKV) Get(key uint64) (uint64, bool) {
	if v, ok := s.buf[key]; ok {
		return v, true
	}
	if _, ok := s.dead[key]; ok {
		return 0, false
	}
	if s.lane.mv != nil {
		if v, del, ok := s.lane.mv.scalars.Read(appKey(s.addr, key), s.lane.idx); ok {
			if del {
				return 0, false
			}
			return v, true
		}
	}
	return s.base.Get(key)
}

func (s *laneKV) Put(key, value uint64) error {
	if !s.exists(key) {
		if s.base.MaxElems > 0 {
			// Same admission rule as avm.MapKV.Put; the bound check reads
			// the length sentinel.
			s.lane.set.Read(appLenKey(s.addr))
			if s.visibleLen() >= s.base.MaxElems {
				return avm.ErrStateFull
			}
		}
		s.lenDelta++
		s.lane.set.Write(appLenKey(s.addr))
	}
	s.buf[key] = value
	delete(s.dead, key)
	s.lane.log = append(s.lane.log, stateOp{kind: opAppPut, addr: s.addr, slot: key, val: value})
	return nil
}

func (s *laneKV) Delete(key uint64) {
	if s.exists(key) {
		s.lenDelta--
		s.lane.set.Write(appLenKey(s.addr))
	}
	delete(s.buf, key)
	s.dead[key] = struct{}{}
	s.lane.log = append(s.lane.log, stateOp{kind: opAppDelete, addr: s.addr, slot: key})
}

func (s *laneKV) Len() int { return s.visibleLen() }

// publish appends the lane's committed writes to the multi-version store
// so later fallback re-executions resolve against them.
func (l *txLane) publish(mv *blockMV) {
	for _, op := range l.log {
		switch op.kind {
		case opBalance:
			mv.scalars.Publish(balanceKey(op.addr), l.idx, op.val, false)
		case opNonce:
			mv.scalars.Publish(nonceKey(op.addr), l.idx, op.val, false)
		case opStore:
			mv.scalars.Publish(storageKey(op.addr, op.slot), l.idx, op.val, false)
		case opStoreDelete:
			mv.scalars.Publish(storageKey(op.addr, op.slot), l.idx, 0, true)
		case opAppPut:
			mv.scalars.Publish(appKey(op.addr, op.slot), l.idx, op.val, false)
		case opAppDelete:
			mv.scalars.Publish(appKey(op.addr, op.slot), l.idx, 0, true)
		case opCache:
			mv.caches.Publish(cacheMVKey(op.ckey), l.idx, op.entry, false)
		case opContract:
			// Carried by the newContracts registry (and flushed below);
			// contract values do not fit the scalar store.
		}
	}
	// Entry-count sentinels publish as signed per-transaction deltas, so
	// a reader's visible length is order-independent of which earlier
	// writers spec-committed and which re-executed.
	for _, addr := range l.storageOrder {
		if d := l.storage[addr].lenDelta; d != 0 {
			mv.scalars.Publish(lenKey(addr), l.idx, uint64(int64(d)), false)
		}
	}
	for _, addr := range l.appOrder {
		if d := l.appstate[addr].lenDelta; d != 0 {
			mv.scalars.Publish(appLenKey(addr), l.idx, uint64(int64(d)), false)
		}
	}
}

// flushLane replays a committed lane's ordered mutation log into the
// canonical executor state. The per-operation order reproduces the exact
// commitBalance sequence serial execution would have produced, which the
// flat (accumulator) commitment depends on.
func (e *Executor) flushLane(l *txLane) {
	for _, op := range l.log {
		switch op.kind {
		case opBalance:
			e.putBalance(op.addr, op.val)
		case opNonce:
			e.nonces[op.addr] = op.val
		case opStore:
			if c, ok := e.contracts[op.addr]; ok {
				// Cannot fail: bounds were enforced during lane execution
				// against the same visible length.
				_ = c.Storage.Store(op.slot, op.val)
			}
		case opStoreDelete:
			if c, ok := e.contracts[op.addr]; ok {
				c.Storage.Delete(op.slot)
			}
		case opAppPut:
			if c, ok := e.contracts[op.addr]; ok {
				_ = c.AppState.Put(op.slot, op.val)
			}
		case opAppDelete:
			if c, ok := e.contracts[op.addr]; ok {
				c.AppState.Delete(op.slot)
			}
		case opCache:
			e.putCache(op.ckey, op.entry)
		case opContract:
			e.contracts[op.addr] = op.contract
		}
	}
	e.Executed += l.executed
	e.Replayed += l.replayed
}

// ApplyBlock executes a block's transactions and returns their receipts in
// order. With Workers <= 1 (or a block below minParallelTxs) it is exactly
// the serial per-transaction Apply loop; otherwise it runs the two-phase
// parallel protocol, whose committed receipts, state and commitments are
// byte-identical to the serial loop by construction (and pinned down by
// TestParallelBlockMatchesSerial).
func (e *Executor) ApplyBlock(txs []*types.Transaction, blk *types.Block, p Params) []*types.Receipt {
	receipts := make([]*types.Receipt, len(txs))
	if e.Workers <= 1 || len(txs) < minParallelTxs {
		for i, tx := range txs {
			receipts[i] = e.Apply(tx, blk, p)
		}
		return receipts
	}

	workers := e.Workers
	if workers > len(txs) {
		workers = len(txs)
	}
	for len(e.engines) < workers {
		e.engines = append(e.engines, newEngine())
	}
	e.ParallelBlocks++

	// Phase one: speculate every transaction concurrently against the
	// immutable pre-block state.
	lanes := make([]*txLane, len(txs))
	pexec.Fan(workers, len(txs), func(worker, i int) {
		lanes[i] = newLane(e, i, e.engines[worker], nil, nil)
		lanes[i].speculate(txs[i], blk, p)
	})

	sets := make([]*pexec.RWSet, len(txs))
	for i, l := range lanes {
		if !l.aborted {
			sets[i] = l.set
		}
	}
	var onEdge func(int, pexec.Key)
	if e.spans != nil {
		onEdge = func(_ int, k pexec.Key) { e.spans.Conflict(k.String()) }
	}
	graph := pexec.BuildGraphObserved(sets, onEdge)
	e.HazardEdges += uint64(graph.Edges())

	// Phase two: serial commit scan in canonical order.
	mv := newBlockMV()
	newContracts := make(map[types.Address]*Contract)
	fallbackWritten := make(map[pexec.Key]struct{})
	for i, l := range lanes {
		commit := !l.aborted && !graph.Hazard(i)
		if commit {
			for _, k := range l.set.Reads() {
				if _, hit := fallbackWritten[k]; hit {
					commit = false
					e.spans.Conflict(k.String())
					break
				}
			}
		}
		if commit {
			e.SpecCommitted++
		} else {
			// Deterministic sequential fallback: re-execute against the
			// committed prefix via the multi-version store. Its actual
			// writes invalidate later speculations that read them.
			e.Fallbacks++
			l = newLane(e, i, e.engines[0], mv, newContracts)
			l.rerun(txs[i], blk, p)
			for _, k := range l.set.Writes() {
				fallbackWritten[k] = struct{}{}
			}
			lanes[i] = l
		}
		l.publish(mv)
	}

	// Flush every committed lane into canonical state in canonical order.
	for i, l := range lanes {
		e.flushLane(l)
		receipts[i] = l.receipt
	}
	return receipts
}
