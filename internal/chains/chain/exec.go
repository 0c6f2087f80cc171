package chain

import (
	"encoding/binary"
	"fmt"
	"time"

	"diablo/internal/avm"
	"diablo/internal/dapps"
	"diablo/internal/minisol"
	"diablo/internal/trie"
	"diablo/internal/types"
	"diablo/internal/vm"
	"diablo/internal/vmprofiles"
)

// nodeAddress derives a stable address for node i (used as block proposer
// identity).
func nodeAddress(i int) types.Address {
	var buf [8]byte
	binary.BigEndian.PutUint64(buf[:], uint64(i))
	return types.AddressFromHash(types.HashBytes([]byte("node"), buf[:]))
}

// Contract is a deployed contract instance. geth-family chains hold EVM
// bytecode and slot storage; the Algorand chain holds an AVM program and
// its bounded key-value app state instead.
type Contract struct {
	Address types.Address
	Code    []byte
	// Program is Code decoded once at deployment.
	Program *vm.Program
	ABI     *minisol.Compiled
	Storage *vmprofiles.CountingStorage

	// AVM artifacts (set when the owning chain's VM family is "avm").
	AVM      *minisol.AVMCompiled
	AppState *avm.MapKV
}

// Executor owns the chain's replicated state and executes transactions
// exactly once, at block assembly. Replica re-execution cost is modeled in
// time (see Network.ExecTime), not recomputed.
type Executor struct {
	profile   *vmprofiles.Profile
	engine    *engine
	balances  map[types.Address]uint64
	nonces    map[types.Address]uint64
	contracts map[types.Address]*Contract

	// CacheAfter enables the gas cache: after this many full executions of
	// one (contract, selector) pair, subsequent calls replay the cached
	// outcome instead of interpreting bytecode. 0 disables caching (full
	// fidelity). The cache is sound for the DIABLO DApp suite because each
	// function's control flow is input-independent at benchmark scale; a
	// conformance test (TestGasCacheFidelity) checks the equivalence.
	CacheAfter int //lint:allow snapshotdrift run configuration set at setup, fixed during a run
	cache      map[cacheKey]*cacheEntry

	// Executed counts fully interpreted transactions; Replayed counts
	// cache replays.
	Executed uint64
	Replayed uint64

	// State commitment (optional): geth-family chains maintain a Merkle
	// trie over account balances, Solana a flat running accumulator.
	commitTrie *trie.Trie
	commitFlat *trie.FlatAccumulator

	// Deprecated: Workers selects nothing; execution is always serial.
	// benchmark/stage_parallel.go is its only writer, and the change that
	// retires that stage deletes both.
	Workers int //lint:allow snapshotdrift written only by a benchmark stage; read by nothing
}

// engine is what interprets contract calls one at a time: an interpreter for
// each VM family and the buffer calldata is unpacked into. Everything in it
// is reused from call to call; none of it is state.
type engine struct {
	interp   *vm.Interpreter
	machine  *avm.Machine
	calldata []uint64
}

func newEngine() *engine {
	return &engine{interp: vm.New(), machine: avm.NewMachine()}
}

// decodeCalldata unpacks the word-packed calldata from tx.Data into the
// engine's buffer, which the next call overwrites. The first 8 bytes are the
// selector; subsequent 8-byte groups are arguments. A trailing partial word
// (opaque payload such as the YouTube video bytes) is ignored by the VM but
// still costs intrinsic gas.
func (g *engine) decodeCalldata(data []byte) []uint64 {
	words := g.calldata[:0]
	for i := 0; i+8 <= len(data); i += 8 {
		words = append(words, binary.BigEndian.Uint64(data[i:]))
	}
	g.calldata = words
	return words
}

type cacheKey struct {
	contract types.Address
	selector uint64
}

type cacheEntry struct {
	runs    int
	status  types.ExecStatus
	gasSum  uint64
	errText string
}

// GenesisBalance is every provisioned account's starting balance.
const GenesisBalance = uint64(1) << 62

// avmOpGas converts AVM opcode counts into the common gas dimension used
// by the block execution-time model.
const avmOpGas = 30

// NewExecutor returns an executor with empty state.
func NewExecutor(profile *vmprofiles.Profile) *Executor {
	return &Executor{
		profile:   profile,
		engine:    newEngine(),
		balances:  make(map[types.Address]uint64),
		nonces:    make(map[types.Address]uint64),
		contracts: make(map[types.Address]*Contract),
		cache:     make(map[cacheKey]*cacheEntry),
	}
}

// SetCommitment selects the state-root structure ("trie", "flat" or "").
func (e *Executor) SetCommitment(kind string) {
	switch kind {
	case "trie":
		e.commitTrie = trie.New()
	case "flat":
		e.commitFlat = trie.NewFlat()
	}
}

// StateRoot returns the current state commitment (zero when disabled).
func (e *Executor) StateRoot() types.Hash {
	switch {
	case e.commitTrie != nil:
		return e.commitTrie.Root()
	case e.commitFlat != nil:
		return e.commitFlat.Root()
	default:
		return types.ZeroHash
	}
}

// putBalance sets an account's balance and folds the update into the state
// commitment.
func (e *Executor) putBalance(a types.Address, balance uint64) {
	e.balances[a] = balance
	if e.commitTrie == nil && e.commitFlat == nil {
		return
	}
	var v [8]byte
	binary.BigEndian.PutUint64(v[:], balance)
	if e.commitTrie != nil {
		e.commitTrie.Put(a[:], v[:])
	} else {
		e.commitFlat.Put(a[:], v[:])
	}
}

// Balance returns an account's balance, defaulting to the genesis grant.
func (e *Executor) Balance(a types.Address) uint64 {
	if b, ok := e.balances[a]; ok {
		return b
	}
	return GenesisBalance
}

// NextNonce returns the sequence number expected next from an account.
func (e *Executor) NextNonce(a types.Address) uint64 { return e.nonces[a] }

// Contract returns a deployed contract.
func (e *Executor) Contract(addr types.Address) (*Contract, bool) {
	c, ok := e.contracts[addr]
	return c, ok
}

// UsesAVM reports whether contracts execute on the TEAL-style AVM.
func (e *Executor) UsesAVM() bool { return e.profile.Name == "avm" }

// DeployDApp deploys a registered DApp for this executor's VM family: AVM
// chains compile and install the TEAL-style program, everything else gets
// EVM bytecode.
func (e *Executor) DeployDApp(owner types.Address, d *dapps.DApp) (*Contract, error) {
	if err := d.SupportedOn(e.profile); err != nil {
		return nil, err
	}
	if e.UsesAVM() {
		compiled, err := d.CompileAVM()
		if err != nil {
			return nil, err
		}
		return e.deployAVM(owner, compiled, d.InitFunc)
	}
	compiled, err := d.Compile()
	if err != nil {
		return nil, err
	}
	return e.DeployContract(owner, compiled, d.InitFunc)
}

// deployAVM installs an AVM application and runs its init method with an
// unmetered budget (application creation is a separate, uncapped step).
func (e *Executor) deployAVM(owner types.Address, compiled *minisol.AVMCompiled, initFunc string) (*Contract, error) {
	addr := types.ContractAddress(owner, e.nonces[owner])
	e.nonces[owner]++
	c := &Contract{
		Address:  addr,
		AVM:      compiled,
		AppState: avm.NewMapKV(e.profile.MaxStateEntries),
	}
	e.contracts[addr] = c
	if initFunc != "" {
		args, err := compiled.AppArgs(initFunc)
		if err != nil {
			return nil, fmt.Errorf("chain: deploy init: %w", err)
		}
		res := e.engine.machine.Run(compiled.Decoded, &avm.Context{
			Sender: vm.CallerWord(owner),
			Args:   args,
			State:  c.AppState,
			Budget: 1 << 40,
		})
		if res.Outcome != avm.Approved {
			return nil, fmt.Errorf("chain: deploy init failed: %v (%v)", res.Outcome, res.Err)
		}
	}
	return c, nil
}

// DeployContract installs a compiled contract directly (the Primary deploys
// DApps before the benchmark starts; this models that out-of-band step) and
// runs its init function with an unmetered budget.
func (e *Executor) DeployContract(owner types.Address, compiled *minisol.Compiled, initFunc string) (*Contract, error) {
	addr := types.ContractAddress(owner, e.nonces[owner])
	e.nonces[owner]++
	c := &Contract{
		Address: addr,
		Code:    compiled.Code,
		Program: vm.Decode(compiled.Code),
		ABI:     compiled,
		Storage: vmprofiles.NewCountingStorage(),
	}
	e.contracts[addr] = c
	if initFunc != "" {
		calldata, err := compiled.Calldata(initFunc)
		if err != nil {
			return nil, fmt.Errorf("chain: deploy init: %w", err)
		}
		res := e.engine.interp.Run(c.Program, &vm.Context{
			Contract: addr,
			Caller:   vm.CallerWord(owner),
			Calldata: calldata,
			GasLimit: 1 << 40,
			Storage:  c.Storage,
		})
		if res.Status != types.StatusOK {
			return nil, fmt.Errorf("chain: deploy init failed: %v (%v)", res.Status, res.Err)
		}
	}
	return c, nil
}

// GasCeiling estimates the gas a transaction may consume, used by block
// assembly against the block gas limit. It uses the cached measurement for
// warm calls and the transaction's own limit otherwise (as real block
// builders do with the sender's gas limit).
func (e *Executor) GasCeiling(tx *types.Transaction, p Params) uint64 {
	switch tx.Kind {
	case types.KindTransfer:
		return vm.GasTxBase
	case types.KindInvoke:
		if entry := e.cachedEntry(tx); entry != nil && entry.runs > 0 {
			return vm.ChargeIntrinsic(len(tx.Data)) + entry.gasSum/uint64(entry.runs)
		}
		limit := tx.GasLimit
		if limit == 0 {
			limit = p.DefaultGasLimit
		}
		return limit
	default:
		return vm.ChargeIntrinsic(len(tx.Data))
	}
}

func (e *Executor) cachedEntry(tx *types.Transaction) *cacheEntry {
	if len(tx.Data) < 8 {
		return nil
	}
	sel := binary.BigEndian.Uint64(tx.Data[:8])
	return e.cache[cacheKey{contract: tx.To, selector: sel}]
}

// EncodeInvokeData packs calldata words into transaction data bytes, with
// extraBytes of opaque payload appended (zero-filled).
func EncodeInvokeData(calldata []uint64, extraBytes int) []byte {
	out := make([]byte, len(calldata)*8+extraBytes)
	for i, w := range calldata {
		binary.BigEndian.PutUint64(out[i*8:], w)
	}
	return out
}

// InvokeData encodes a call of fn straight into transaction data: the bytes
// EncodeInvokeData yields for the contract's calldata words (AVM application
// arguments on an AVM chain), without building the word slice first.
func (c *Contract) InvokeData(fn string, args []uint64, extraBytes int) ([]byte, error) {
	var meta *minisol.FuncMeta
	var err error
	if c.AVM != nil {
		meta, err = c.AVM.Call(fn, len(args))
	} else {
		meta, err = c.ABI.Call(fn, len(args))
	}
	if err != nil {
		return nil, err
	}
	out := make([]byte, (1+len(args))*8+extraBytes)
	binary.BigEndian.PutUint64(out, meta.Selector)
	for i, a := range args {
		binary.BigEndian.PutUint64(out[(i+1)*8:], a)
	}
	return out, nil
}

// Apply executes one transaction in a block's context, returning the
// receipt. The caller (block assembly) is responsible for gas-limit
// admission; Apply never rejects for block-level reasons.
func (e *Executor) Apply(tx *types.Transaction, blk *types.Block, p Params) *types.Receipt {
	r := &types.Receipt{TxID: tx.ID(), Block: blk.Number}
	switch tx.Kind {
	case types.KindTransfer:
		from, to := e.Balance(tx.From), e.Balance(tx.To)
		if from < tx.Value {
			r.Status = types.StatusInvalid
			r.Error = "insufficient balance"
			r.GasUsed = vm.GasTxBase
			return r
		}
		e.putBalance(tx.From, from-tx.Value)
		e.putBalance(tx.To, to+tx.Value)
		e.nonces[tx.From]++
		r.Status = types.StatusOK
		r.GasUsed = vm.GasTxBase
		e.Executed++
		return r

	case types.KindInvoke:
		c, ok := e.contracts[tx.To]
		if !ok {
			r.Status = types.StatusInvalid
			r.Error = "no contract at address"
			r.GasUsed = vm.GasTxBase
			return r
		}
		intrinsic := vm.ChargeIntrinsic(len(tx.Data))
		limit := tx.GasLimit
		if limit == 0 {
			limit = p.DefaultGasLimit
		}
		if limit <= intrinsic {
			r.Status = types.StatusOutOfGas
			r.Error = "intrinsic gas exceeds limit"
			r.GasUsed = limit
			return r
		}

		key := cacheKey{contract: tx.To}
		if len(tx.Data) >= 8 {
			key.selector = binary.BigEndian.Uint64(tx.Data[:8])
		}
		entry := e.cache[key]
		if e.CacheAfter > 0 && entry != nil && entry.runs >= e.CacheAfter {
			// Replay the measured outcome without interpreting.
			r.Status = entry.status
			r.GasUsed = intrinsic + entry.gasSum/uint64(entry.runs)
			r.Error = entry.errText
			e.Replayed++
			e.nonces[tx.From]++
			return r
		}
		if entry == nil {
			entry = &cacheEntry{}
			e.cache[key] = entry
		}

		eng := e.engine
		var gas uint64
		if c.AVM != nil {
			// Execute on the real AVM with its hard opcode budget.
			res := eng.machine.Run(c.AVM.Decoded, &avm.Context{
				Sender: vm.CallerWord(tx.From),
				Args:   eng.decodeCalldata(tx.Data),
				Round:  blk.Number,
				Time:   uint64(blk.Timestamp / time.Second),
				State:  c.AppState,
			})
			switch res.Outcome {
			case avm.Approved:
				r.Status = types.StatusOK
			case avm.BudgetExceeded:
				r.Status = types.StatusBudgetExceeded
			default:
				r.Status = types.StatusReverted
			}
			// Scale opcode counts to the common gas dimension so the
			// execution-time model stays comparable across chains.
			gas = res.OpsUsed * avmOpGas
			if res.Err != nil {
				r.Error = res.Err.Error()
			}
		} else {
			res := e.profile.Execute(eng.interp, c.Program, &vm.Context{
				Contract:  c.Address,
				Caller:    vm.CallerWord(tx.From),
				Value:     tx.Value,
				Calldata:  eng.decodeCalldata(tx.Data),
				BlockNum:  blk.Number,
				BlockTime: uint64(blk.Timestamp / time.Second),
				GasLimit:  limit - intrinsic,
				Storage:   c.Storage,
			})
			r.Status = res.Status
			gas = res.GasUsed
			r.Events = res.Events
			if res.Err != nil {
				r.Error = res.Err.Error()
			}
		}
		r.GasUsed = intrinsic + gas
		entry.runs++
		entry.status = r.Status
		entry.gasSum += gas
		entry.errText = r.Error
		e.Executed++
		e.nonces[tx.From]++
		return r

	case types.KindDeploy:
		// In-band deployment: install bytecode carried in Data. The DApp
		// suite deploys out of band via DeployContract; this path supports
		// the extensibility example.
		addr := types.ContractAddress(tx.From, e.nonces[tx.From])
		e.nonces[tx.From]++
		code := append([]byte(nil), tx.Data...)
		e.contracts[addr] = &Contract{
			Address: addr,
			Code:    code,
			Program: vm.Decode(code),
			Storage: vmprofiles.NewCountingStorage(),
		}
		r.Status = types.StatusOK
		r.GasUsed = vm.ChargeIntrinsic(len(tx.Data)) + 32000
		r.Contract = addr
		e.Executed++
		return r

	default:
		r.Status = types.StatusInvalid
		r.Error = "unknown transaction kind"
		return r
	}
}

// ApplyBlock executes a block's transactions in order and returns their
// receipts.
func (e *Executor) ApplyBlock(txs []*types.Transaction, blk *types.Block, p Params) []*types.Receipt {
	receipts := make([]*types.Receipt, len(txs))
	for i, tx := range txs {
		receipts[i] = e.Apply(tx, blk, p)
	}
	return receipts
}
