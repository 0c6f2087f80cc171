// Package vmprofiles layers per-chain execution policies over the common
// VM. The paper's universality finding (§6.4) hinges on exactly these
// differences:
//
//   - geth (Avalanche, Ethereum, Quorum): no hard per-transaction compute
//     cap — a transaction may consume gas up to the block gas limit, so
//     arbitrarily complex DApps execute if the sender pays.
//   - MoveVM (Diem): a hard-coded per-transaction execution budget that
//     cannot be lifted by paying more gas ("budget exceeded").
//   - AVM (Algorand): a hard opcode budget, plus a bounded key-value state
//     (128 bytes per key-value pair, few keys) that makes some DApps
//     impossible to express at all.
//   - eBPF (Solana): a hard compute-unit cap per transaction.
//
// Budgets here are expressed in the common VM's gas units, scaled so that
// the DApp suite reproduces the paper's outcome: the simple DApps fit every
// budget, while the compute-intensive mobility-service contract exceeds
// every hard budget but runs fine on geth.
package vmprofiles

import (
	"errors"
	"fmt"

	"diablo/internal/types"
	"diablo/internal/vm"
)

// Profile is one chain family's execution policy.
type Profile struct {
	// Name identifies the VM family: geth, movevm, avm, ebpf.
	Name string
	// TxBudget is the hard per-transaction execution budget in gas units;
	// 0 means no hard budget (geth). The budget applies regardless of the
	// transaction's own gas limit — paying more cannot lift it.
	TxBudget uint64
	// MaxStateEntries bounds the number of distinct storage slots one
	// contract may populate; 0 means unbounded. Models the AVM's bounded
	// key-value store.
	MaxStateEntries int
}

// The four VM families of Table 4.
var (
	// Geth is the go-ethereum EVM used by Avalanche, Ethereum and Quorum.
	Geth = &Profile{Name: "geth"}
	// MoveVM is Diem's Move virtual machine.
	MoveVM = &Profile{Name: "movevm", TxBudget: 120_000}
	// AVM is the Algorand virtual machine executing compiled TEAL.
	AVM = &Profile{Name: "avm", TxBudget: 100_000, MaxStateEntries: 64}
	// EBPF is Solana's eBPF-derived runtime with its compute-unit cap.
	EBPF = &Profile{Name: "ebpf", TxBudget: 180_000}
)

// ByName returns the named profile.
func ByName(name string) (*Profile, error) {
	switch name {
	case "geth":
		return Geth, nil
	case "movevm":
		return MoveVM, nil
	case "avm":
		return AVM, nil
	case "ebpf":
		return EBPF, nil
	default:
		return nil, fmt.Errorf("vmprofiles: unknown profile %q", name)
	}
}

// ErrBudgetExceeded is the client-visible "budget exceeded" error the paper
// reports for Algorand, Diem and Solana on the mobility-service DApp.
var ErrBudgetExceeded = errors.New("vmprofiles: computational budget exceeded")

// ErrStateFull models the AVM's bounded per-contract key-value store.
var ErrStateFull = errors.New("vmprofiles: contract state limit reached")

// boundedStorage enforces MaxStateEntries over an underlying store.
type boundedStorage struct {
	vm.Storage
	max int
}

func (b boundedStorage) Store(key, value uint64) error {
	if b.max > 0 && !b.Storage.Exists(key) {
		// Count the slots already present; the backing stores are small for
		// AVM contracts, so a counting interface is unnecessary.
		if counter, ok := b.Storage.(interface{ Len() int }); ok {
			if counter.Len() >= b.max {
				return ErrStateFull
			}
		}
	}
	return b.Storage.Store(key, value)
}

// CountingStorage wraps a MapStorage exposing Len for bounded profiles.
type CountingStorage struct {
	M vm.MapStorage
}

// NewCountingStorage returns an empty counting store.
func NewCountingStorage() *CountingStorage { return &CountingStorage{M: vm.MapStorage{}} }

// Load implements vm.Storage.
func (c *CountingStorage) Load(key uint64) uint64 { return c.M.Load(key) }

// Store implements vm.Storage.
func (c *CountingStorage) Store(key, value uint64) error { return c.M.Store(key, value) }

// Exists implements vm.Storage.
func (c *CountingStorage) Exists(key uint64) bool { return c.M.Exists(key) }

// Delete implements vm.Storage.
func (c *CountingStorage) Delete(key uint64) { c.M.Delete(key) }

// Len reports the number of populated slots.
func (c *CountingStorage) Len() int { return len(c.M) }

// Execute runs a decoded program under the profile's policy. ctx.GasLimit is
// the transaction's own gas limit; the profile caps the effective execution
// budget at TxBudget when one is set, and converts the resulting
// out-of-gas into the distinctive StatusBudgetExceeded outcome so clients
// see the same error string the paper reports.
func (p *Profile) Execute(interp *vm.Interpreter, prog *vm.Program, ctx *vm.Context) vm.Result {
	effective := *ctx
	capped := false
	if p.TxBudget > 0 && p.TxBudget < ctx.GasLimit {
		effective.GasLimit = p.TxBudget
		capped = true
	}
	if p.MaxStateEntries > 0 {
		effective.Storage = boundedStorage{Storage: ctx.Storage, max: p.MaxStateEntries}
	}
	res := interp.Run(prog, &effective)
	if res.Status == types.StatusOutOfGas && (capped || (p.TxBudget > 0 && ctx.GasLimit >= p.TxBudget)) {
		res.Status = types.StatusBudgetExceeded
		res.Err = ErrBudgetExceeded
	}
	if res.Status == types.StatusBudgetExceeded && res.Err == nil {
		res.Err = ErrBudgetExceeded
	}
	return res
}

// HardBudget reports whether the profile enforces a per-tx compute cap.
func (p *Profile) HardBudget() bool { return p.TxBudget > 0 }
