// Package core is DIABLO's heart: the blockchain abstraction of §4 and the
// benchmark engine that drives workloads through it.
//
// A blockchain is modeled as a tuple <E, R, I>: endpoints E, resources R
// (accounts, contracts) and interaction types I (native transfers, DApp
// invocations). To port a new blockchain, implement the four functions of
// the Blockchain/Client interfaces — create_client, create_resource,
// encode and trigger — exactly as the paper prescribes; the adapters for
// the six simulated chains live in this package and are each well under
// the 1,000-1,200 lines the paper reports for its real adapters.
//
// The engine mirrors the paper's architecture: a Primary generates the
// workload, deploys contracts and dispatches work to Secondaries; each
// Secondary runs worker threads that pre-sign transactions, submit them to
// their collocated blockchain node, record submission times, and watch the
// block stream for decision times.
package core

import (
	"fmt"
	"time"

	"diablo/internal/types"
)

// Endpoint identifies a blockchain node a client can talk to.
type Endpoint int

// ResourceKind enumerates the resource types of the set R.
type ResourceKind int

const (
	// ResourceAccount is a funded signing account.
	ResourceAccount ResourceKind = iota
	// ResourceContract is a deployed DApp contract.
	ResourceContract
)

// ResourceSpec asks a blockchain to provision a resource (the paper's
// create_resource(φʳ)).
type ResourceSpec struct {
	Kind ResourceKind
	// Name identifies a contract resource (a DApp registry name).
	Name string
	// Index identifies an account resource.
	Index int
}

// Resource is a provisioned resource handle.
type Resource struct {
	Kind ResourceKind
	// Address is the on-chain address (account or contract).
	Address types.Address
	// Name is the contract's DApp name, if any.
	Name string
}

// InteractionKind enumerates the interaction types of the set I.
type InteractionKind int

const (
	// InteractTransfer is transfer_X: move X coins between accounts.
	InteractTransfer InteractionKind = iota
	// InteractInvoke is invoke_D_Xs: call DApp D with parameters Xs.
	InteractInvoke
)

// InteractionSpec describes one interaction to encode (the paper's
// (φᶜ, φⁱ, φʳ, t) tuple, before encoding).
type InteractionSpec struct {
	Kind InteractionKind
	// From is the signing account's resource index.
	From int
	// To is the receiving account (transfers).
	To int
	// Amount is the transferred value.
	Amount uint64
	// Contract and Function select the DApp call (invokes).
	Contract Resource
	Function string
	Args     []uint64
	// ExtraDataBytes is opaque payload appended to calldata (video data).
	ExtraDataBytes int

	// Implicit marks a streaming interaction (internal/stream): FromIndex
	// and ToIndex are implicit client indices resolved lazily against the
	// chain's derived wallet, and Nonce is assigned by the generator's
	// round counter instead of per-account counters — no per-client state
	// exists until the moment of encoding.
	Implicit  bool
	FromIndex uint64
	ToIndex   uint64
	Nonce     uint64
}

// Interaction is an encoded, pre-signed interaction, opaque to the engine.
type Interaction any

// Observation reports the fate of a triggered interaction back to the
// engine.
type Observation struct {
	// Submitted is when the worker sent the interaction.
	Submitted time.Duration
	// Decided is when the worker observed it committed, or -1.
	Decided time.Duration
	// Status is the execution status for committed interactions.
	Status types.ExecStatus
	// Dropped reports node-side rejection (mempool policy or node down).
	Dropped bool
	// TimedOut reports that the client abandoned the interaction after
	// exhausting its retry policy (the node stayed dead or partitioned).
	TimedOut bool
}

// Client is a connection from a Secondary worker to blockchain nodes
// (the paper's c; created by create_client).
type Client interface {
	// Encode converts a spec into an opaque pre-signed interaction
	// (the paper's encode(φⁱ, r, t)).
	Encode(spec InteractionSpec) (Interaction, error)
	// Trigger submits a previously encoded interaction (the paper's
	// c.trigger(e)). The engine learns the outcome through the observer
	// installed with Observe; token flows back with the observation so
	// the engine can correlate without inspecting the opaque interaction.
	Trigger(e Interaction, token any) error
	// Observe installs the engine's completion callback; it must be set
	// before the first Trigger.
	Observe(fn func(token any, o Observation))
}

// Blockchain is the abstraction a new chain implements to run under
// DIABLO.
type Blockchain interface {
	// Name identifies the chain.
	Name() string
	// Endpoints returns the set E.
	Endpoints() []Endpoint
	// CreateClient connects a worker to the given endpoints (the paper's
	// s.create_client(E)); workers submit through their first endpoint and
	// poll it for commits.
	CreateClient(endpoints []Endpoint) (Client, error)
	// CreateResource provisions an account or deploys a contract.
	CreateResource(spec ResourceSpec) (Resource, error)
}

// Validate sanity-checks an interaction spec.
func (s InteractionSpec) Validate() error {
	switch s.Kind {
	case InteractTransfer:
		if !s.Implicit && (s.From < 0 || s.To < 0) {
			return fmt.Errorf("core: transfer needs from/to accounts")
		}
	case InteractInvoke:
		if s.Function == "" {
			return fmt.Errorf("core: invoke needs a function")
		}
		if s.Contract.Kind != ResourceContract {
			return fmt.Errorf("core: invoke target is not a contract resource")
		}
	default:
		return fmt.Errorf("core: unknown interaction kind %d", s.Kind)
	}
	return nil
}
