package core

import (
	"fmt"
	"time"

	"diablo/internal/chains/chain"
	"diablo/internal/dapps"
	"diablo/internal/types"
	"diablo/internal/wallet"
)

// SimAdapter implements the Blockchain abstraction over a deployed
// simulated chain network. It is the reference connector: the per-chain
// differences (client overheads, confirmation depths, VM budgets) live in
// the chain's Params, so one adapter serves all six chains — mirroring how
// the paper's per-chain connectors stay small.
type SimAdapter struct {
	Net    *chain.Network
	Wallet *wallet.Wallet
	// Lazy derives the implicit streaming clients (internal/stream) on
	// demand; its namespace is disjoint from the provisioned wallet's so
	// the two populations can never collide.
	Lazy *wallet.Lazy

	// deployer signs contract deployments; it is distinct from workload
	// accounts so deployment nonces never stall strict-sequence chains.
	deployer  *wallet.Account
	contracts map[string]*chain.Contract
}

// NewSimAdapter wraps a deployed network and a provisioned wallet.
func NewSimAdapter(net *chain.Network, w *wallet.Wallet) *SimAdapter {
	return &SimAdapter{
		Net:       net,
		Wallet:    w,
		Lazy:      wallet.NewLazy(w.Scheme, w.Namespace+"/stream", 0),
		deployer:  wallet.NewAccount(w.Scheme, []byte("diablo-primary-deployer")),
		contracts: make(map[string]*chain.Contract),
	}
}

// Name implements Blockchain.
func (a *SimAdapter) Name() string { return a.Net.Params.Name }

// Endpoints implements Blockchain.
func (a *SimAdapter) Endpoints() []Endpoint {
	out := make([]Endpoint, len(a.Net.Nodes))
	for i := range out {
		out[i] = Endpoint(i)
	}
	return out
}

// CreateResource implements Blockchain: accounts come from the wallet;
// contract resources deploy the named DApp (with its init function) the
// way the Primary deploys contracts before a benchmark.
func (a *SimAdapter) CreateResource(spec ResourceSpec) (Resource, error) {
	switch spec.Kind {
	case ResourceAccount:
		if spec.Index < 0 || spec.Index >= a.Wallet.Len() {
			return Resource{}, fmt.Errorf("core: account index %d out of range", spec.Index)
		}
		return Resource{Kind: ResourceAccount, Address: a.Wallet.Get(spec.Index).Address}, nil

	case ResourceContract:
		if c, ok := a.contracts[spec.Name]; ok {
			return Resource{Kind: ResourceContract, Address: c.Address, Name: spec.Name}, nil
		}
		d, err := dapps.Get(spec.Name)
		if err != nil {
			return Resource{}, err
		}
		c, err := a.Net.Exec.DeployDApp(a.deployer.Address, d)
		if err != nil {
			return Resource{}, err
		}
		a.contracts[spec.Name] = c
		return Resource{Kind: ResourceContract, Address: c.Address, Name: spec.Name}, nil

	default:
		return Resource{}, fmt.Errorf("core: unknown resource kind %d", spec.Kind)
	}
}

// CreateClient implements Blockchain: the client submits to its first
// endpoint (the collocated node) and watches its block stream.
func (a *SimAdapter) CreateClient(endpoints []Endpoint) (Client, error) {
	if len(endpoints) == 0 {
		return nil, fmt.Errorf("core: client needs at least one endpoint")
	}
	idx := int(endpoints[0])
	if idx < 0 || idx >= len(a.Net.Nodes) {
		return nil, fmt.Errorf("core: endpoint %d out of range", idx)
	}
	// The chain client's one record per in-flight transaction carries the
	// submission time and the engine's token, so the adapter keeps none.
	c := &simClient{adapter: a, client: a.Net.NewClient(idx)}
	c.client.OnDecided = func(s chain.Submission, status types.ExecStatus, at time.Duration) {
		c.report(s, Observation{Submitted: s.Submitted, Decided: at, Status: status})
	}
	c.client.OnDropped = func(s chain.Submission, _ error, _ time.Duration) {
		c.report(s, Observation{Submitted: s.Submitted, Decided: -1, Dropped: true})
	}
	c.client.OnTimeout = func(s chain.Submission, _ int, _ time.Duration) {
		c.report(s, Observation{Submitted: s.Submitted, Decided: -1, TimedOut: true})
	}
	return c, nil
}

// simInteraction is the encoded form: a signed transaction.
type simInteraction struct {
	tx *types.Transaction
}

// simClient is the per-worker connection.
type simClient struct {
	adapter *SimAdapter
	client  *chain.Client
	observe func(any, Observation)
}

// Observe implements Client.
func (c *simClient) Observe(fn func(any, Observation)) { c.observe = fn }

func (c *simClient) report(s chain.Submission, o Observation) {
	if c.observe != nil {
		c.observe(s.Token, o)
	}
}

// Encode implements Client: build and pre-sign the transaction.
func (c *simClient) Encode(spec InteractionSpec) (Interaction, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	// London chains require pricing against the live base fee, so the
	// Secondary signs right before sending (the paper's accommodation for
	// Ethereum and Avalanche). Wallet convention: maxFeePerGas of twice
	// the current base fee plus a tip, so a transaction strands only when
	// the fee more than doubles while it waits.
	gasPrice := uint64(1)
	if fee := c.adapter.Net.BaseFee(); fee > 0 {
		gasPrice = 2*fee + fee/8
	}
	var tx *types.Transaction
	switch spec.Kind {
	case InteractTransfer:
		var to types.Address
		if spec.Implicit {
			to = c.adapter.Lazy.Address(spec.ToIndex)
		} else {
			to = c.adapter.Wallet.Get(spec.To % c.adapter.Wallet.Len()).Address
		}
		tx = &types.Transaction{
			Kind:     types.KindTransfer,
			To:       to,
			Value:    spec.Amount,
			GasLimit: 21000,
			GasPrice: gasPrice,
		}
	case InteractInvoke:
		contract, ok := c.adapter.contracts[spec.Contract.Name]
		if !ok {
			return nil, fmt.Errorf("core: contract %q not deployed", spec.Contract.Name)
		}
		data, err := contract.InvokeData(spec.Function, spec.Args, spec.ExtraDataBytes)
		if err != nil {
			return nil, err
		}
		tx = &types.Transaction{
			Kind:     types.KindInvoke,
			To:       contract.Address,
			GasLimit: c.adapter.Net.Params.DefaultGasLimit,
			GasPrice: gasPrice,
			Data:     data,
		}
	}
	if spec.Implicit {
		// Implicit senders carry generator-assigned nonces: the stream's
		// round counter is the client's sequence number, so no per-client
		// nonce table ever exists.
		acct := c.adapter.Lazy.Account(spec.FromIndex)
		tx.Nonce = spec.Nonce
		acct.Sign(tx)
	} else {
		acct := c.adapter.Wallet.Get(spec.From % c.adapter.Wallet.Len())
		acct.SignNext(tx)
	}
	return simInteraction{tx: tx}, nil
}

// Trigger implements Client: send, tagging the submission with the token.
func (c *simClient) Trigger(e Interaction, token any) error {
	si, ok := e.(simInteraction)
	if !ok {
		return fmt.Errorf("core: foreign interaction %T", e)
	}
	c.client.Submit(si.tx, token)
	return nil
}
