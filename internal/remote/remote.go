// Package remote implements DIABLO's distributed architecture (§4, Fig. 1)
// over real TCP: a single Primary coordinates the experiment and multiple
// Secondaries pre-sign and contribute the workload.
//
// Protocol (newline-delimited JSON):
//
//  1. Each Secondary connects and sends hello{location}.
//  2. The Primary parses the benchmark and blockchain configuration files,
//     deploys the DApps, splits the workload between the Secondaries (the
//     mapping function M) and sends each an assign message.
//  3. Each Secondary derives its account share, pre-signs its transactions
//     (the Secondaries' job in the paper) and streams them back with their
//     submission schedule, ending with done.
//  4. The Primary injects every transaction into the system under test at
//     its scheduled time, runs the benchmark, and returns each Secondary
//     its per-transaction results; Secondaries acknowledge with their
//     local statistics.
//  5. The Primary aggregates everything into the result JSON.
//
// The system under test is the simulated blockchain network (the
// substitution documented in DESIGN.md); the framework machinery —
// registration, workload dispatch, pre-signing, result aggregation — is
// the real thing.
package remote

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"sort"
	"syscall"
	"time"

	"diablo/internal/bench"
	"diablo/internal/chains"
	"diablo/internal/chains/chain"
	"diablo/internal/dapps"
	"diablo/internal/sim"
	"diablo/internal/simnet"
	"diablo/internal/spec"
	"diablo/internal/stats"
	"diablo/internal/types"
	"diablo/internal/wallet"
)

// Message is the single wire envelope; Type selects the populated fields.
type Message struct {
	Type string `json:"type"`

	// hello
	Location string `json:"location,omitempty"`

	// assign
	Secondary   int               `json:"secondary,omitempty"`
	Total       int               `json:"total,omitempty"`
	Chain       string            `json:"chain,omitempty"`
	Benchmark   string            `json:"benchmark,omitempty"` // workload YAML
	Namespace   string            `json:"namespace,omitempty"`
	Contracts   map[string]string `json:"contracts,omitempty"` // dapp -> hex address
	GasLimit    uint64            `json:"gas_limit,omitempty"`
	AccountsPer int               `json:"accounts_per,omitempty"`

	// tx
	Tx *WireTx `json:"tx,omitempty"`

	// result
	Results []WireResult `json:"results,omitempty"`

	// stats (secondary -> primary acknowledgement)
	Stats *SecondaryStats `json:"stats,omitempty"`

	// error
	Error string `json:"error,omitempty"`
}

// WireTx is one pre-signed transaction with its submission schedule. Sig
// is a real wallet.FastScheme signature over the signing bytes.
type WireTx struct {
	Global   int    `json:"global"`
	AtNs     int64  `json:"at_ns"`
	Kind     uint8  `json:"kind"`
	From     []byte `json:"from"`
	To       []byte `json:"to"`
	Nonce    uint64 `json:"nonce"`
	Value    uint64 `json:"value"`
	Gas      uint64 `json:"gas"`
	GasPrice uint64 `json:"gas_price"`
	Data     []byte `json:"data,omitempty"`
	Sig      []byte `json:"sig"`
	PubKey   []byte `json:"pubkey"`
}

// newWireTx wraps a transaction for upload with its global index, its
// submission time and its wire signature.
func newWireTx(tx *types.Transaction, global int, at time.Duration, sig []byte) *WireTx {
	return &WireTx{
		Global:   global,
		AtNs:     int64(at),
		Kind:     uint8(tx.Kind),
		From:     tx.From[:],
		To:       tx.To[:],
		Nonce:    tx.Nonce,
		Value:    tx.Value,
		Gas:      tx.GasLimit,
		GasPrice: tx.GasPrice,
		Data:     tx.Data,
		Sig:      sig,
		PubKey:   tx.PubKey,
	}
}

// WireResult is the per-transaction outcome returned to its Secondary.
type WireResult struct {
	Global  int     `json:"global"`
	CommitS float64 `json:"commit_s"` // -1 when never committed
	Status  string  `json:"status"`
}

// SecondaryStats is what each Secondary reports back after receiving its
// results.
type SecondaryStats struct {
	Location  string  `json:"location"`
	Sent      int     `json:"sent"`
	Committed int     `json:"committed"`
	AvgLatS   float64 `json:"avg_latency_s"`
}

// dialWait bounds how long a Secondary retries a refused connection, since
// it may start before its Primary listens; helloWait bounds how long the
// Primary waits for a connected peer's hello and, once it has sent a
// Secondary its results, for the stats ack. Only tests change them.
var (
	dialWait  = 10 * time.Second
	helloWait = 10 * time.Second
)

// dial connects to the Primary, retrying a refused connection until
// dialWait has passed.
func dial(addr string) (net.Conn, error) {
	deadline := time.Now().Add(dialWait)
	for {
		c, err := net.Dial("tcp", addr)
		if err == nil || !errors.Is(err, syscall.ECONNREFUSED) || time.Now().After(deadline) {
			return c, err
		}
		time.Sleep(20 * time.Millisecond)
	}
}

type conn struct {
	c   net.Conn
	enc *json.Encoder
	dec *json.Decoder
	bw  *bufio.Writer
}

func newConn(c net.Conn) *conn {
	bw := bufio.NewWriterSize(c, 1<<16)
	return &conn{c: c, enc: json.NewEncoder(bw), dec: json.NewDecoder(bufio.NewReaderSize(c, 1<<16)), bw: bw}
}

func (c *conn) send(m *Message) error {
	if err := c.enc.Encode(m); err != nil {
		return err
	}
	return c.bw.Flush()
}

func (c *conn) recv() (*Message, error) {
	var m Message
	if err := c.dec.Decode(&m); err != nil {
		return nil, err
	}
	return &m, nil
}

// PrimaryConfig configures a Primary run.
type PrimaryConfig struct {
	// Listen is the TCP address (":5000" in the paper's usage).
	Listen string
	// Secondaries is how many must connect before the benchmark starts.
	Secondaries int
	// Setup and Benchmark are the two parsed configuration documents;
	// BenchmarkYAML is the benchmark document's raw text, forwarded to
	// Secondaries so they derive their shares from the same source.
	Setup         *spec.Setup
	Benchmark     *spec.Benchmark
	BenchmarkYAML string
	// Log receives progress lines (may be nil).
	Log func(format string, args ...any)
}

// PrimaryResult is the aggregated outcome.
type PrimaryResult struct {
	Records   []stats.TxRecord
	Summary   stats.Summary
	Dropped   int
	Aborted   int
	Stats     []SecondaryStats
	Chain     string
	Workloads []string
}

func (p *PrimaryConfig) logf(format string, args ...any) {
	if p.Log != nil {
		p.Log(format, args...)
	}
}

// RunPrimary executes the full Primary lifecycle and returns the
// aggregated results.
func RunPrimary(cfg PrimaryConfig) (*PrimaryResult, error) {
	if cfg.Secondaries <= 0 {
		return nil, fmt.Errorf("remote: need at least one secondary")
	}
	ln, err := net.Listen("tcp", cfg.Listen)
	if err != nil {
		return nil, err
	}
	defer ln.Close()
	cfg.logf("primary listening on %s, waiting for %d secondaries", ln.Addr(), cfg.Secondaries)

	// Phase 0: deploy the simulated system under test.
	params, err := chains.ParamsFor(cfg.Setup.Chain)
	if err != nil {
		return nil, err
	}
	deployment := cfg.Setup.Config
	if cfg.Setup.NodeScale > 1 {
		deployment = deployment.Scaled(cfg.Setup.NodeScale)
	}
	sched := sim.NewScheduler(cfg.Setup.Seed)
	wan := simnet.New(sched)
	net0 := chain.Deploy(sched, wan, params, chain.Deployment{
		Nodes: deployment.Nodes, VCPUs: deployment.VCPUs, Regions: deployment.Regions,
	})
	net0.Exec.CacheAfter = bench.DefaultCacheAfter

	deployer := wallet.NewAccount(wallet.FastScheme{}, []byte("diablo-primary-deployer"))
	contracts := map[string]string{}
	contractAddr := map[string]types.Address{}
	for _, wl := range cfg.Benchmark.Workloads {
		for _, beh := range wl.Behaviors {
			if !beh.Invoke {
				continue
			}
			if _, done := contracts[beh.DApp]; done {
				continue
			}
			d, err := dapps.Get(beh.DApp)
			if err != nil {
				return nil, err
			}
			c, err := net0.Exec.DeployDApp(deployer.Address, d)
			if err != nil {
				return nil, fmt.Errorf("remote: deploying %s: %w", beh.DApp, err)
			}
			contracts[beh.DApp] = c.Address.String()
			contractAddr[beh.DApp] = c.Address
			cfg.logf("deployed %s at %s", beh.DApp, c.Address)
		}
	}

	// Phase 1: registration.
	conns := make([]*conn, 0, cfg.Secondaries)
	locations := make([]string, 0, cfg.Secondaries)
	for len(conns) < cfg.Secondaries {
		c, err := ln.Accept()
		if err != nil {
			return nil, err
		}
		cc := newConn(c)
		// A peer that connects and stays silent fails registration instead
		// of holding it forever.
		if err := c.SetReadDeadline(time.Now().Add(helloWait)); err != nil {
			c.Close()
			return nil, fmt.Errorf("remote: hello deadline: %w", err)
		}
		hello, err := cc.recv()
		if err != nil {
			c.Close()
			return nil, fmt.Errorf("remote: no hello from %s: %w", c.RemoteAddr(), err)
		}
		if hello.Type != "hello" {
			c.Close()
			return nil, fmt.Errorf("remote: expected hello from %s, got %q", c.RemoteAddr(), hello.Type)
		}
		if err := c.SetReadDeadline(time.Time{}); err != nil {
			c.Close()
			return nil, fmt.Errorf("remote: clearing hello deadline: %w", err)
		}
		conns = append(conns, cc)
		locations = append(locations, hello.Location)
		cfg.logf("secondary %d connected from %s (tag %q)", len(conns)-1, c.RemoteAddr(), hello.Location)
	}
	defer func() {
		for _, c := range conns {
			c.c.Close()
		}
	}()

	// Phase 2: dispatch assignments.
	accounts := cfg.Benchmark.Accounts()
	perSecondary := accounts / cfg.Secondaries
	if perSecondary == 0 {
		perSecondary = 1
	}
	for i, c := range conns {
		msg := &Message{
			Type:        "assign",
			Secondary:   i,
			Total:       cfg.Secondaries,
			Chain:       cfg.Setup.Chain,
			Benchmark:   "", // spec travels pre-parsed via the schedule below
			Namespace:   fmt.Sprintf("remote-%s-%d", cfg.Setup.Chain, cfg.Setup.Seed),
			Contracts:   contracts,
			GasLimit:    params.DefaultGasLimit,
			AccountsPer: perSecondary,
		}
		msg.Benchmark = cfg.BenchmarkYAML
		if err := c.send(msg); err != nil {
			return nil, err
		}
	}

	// Phase 3: receive pre-signed transactions.
	type scheduled struct {
		tx     *types.Transaction
		at     time.Duration
		global int
		sec    int
	}
	var all []scheduled
	for i, c := range conns {
		for {
			m, err := c.recv()
			if err != nil {
				return nil, fmt.Errorf("remote: secondary %d: %w", i, err)
			}
			if m.Type == "done" {
				break
			}
			if m.Type != "tx" || m.Tx == nil {
				return nil, fmt.Errorf("remote: secondary %d sent %q during workload upload", i, m.Type)
			}
			wt := m.Tx
			tx := &types.Transaction{
				Kind:     types.TxKind(wt.Kind),
				Nonce:    wt.Nonce,
				Value:    wt.Value,
				GasLimit: wt.Gas,
				GasPrice: wt.GasPrice,
				Data:     wt.Data,
				Sig:      wt.Sig,
				PubKey:   wt.PubKey,
			}
			copy(tx.From[:], wt.From)
			copy(tx.To[:], wt.To)
			if err := wallet.VerifyTx(wallet.FastScheme{}, tx); err != nil {
				return nil, fmt.Errorf("remote: secondary %d: transaction %d: %w", i, wt.Global, err)
			}
			all = append(all, scheduled{tx: tx, at: time.Duration(wt.AtNs), global: wt.Global, sec: i})
		}
		cfg.logf("secondary %d uploaded its share (%d transactions so far)", i, len(all))
	}
	sort.Slice(all, func(i, j int) bool { return all[i].at < all[j].at })

	// Phase 4: run the benchmark on virtual time. Each scheduled
	// transaction submits through a client collocated with an endpoint
	// chosen by the sender's Secondary (the M function: secondary i talks
	// to endpoint i mod |E|).
	records := make([]stats.TxRecord, len(all))
	commitAt := make([]time.Duration, len(all))
	statuses := make([]types.ExecStatus, len(all))
	for i := range records {
		records[i].Commit = -1
		commitAt[i] = -1
	}
	clients := make([]*chain.Client, cfg.Secondaries)
	droppedCount := 0
	for i := range clients {
		clients[i] = net0.NewClient(i % len(net0.Nodes))
	}
	// Each submission's token is its index into all.
	for i := range clients {
		clients[i].OnDecided = func(s chain.Submission, status types.ExecStatus, at time.Duration) {
			k := s.Token.(int)
			commitAt[k] = at
			statuses[k] = status
		}
		clients[i].OnDropped = func(chain.Submission, error, time.Duration) {
			droppedCount++
		}
	}
	net0.Start()
	var maxAt time.Duration
	for i := range all {
		s := all[i]
		k := i
		records[k].Submit = s.at
		if s.at > maxAt {
			maxAt = s.at
		}
		sched.AtKind(sim.KindSubmission, s.at, func() { clients[s.sec].Submit(s.tx, k) })
	}
	cfg.logf("starting benchmark: %d transactions over %s of virtual time", len(all), maxAt.Round(time.Second))
	sched.RunUntil(maxAt + 120*time.Second)
	net0.Stop()

	for i := range records {
		if commitAt[i] >= 0 {
			records[i].Commit = commitAt[i]
			if statuses[i] != types.StatusOK {
				records[i].Aborted = true
			}
		}
	}

	// Phase 5: return per-secondary results and collect their stats.
	res := &PrimaryResult{
		Records: records,
		Dropped: droppedCount,
		Chain:   cfg.Setup.Chain,
	}
	perSec := make([][]WireResult, cfg.Secondaries)
	for i, s := range all {
		wr := WireResult{Global: s.global, CommitS: -1, Status: "pending"}
		if records[i].Committed() {
			wr.CommitS = records[i].Commit.Seconds()
			wr.Status = "committed"
		} else if records[i].Aborted {
			wr.Status = "aborted"
		}
		perSec[s.sec] = append(perSec[s.sec], wr)
	}
	for i, c := range conns {
		if err := c.send(&Message{Type: "result", Results: perSec[i]}); err != nil {
			return nil, err
		}
		// A Secondary acks its results at once; one that never does fails
		// the run instead of holding the Primary forever.
		if err := c.c.SetReadDeadline(time.Now().Add(helloWait)); err != nil {
			return nil, fmt.Errorf("remote: stats deadline: %w", err)
		}
		m, err := c.recv()
		switch {
		case err != nil:
			return nil, fmt.Errorf("remote: no stats ack from secondary %d: %w", i, err)
		case m.Type != "stats":
			return nil, fmt.Errorf("remote: secondary %d: expected stats, got %q", i, m.Type)
		case m.Stats == nil:
			return nil, fmt.Errorf("remote: secondary %d: stats missing", i)
		}
		res.Stats = append(res.Stats, *m.Stats)
	}
	res.Summary = stats.Summarize(records, maxAt.Round(time.Second))
	for _, r := range records {
		if r.Aborted {
			res.Aborted++
		}
	}
	return res, nil
}

// SecondaryConfig configures one Secondary process.
type SecondaryConfig struct {
	// Primary is the Primary's TCP address.
	Primary string
	// Location is the Secondary's placement tag (--tag in the CLI).
	Location string
	// Log receives progress lines (may be nil).
	Log func(format string, args ...any)
}

func (s *SecondaryConfig) logf(format string, args ...any) {
	if s.Log != nil {
		s.Log(format, args...)
	}
}

// RunSecondary executes the Secondary lifecycle: register, receive the
// assignment, pre-sign and upload the workload share, then report stats
// over the returned results.
func RunSecondary(cfg SecondaryConfig) (*SecondaryStats, error) {
	c, err := dial(cfg.Primary)
	if err != nil {
		return nil, err
	}
	defer c.Close()
	cc := newConn(c)
	if err := cc.send(&Message{Type: "hello", Location: cfg.Location}); err != nil {
		return nil, err
	}
	assign, err := cc.recv()
	if err != nil {
		return nil, err
	}
	if assign.Type == "error" {
		return nil, fmt.Errorf("remote: primary rejected: %s", assign.Error)
	}
	if assign.Type != "assign" {
		return nil, fmt.Errorf("remote: expected assign, got %q", assign.Type)
	}
	cfg.logf("assigned share %d/%d on %s", assign.Secondary, assign.Total, assign.Chain)

	benchmark, err := spec.ParseBenchmark(assign.Benchmark)
	if err != nil {
		return nil, fmt.Errorf("remote: parsing benchmark: %w", err)
	}
	traces, err := benchmark.Traces()
	if err != nil {
		return nil, err
	}
	// Disjoint account shares: each Secondary derives its own namespace.
	w := wallet.New(wallet.FastScheme{}, fmt.Sprintf("%s/%d", assign.Namespace, assign.Secondary), assign.AccountsPer)
	rng := rand.New(rand.NewSource(int64(assign.Secondary) + 42))

	// Pre-sign and stream this Secondary's share: every transaction whose
	// global index is ours modulo the secondary count.
	sent := 0
	globalBase := 0
	sentAt := make(map[int]float64)
	for _, tr := range traces {
		var d *dapps.DApp
		var contractTo types.Address
		if tr.DApp != "" {
			d, err = dapps.Get(tr.DApp)
			if err != nil {
				return nil, err
			}
			addrHex, ok := assign.Contracts[tr.DApp]
			if !ok {
				return nil, fmt.Errorf("remote: primary did not deploy %q", tr.DApp)
			}
			contractTo, err = parseAddress(addrHex)
			if err != nil {
				return nil, err
			}
		}
		base := globalBase
		var sendErr error
		tr.ForEach(func(idx int, at time.Duration) {
			if sendErr != nil {
				return
			}
			global := base + idx
			if global%assign.Total != assign.Secondary {
				return
			}
			acct := w.Get(global % w.Len())
			var tx *types.Transaction
			if tr.DApp == "" {
				tx = &types.Transaction{
					Kind:     types.KindTransfer,
					To:       w.Get((global + 1) % w.Len()).Address,
					Value:    1,
					GasLimit: 21000,
					// Pre-signed transactions cannot track the base fee;
					// overprice generously (the pre-signing trade-off the
					// paper describes for London chains).
					GasPrice: 1 << 30,
				}
			} else {
				compiled, _ := d.Compile()
				args := d.ArgGen(rng, tr.Func)
				calldata, err := compiled.Calldata(tr.Func, args...)
				if err != nil {
					sendErr = err
					return
				}
				tx = &types.Transaction{
					Kind:     types.KindInvoke,
					To:       contractTo,
					GasLimit: assign.GasLimit,
					GasPrice: 1 << 30,
					Data:     chain.EncodeInvokeData(calldata, d.DataBytes),
				}
			}
			acct.SignNext(tx)
			wt := newWireTx(tx, global, at, acct.WireSig(tx))
			if err := cc.send(&Message{Type: "tx", Tx: wt}); err != nil {
				sendErr = err
				return
			}
			sentAt[global] = at.Seconds()
			sent++
		})
		if sendErr != nil {
			return nil, sendErr
		}
		globalBase += tr.Total()
	}
	if err := cc.send(&Message{Type: "done"}); err != nil {
		return nil, err
	}
	cfg.logf("uploaded %d pre-signed transactions; waiting for results", sent)

	results, err := cc.recv()
	if err != nil {
		return nil, err
	}
	if results.Type != "result" {
		return nil, fmt.Errorf("remote: expected result, got %q", results.Type)
	}
	st := &SecondaryStats{Location: cfg.Location, Sent: sent}
	var latSum float64
	for _, r := range results.Results {
		if r.Status == "committed" {
			st.Committed++
			latSum += r.CommitS - sentAt[r.Global]
		}
	}
	if st.Committed > 0 {
		st.AvgLatS = latSum / float64(st.Committed)
	}
	if err := cc.send(&Message{Type: "stats", Stats: st}); err != nil {
		return nil, err
	}
	return st, nil
}

func parseAddress(hex string) (types.Address, error) {
	var a types.Address
	if len(hex) != 2+2*types.AddressSize || hex[:2] != "0x" {
		return a, fmt.Errorf("remote: bad address %q", hex)
	}
	for i := 0; i < types.AddressSize; i++ {
		hi, err1 := hexNibble(hex[2+2*i])
		lo, err2 := hexNibble(hex[3+2*i])
		if err1 != nil || err2 != nil {
			return a, fmt.Errorf("remote: bad address %q", hex)
		}
		a[i] = hi<<4 | lo
	}
	return a, nil
}

func hexNibble(c byte) (byte, error) {
	switch {
	case '0' <= c && c <= '9':
		return c - '0', nil
	case 'a' <= c && c <= 'f':
		return c - 'a' + 10, nil
	case 'A' <= c && c <= 'F':
		return c - 'A' + 10, nil
	}
	return 0, io.ErrUnexpectedEOF
}
