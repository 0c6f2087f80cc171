// Package remote implements DIABLO's distributed architecture (§4, Fig. 1)
// over real TCP: a single Primary coordinates the experiment and multiple
// Secondaries pre-sign and contribute the workload.
//
// Protocol (newline-delimited JSON, at most maxFrame bytes a frame):
//
//  1. Each Secondary connects and sends hello{location}.
//  2. The Primary sends Secondary i of k an assign message carrying the
//     setup and workload documents.
//  3. Each Secondary builds the experiment from the two documents
//     (bench.FromSpec) and derives its transactions exactly as the
//     in-process run encodes them (bench.Presign): the same wallet,
//     contracts, global order, senders, nonces and argument draws. It
//     signs the globals g with g mod k == i (the Secondaries' job in the
//     paper) and streams them back with their submission times, ending
//     with done.
//  4. The Primary verifies every upload and runs the experiment with
//     bench.Run, the uploads taking the place of in-process encoding: how
//     the mapping function M splits the work decides who signs, never what
//     is submitted. Faults, invariants, retries and placement apply as in
//     `diablo run`.
//  5. The Primary returns each Secondary its per-transaction results;
//     Secondaries acknowledge with their local statistics.
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
	"net"
	"syscall"
	"time"

	"diablo/internal/bench"
	"diablo/internal/core"
	"diablo/internal/spec"
	"diablo/internal/types"
	"diablo/internal/wallet"
)

// Message is the single wire envelope; Type selects the populated fields.
type Message struct {
	Type string `json:"type"`

	// hello
	Location string `json:"location,omitempty"`

	// assign: the Secondary's index among Total, and the setup and
	// workload documents the experiment is built from
	Secondary int    `json:"secondary,omitempty"`
	Total     int    `json:"total,omitempty"`
	Setup     string `json:"setup,omitempty"`
	Benchmark string `json:"benchmark,omitempty"`

	// tx
	Tx *WireTx `json:"tx,omitempty"`

	// result
	Results []WireResult `json:"results,omitempty"`

	// stats (secondary -> primary acknowledgement)
	Stats *SecondaryStats `json:"stats,omitempty"`
}

// WireTx is one pre-signed transaction with its submission time. Sig is a
// real wallet.FastScheme signature over the signing bytes.
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

// newWireTx wraps a signed transaction for upload with its global index and
// its submission time.
func newWireTx(tx *types.Transaction, global int, at time.Duration) *WireTx {
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
		Sig:      tx.Sig,
		PubKey:   tx.PubKey,
	}
}

// transaction rebuilds the uploaded transaction. It does not check the
// signature (wallet.VerifyTx does).
func (wt *WireTx) transaction() (*types.Transaction, error) {
	if len(wt.From) != types.AddressSize || len(wt.To) != types.AddressSize {
		return nil, fmt.Errorf("remote: addresses of %d and %d bytes, want %d", len(wt.From), len(wt.To), types.AddressSize)
	}
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
	return tx, nil
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

// maxFrame bounds one wire frame, so a peer cannot make a reader buffer
// without limit. The largest legitimate frame is the assign message, which
// carries both spec documents: the ones in specs/ are under 2 KB, and a
// workload with a load point for every second of a day is about 1.5 MB
// once JSON-escaped. A tx frame is under 1 KB (at most 300 bytes of DApp
// payload, base64-coded), and results travel resultBatch to a frame.
const maxFrame = 4 << 20

// resultBatch caps the results one frame carries (each is under 100 bytes
// of JSON). A frame with fewer ends a Secondary's results.
const resultBatch = 4096

// dialWait bounds how long a Secondary retries a refused connection, since
// it may start before its Primary listens; helloWait bounds how long the
// Primary waits for a connected peer's hello and, once it has sent a
// Secondary its results, for the stats ack; registerWait bounds how long
// the Primary waits for all its Secondaries to connect and a Secondary
// waits for its assignment. Only tests change them.
var (
	dialWait     = 10 * time.Second
	helloWait    = 10 * time.Second
	registerWait = 60 * time.Second
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
	c     net.Conn
	enc   *json.Encoder
	bw    *bufio.Writer
	br    *bufio.Reader
	frame []byte // the frame being read, reused across recv calls
}

func newConn(c net.Conn) *conn {
	bw := bufio.NewWriterSize(c, 1<<16)
	return &conn{c: c, enc: json.NewEncoder(bw), bw: bw, br: bufio.NewReaderSize(c, 1<<16)}
}

func (c *conn) send(m *Message) error {
	if err := c.enc.Encode(m); err != nil {
		return err
	}
	return c.bw.Flush()
}

// recv reads and decodes one frame, refusing one longer than maxFrame
// before buffering past the bound.
func (c *conn) recv() (*Message, error) {
	c.frame = c.frame[:0]
	for {
		chunk, err := c.br.ReadSlice('\n')
		if len(c.frame)+len(chunk) > maxFrame {
			return nil, fmt.Errorf("remote: frame from %s exceeds %d bytes", c.c.RemoteAddr(), maxFrame)
		}
		c.frame = append(c.frame, chunk...)
		if err == nil {
			break
		}
		if err != bufio.ErrBufferFull {
			return nil, err
		}
	}
	var m Message
	if err := json.Unmarshal(c.frame, &m); err != nil {
		return nil, fmt.Errorf("remote: bad frame from %s: %w", c.c.RemoteAddr(), err)
	}
	return &m, nil
}

// PrimaryConfig configures a Primary run.
type PrimaryConfig struct {
	// Listen is the TCP address (":5000" in the paper's usage).
	Listen string
	// Secondaries is how many must connect before the benchmark starts.
	Secondaries int
	// Experiment is the run as bench.FromSpec builds it from the two
	// documents below. Callers may arm observers on it (trace, spans,
	// metrics, checkpoints); its Uploads are the Secondaries' to fill.
	Experiment bench.Experiment
	// SetupYAML and BenchmarkYAML are the raw setup and workload
	// documents, forwarded to every Secondary so that it derives its share
	// from the same source.
	SetupYAML     string
	BenchmarkYAML string
	// Log receives progress lines (may be nil).
	Log func(format string, args ...any)
}

func (p *PrimaryConfig) logf(format string, args ...any) {
	if p.Log != nil {
		p.Log(format, args...)
	}
}

// RunPrimary executes the full Primary lifecycle and returns the run's
// outcome and the statistics each Secondary acknowledged.
func RunPrimary(cfg PrimaryConfig) (*bench.Outcome, []SecondaryStats, error) {
	k := cfg.Secondaries
	if k <= 0 {
		return nil, nil, fmt.Errorf("remote: need at least one secondary")
	}
	exp := cfg.Experiment
	if len(exp.Streams) > 0 {
		return nil, nil, fmt.Errorf("remote: the workload's stream: section cannot be presigned by Secondaries; run it with diablo run")
	}
	// Fail before any Secondary connects, so a rejected experiment is
	// reported here and not as a closed connection at every Secondary.
	if err := exp.Check(); err != nil {
		return nil, nil, err
	}
	total := 0
	for _, tr := range exp.Traces {
		total += tr.Total()
	}
	ln, err := net.Listen("tcp", cfg.Listen)
	if err != nil {
		return nil, nil, err
	}
	defer ln.Close()
	cfg.logf("primary listening on %s, waiting for %d secondaries", ln.Addr(), k)

	// Phase 1: registration. A Secondary that never connects fails the
	// run instead of holding the Primary, and those already connected,
	// forever.
	conns := make([]*conn, 0, k)
	defer func() {
		for _, c := range conns {
			c.c.Close()
		}
	}()
	if err := ln.(*net.TCPListener).SetDeadline(time.Now().Add(registerWait)); err != nil {
		return nil, nil, fmt.Errorf("remote: registration deadline: %w", err)
	}
	for len(conns) < k {
		c, err := ln.Accept()
		if err != nil {
			return nil, nil, fmt.Errorf("remote: %d of %d secondaries registered within %v: %w", len(conns), k, registerWait, err)
		}
		cc := newConn(c)
		// A peer that connects and stays silent fails registration instead
		// of holding it forever.
		if err := c.SetReadDeadline(time.Now().Add(helloWait)); err != nil {
			c.Close()
			return nil, nil, fmt.Errorf("remote: hello deadline: %w", err)
		}
		hello, err := cc.recv()
		if err != nil {
			c.Close()
			return nil, nil, fmt.Errorf("remote: no hello from %s: %w", c.RemoteAddr(), err)
		}
		if hello.Type != "hello" {
			c.Close()
			return nil, nil, fmt.Errorf("remote: expected hello from %s, got %q", c.RemoteAddr(), hello.Type)
		}
		if err := c.SetReadDeadline(time.Time{}); err != nil {
			c.Close()
			return nil, nil, fmt.Errorf("remote: clearing hello deadline: %w", err)
		}
		conns = append(conns, cc)
		cfg.logf("secondary %d connected from %s (tag %q)", len(conns)-1, c.RemoteAddr(), hello.Location)
	}

	// Phase 2: dispatch assignments.
	for i, c := range conns {
		msg := &Message{Type: "assign", Secondary: i, Total: k, Setup: cfg.SetupYAML, Benchmark: cfg.BenchmarkYAML}
		if err := c.send(msg); err != nil {
			return nil, nil, err
		}
	}

	// Phase 3: receive and verify the pre-signed transactions. Secondary i
	// owns the globals g with g mod k == i.
	uploads := make([]core.Interaction, total)
	for i, c := range conns {
		n := 0
		for {
			m, err := c.recv()
			if err != nil {
				return nil, nil, fmt.Errorf("remote: secondary %d: %w", i, err)
			}
			if m.Type == "done" {
				break
			}
			if m.Type != "tx" || m.Tx == nil {
				return nil, nil, fmt.Errorf("remote: secondary %d sent %q during workload upload", i, m.Type)
			}
			g := m.Tx.Global
			switch {
			case g < 0 || g >= total || g%k != i:
				return nil, nil, fmt.Errorf("remote: secondary %d uploaded transaction %d, which is not in its share", i, g)
			case uploads[g] != nil:
				return nil, nil, fmt.Errorf("remote: secondary %d uploaded transaction %d twice", i, g)
			}
			tx, err := m.Tx.transaction()
			if err == nil {
				err = wallet.VerifyTx(wallet.FastScheme{}, tx)
			}
			if err != nil {
				return nil, nil, fmt.Errorf("remote: secondary %d: transaction %d: %w", i, g, err)
			}
			uploads[g] = tx
			n++
		}
		cfg.logf("secondary %d uploaded %d of %d transactions", i, n, total)
	}

	// Phase 4: run the experiment on the uploads.
	exp.Uploads = uploads
	out, err := bench.Run(exp)
	if err != nil {
		return nil, nil, err
	}

	// Phase 5: return per-secondary results and collect their stats. An
	// empty run (a DApp the chain cannot deploy) has no records.
	perSec := make([][]WireResult, k)
	for g, r := range out.Records {
		if uploads[g] == nil {
			continue
		}
		wr := WireResult{Global: g, CommitS: -1, Status: "pending"}
		if r.Committed() {
			wr.CommitS = r.Commit.Seconds()
			wr.Status = "committed"
		} else if r.Aborted {
			wr.Status = "aborted"
		}
		perSec[g%k] = append(perSec[g%k], wr)
	}
	secStats := make([]SecondaryStats, 0, k)
	for i, c := range conns {
		rest := perSec[i]
		for {
			n := min(len(rest), resultBatch)
			if err := c.send(&Message{Type: "result", Results: rest[:n]}); err != nil {
				return nil, nil, err
			}
			rest = rest[n:]
			if n < resultBatch {
				break
			}
		}
		// A Secondary acks its results at once; one that never does fails
		// the run instead of holding the Primary forever.
		if err := c.c.SetReadDeadline(time.Now().Add(helloWait)); err != nil {
			return nil, nil, fmt.Errorf("remote: stats deadline: %w", err)
		}
		m, err := c.recv()
		switch {
		case err != nil:
			return nil, nil, fmt.Errorf("remote: no stats ack from secondary %d: %w", i, err)
		case m.Type != "stats":
			return nil, nil, fmt.Errorf("remote: secondary %d: expected stats, got %q", i, m.Type)
		case m.Stats == nil:
			return nil, nil, fmt.Errorf("remote: secondary %d: stats missing", i)
		}
		secStats = append(secStats, *m.Stats)
	}
	return out, secStats, nil
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
	// The Primary assigns shares once all its Secondaries have registered,
	// which it waits registerWait for.
	if err := c.SetReadDeadline(time.Now().Add(registerWait)); err != nil {
		return nil, fmt.Errorf("remote: assign deadline: %w", err)
	}
	assign, err := cc.recv()
	if err != nil {
		return nil, fmt.Errorf("remote: no assign message from the primary: %w", err)
	}
	if err := c.SetReadDeadline(time.Time{}); err != nil {
		return nil, fmt.Errorf("remote: clearing assign deadline: %w", err)
	}
	if assign.Type != "assign" {
		return nil, fmt.Errorf("remote: expected assign, got %q", assign.Type)
	}
	if assign.Total <= 0 || assign.Secondary < 0 || assign.Secondary >= assign.Total {
		return nil, fmt.Errorf("remote: assigned share %d of %d", assign.Secondary, assign.Total)
	}
	setup, err := spec.ParseSetup(assign.Setup)
	if err != nil {
		return nil, fmt.Errorf("remote: parsing setup: %w", err)
	}
	benchmark, err := spec.ParseBenchmark(assign.Benchmark)
	if err != nil {
		return nil, fmt.Errorf("remote: parsing benchmark: %w", err)
	}
	exp, err := bench.FromSpec(setup, benchmark)
	if err != nil {
		return nil, err
	}
	cfg.logf("assigned share %d/%d on %s", assign.Secondary, assign.Total, setup.Chain)

	// Pre-sign and stream this Secondary's share.
	sentAt := make(map[int]float64)
	mine := func(g int) bool { return g%assign.Total == assign.Secondary }
	err = bench.Presign(exp, mine, func(g int, at time.Duration, tx *types.Transaction) error {
		sentAt[g] = at.Seconds()
		return cc.send(&Message{Type: "tx", Tx: newWireTx(tx, g, at)})
	})
	if err != nil {
		return nil, err
	}
	if err := cc.send(&Message{Type: "done"}); err != nil {
		return nil, err
	}
	cfg.logf("uploaded %d pre-signed transactions; waiting for results", len(sentAt))

	st := &SecondaryStats{Location: cfg.Location, Sent: len(sentAt)}
	var latSum float64
	for {
		results, err := cc.recv()
		if err != nil {
			return nil, err
		}
		if results.Type != "result" {
			return nil, fmt.Errorf("remote: expected result, got %q", results.Type)
		}
		for _, r := range results.Results {
			if r.Status == "committed" {
				st.Committed++
				latSum += r.CommitS - sentAt[r.Global]
			}
		}
		if len(results.Results) < resultBatch {
			break
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
