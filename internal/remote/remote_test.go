package remote

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"os"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"diablo/internal/bench"
	"diablo/internal/chains/chain"
	"diablo/internal/spec"
	"diablo/internal/types"
	"diablo/internal/wallet"
)

const benchYAML = `
let:
  - &acc { sample: !account { number: 40 } }
  - &dapp { sample: !contract { name: "fifa" } }
workloads:
  - number: 2
    client:
      view: { sample: !endpoint [ ".*" ] }
      behavior:
        - interaction: !invoke
            from: *acc
            contract: *dapp
            function: "add()"
          load:
            0: 5
            10: 0
`

const transferYAML = `
workloads:
  - client:
      behavior:
        - interaction: !transfer
            from: { sample: !account { number: 40 } }
          load:
            0: 10
            10: 0
`

// devnet is a setup document for the named chain at laptop scale.
func devnet(chain string) string {
	return "blockchain: " + chain + "\nconfiguration: devnet\nnode-scale: 2"
}

// experiment builds the run the two documents describe.
func experiment(t *testing.T, setupSrc, benchSrc string) bench.Experiment {
	t.Helper()
	setup, err := spec.ParseSetup(setupSrc)
	if err != nil {
		t.Fatal(err)
	}
	benchmark, err := spec.ParseBenchmark(benchSrc)
	if err != nil {
		t.Fatal(err)
	}
	exp, err := bench.FromSpec(setup, benchmark)
	if err != nil {
		t.Fatal(err)
	}
	return exp
}

// primaryConfig is a Primary on a free localhost port for the two
// documents.
func primaryConfig(t *testing.T, setupSrc, benchSrc string, secondaries int) PrimaryConfig {
	t.Helper()
	return PrimaryConfig{
		Listen:        freePort(t),
		Secondaries:   secondaries,
		Experiment:    experiment(t, setupSrc, benchSrc),
		SetupYAML:     setupSrc,
		BenchmarkYAML: benchSrc,
	}
}

// freePort reserves a TCP port for the test primary.
func freePort(t *testing.T) string {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := l.Addr().String()
	l.Close()
	return addr
}

// runDistributed runs the configured primary and its secondaries over
// localhost TCP.
// The secondaries start first, so their dials may be refused until the
// primary listens.
func runDistributed(t *testing.T, cfg PrimaryConfig) (*bench.Outcome, []*SecondaryStats) {
	t.Helper()
	secondaries := cfg.Secondaries
	var wg sync.WaitGroup
	secStats := make([]*SecondaryStats, secondaries)
	secErrs := make([]error, secondaries)
	for i := 0; i < secondaries; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			st, err := RunSecondary(SecondaryConfig{
				Primary:  cfg.Listen,
				Location: fmt.Sprintf("zone-%d", i),
			})
			secStats[i], secErrs[i] = st, err
		}()
	}

	out, acks, err := RunPrimary(cfg)
	if err != nil {
		t.Fatalf("primary: %v", err)
	}
	wg.Wait()
	for i, err := range secErrs {
		if err != nil {
			t.Fatalf("secondary %d: %v", i, err)
		}
	}
	if len(acks) != secondaries {
		t.Fatalf("primary collected %d stats from %d secondaries", len(acks), secondaries)
	}
	return out, secStats
}

// faultsYAML scales specs/setup-quorum-chaos.yaml to five nodes and the
// ten seconds of transferYAML: a crash and restart, a partition, link loss
// and delay, a straggler, client retries and the invariant monitors.
const faultsYAML = `
blockchain: quorum
configuration: devnet
node-scale: 2
seed: 7
retry: {timeout: 4s, max-retries: 3, backoff: 2}
invariants: {horizon: 60s}
faults:
  - crash: {node: 3, at: 2s}
  - restart: {node: 3, at: 6s}
  - partition: {sides: "0-1 | 2-4", at: 8s, for: 4s}
  - loss: {link: ohio<->mumbai, rate: 5%, at: 3s, for: 5s}
  - delay: {link: all, extra: 100ms, jitter: 20ms, at: 4s, for: 4s}
  - slow: {node: 1, factor: 3x, at: 5s, for: 3s}
`

// TestDistributedParity: the Primary and k Secondaries over loopback TCP
// reproduce bench.Run's outcome on the same documents for every k — the
// mapping function M decides who signs, never what is submitted. On the
// EVM and the AVM (where the Secondaries' calldata must invoke the
// AVM-compiled application) the digests equal the in-process run's, and
// so do the lifecycle traces, which name every transaction by its ID; the
// faulted cell's schedule must show in its outcome. Ethereum's blocks skip
// transactions priced below the base fee, and presigned ones are
// overpriced where the in-process ones track the fee, so there the k runs
// agree with each other and all commit.
func TestDistributedParity(t *testing.T) {
	cells := []struct{ name, setup, bench string }{
		{"quorum", devnet("quorum"), benchYAML},
		{"algorand", devnet("algorand"), benchYAML},
		{"quorum-faults", faultsYAML, transferYAML},
	}
	for _, c := range cells {
		t.Run(c.name, func(t *testing.T) {
			exp := experiment(t, c.setup, c.bench)
			trace := sha256.New()
			exp.Trace = trace
			want, err := bench.Run(exp)
			if err != nil {
				t.Fatal(err)
			}
			wantTrace := trace.Sum(nil)
			if want.Summary.Submitted != 100 || want.Summary.Committed != 100 || want.AbortedExec != 0 {
				t.Fatalf("in process: committed %d/%d, %d aborted", want.Summary.Committed, want.Summary.Submitted, want.AbortedExec)
			}
			if exp.Faults != nil {
				exp.Faults, exp.Retry, exp.Trace = nil, chain.RetryPolicy{}, nil
				calm, err := bench.Run(exp)
				if err != nil {
					t.Fatal(err)
				}
				if calm.Digest() == want.Digest() || want.Retries == 0 {
					t.Fatalf("the fault schedule leaves no trace (%d retries)", want.Retries)
				}
			}
			for k := 1; k <= 3; k++ {
				cfg := primaryConfig(t, c.setup, c.bench, k)
				trace := sha256.New()
				cfg.Experiment.Trace = trace
				out, _ := runDistributed(t, cfg)
				if got := out.Digest(); got != want.Digest() {
					t.Errorf("k=%d: digest %s, in-process %s (committed %d/%d, in-process %d/%d)", k, got, want.Digest(),
						out.Summary.Committed, out.Summary.Submitted, want.Summary.Committed, want.Summary.Submitted)
				}
				if !bytes.Equal(trace.Sum(nil), wantTrace) {
					t.Errorf("k=%d: the lifecycle trace differs from the in-process run's", k)
				}
			}
		})
	}
	t.Run("ethereum", func(t *testing.T) {
		var first string
		for k := 1; k <= 3; k++ {
			out, _ := runDistributed(t, primaryConfig(t, devnet("ethereum"), transferYAML, k))
			if out.Summary.Submitted != 100 || out.Summary.Committed != 100 {
				t.Fatalf("k=%d: committed %d/%d (dropped %d)", k, out.Summary.Committed, out.Summary.Submitted, out.Dropped)
			}
			if k == 1 {
				first = out.Digest()
			} else if got := out.Digest(); got != first {
				t.Errorf("k=%d: digest %s, k=1 %s", k, got, first)
			}
		}
	})
}

func TestDistributedDAppBenchmark(t *testing.T) {
	out, secStats := runDistributed(t, primaryConfig(t, devnet("quorum"), benchYAML, 3))
	// 2 clients x 5 TPS x 10s = 100 transactions.
	if out.Summary.Submitted != 100 {
		t.Fatalf("submitted = %d, want 100", out.Summary.Submitted)
	}
	if out.Summary.Committed != 100 {
		t.Fatalf("committed = %d/100 (dropped %d)", out.Summary.Committed, out.Dropped)
	}
	totalSent := 0
	for i, st := range secStats {
		if st.Sent == 0 {
			t.Errorf("secondary %d sent nothing", i)
		}
		if st.Committed != st.Sent {
			t.Errorf("secondary %d: %d/%d committed", i, st.Committed, st.Sent)
		}
		if st.AvgLatS <= 0 {
			t.Errorf("secondary %d: no latency measured", i)
		}
		totalSent += st.Sent
	}
	if totalSent != 100 {
		t.Fatalf("secondaries sent %d total, want 100", totalSent)
	}
}

func TestDistributedTransferBenchmark(t *testing.T) {
	out, _ := runDistributed(t, primaryConfig(t, devnet("quorum"), transferYAML, 2))
	if out.Summary.Submitted != 100 {
		t.Fatalf("submitted = %d", out.Summary.Submitted)
	}
	if out.Summary.Committed != 100 {
		t.Fatalf("committed = %d (dropped %d)", out.Summary.Committed, out.Dropped)
	}
	if out.Summary.AvgLatency <= 0 {
		t.Fatal("no latency")
	}
}

func TestPrimaryRejectsZeroSecondaries(t *testing.T) {
	_, _, err := RunPrimary(PrimaryConfig{Secondaries: 0})
	if err == nil {
		t.Fatal("zero secondaries accepted")
	}
}

// TestPrimaryRejectsStreamWorkload: Secondaries presign trace submissions
// only, so a workload with a stream: section fails the Primary up front,
// naming the section, instead of running without it.
func TestPrimaryRejectsStreamWorkload(t *testing.T) {
	src, err := os.ReadFile("../../specs/workload-mint-flash.yaml")
	if err != nil {
		t.Fatal(err)
	}
	_, _, err = RunPrimary(primaryConfig(t, devnet("quorum"), string(src), 1))
	if err == nil || !strings.Contains(err.Error(), "stream:") {
		t.Fatalf("primary returned %v, want an error naming the stream: section", err)
	}
}

// TestPrimaryChecksBeforeListening: an experiment that bench.Run rejects
// fails the Primary with Run's reason before any Secondary connects.
func TestPrimaryChecksBeforeListening(t *testing.T) {
	const oregon = `
workloads:
  - client:
      location: { sample: !location [ "oregon" ] }
      view: { sample: !endpoint [ ".*" ] }
      behavior:
        - interaction: !transfer
            from: { sample: !account { number: 40 } }
          load:
            0: 10
            10: 0
`
	cfg := primaryConfig(t, "blockchain: quorum\nconfiguration: devnet\nnode-scale: 5", oregon, 1)
	done := make(chan error, 1)
	go func() {
		_, _, err := RunPrimary(cfg)
		done <- err
	}()
	select {
	case err := <-done:
		if err == nil || !strings.Contains(err.Error(), "no deployed node lives in [oregon]") {
			t.Fatalf("primary returned %v, want the placement error", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("primary waits for Secondaries to run an experiment it rejects")
	}
}

func TestSecondaryConnectError(t *testing.T) {
	defer func(w time.Duration) { dialWait = w }(dialWait)
	dialWait = 100 * time.Millisecond
	_, err := RunSecondary(SecondaryConfig{Primary: "127.0.0.1:1"})
	if !errors.Is(err, syscall.ECONNREFUSED) {
		t.Fatalf("dial to a closed port: %v, want connection refused", err)
	}
}

// startPrimary runs a one-Secondary Primary on the transfer benchmark in
// the background and returns its address and the channel its error arrives
// on.
func startPrimary(t *testing.T) (string, <-chan error) {
	t.Helper()
	cfg := primaryConfig(t, devnet("quorum"), transferYAML, 1)
	done := make(chan error, 1)
	go func() {
		_, _, err := RunPrimary(cfg)
		done <- err
	}()
	return cfg.Listen, done
}

// primaryError waits for the Primary's error and requires it to name want.
func primaryError(t *testing.T, done <-chan error, want string) {
	t.Helper()
	select {
	case err := <-done:
		if err == nil || !strings.Contains(err.Error(), want) {
			t.Fatalf("primary returned %v, want an error naming %q", err, want)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("primary still waiting on its peer")
	}
}

// TestPrimaryRejectsSilentPeer: a peer that connects and never says hello
// fails registration with an error instead of holding the Primary in it
// forever.
func TestPrimaryRejectsSilentPeer(t *testing.T) {
	defer func(w time.Duration) { helloWait = w }(helloWait)
	helloWait = 200 * time.Millisecond
	addr, done := startPrimary(t)
	c, err := dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	primaryError(t, done, "no hello")
}

// TestPrimaryRegistrationDeadline: a Primary waiting for two Secondaries
// with only one connected fails once registerWait has passed, naming how
// many registered, and the connected Secondary fails naming the assignment
// it never received, instead of both waiting until killed.
func TestPrimaryRegistrationDeadline(t *testing.T) {
	defer func(w time.Duration) { registerWait = w }(registerWait)
	registerWait = time.Second
	cfg := primaryConfig(t, devnet("quorum"), transferYAML, 2)
	done := make(chan error, 1)
	go func() {
		_, _, err := RunPrimary(cfg)
		done <- err
	}()
	secDone := make(chan error, 1)
	go func() {
		_, err := RunSecondary(SecondaryConfig{Primary: cfg.Listen})
		secDone <- err
	}()
	primaryError(t, done, "1 of 2 secondaries registered")
	select {
	case err := <-secDone:
		if err == nil || !strings.Contains(err.Error(), "no assign message") {
			t.Fatalf("secondary returned %v, want an error naming the missing assign message", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("secondary still waiting for its assignment")
	}
}

// TestPrimaryBoundsFrames: a hello of exactly maxFrame bytes registers, and
// one byte more fails the Primary with an error naming the peer before it
// buffers the rest.
func TestPrimaryBoundsFrames(t *testing.T) {
	for _, size := range []int{maxFrame, maxFrame + 1} {
		t.Run(fmt.Sprint(size), func(t *testing.T) {
			addr, done := startPrimary(t)
			c, err := dial(addr)
			if err != nil {
				t.Fatal(err)
			}
			defer c.Close()
			head, tail := `{"type":"hello","location":"`, "\"}\n"
			frame := head + strings.Repeat("x", size-len(head)-len(tail)) + tail
			go c.Write([]byte(frame))
			if size > maxFrame {
				primaryError(t, done, fmt.Sprintf("frame from %s exceeds %d bytes", c.LocalAddr(), maxFrame))
				return
			}
			if m, err := newConn(c).recv(); err != nil || m.Type != "assign" {
				t.Fatalf("expected assign: %v %v", m, err)
			}
			c.Close()
			primaryError(t, done, "secondary 0")
		})
	}
}

// TestPrimaryChecksStatsAck: a Secondary that registers, uploads nothing and
// takes its results, then acks with the wrong message, with no stats or not
// at all, fails the Primary with an error saying which.
func TestPrimaryChecksStatsAck(t *testing.T) {
	defer func(w time.Duration) { helloWait = w }(helloWait)
	helloWait = 200 * time.Millisecond
	cases := []struct {
		name string
		ack  *Message // nil = stay silent
		want string
	}{
		{"wrong type", &Message{Type: "done"}, `expected stats, got "done"`},
		{"stats missing", &Message{Type: "stats"}, "stats missing"},
		{"silent", nil, "no stats ack"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			addr, done := startPrimary(t)
			c, err := dial(addr)
			if err != nil {
				t.Fatal(err)
			}
			defer c.Close()
			cc := newConn(c)
			if err := cc.send(&Message{Type: "hello"}); err != nil {
				t.Fatal(err)
			}
			if m, err := cc.recv(); err != nil || m.Type != "assign" {
				t.Fatalf("expected assign: %v %v", m, err)
			}
			if err := cc.send(&Message{Type: "done"}); err != nil {
				t.Fatal(err)
			}
			if m, err := cc.recv(); err != nil || m.Type != "result" {
				t.Fatalf("expected result: %v %v", m, err)
			}
			if tc.ack != nil {
				if err := cc.send(tc.ack); err != nil {
					t.Fatal(err)
				}
			}
			primaryError(t, done, tc.want)
		})
	}
}

// upload registers with the Primary at addr as its only Secondary and
// uploads tx as the given global.
func upload(t *testing.T, addr string, tx *types.Transaction, global int) {
	t.Helper()
	c, err := dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	cc := newConn(c)
	if err := cc.send(&Message{Type: "hello"}); err != nil {
		t.Fatal(err)
	}
	if m, err := cc.recv(); err != nil || m.Type != "assign" {
		t.Fatalf("expected assign: %v %v", m, err)
	}
	if err := cc.send(&Message{Type: "tx", Tx: newWireTx(tx, global, time.Second)}); err != nil {
		t.Fatal(err)
	}
	if err := cc.send(&Message{Type: "done"}); err != nil {
		t.Fatal(err)
	}
}

// signed is a transfer carrying a real wire signature.
func signed() *types.Transaction {
	acct := wallet.NewAccount(wallet.FastScheme{}, []byte("tamper"))
	tx := &types.Transaction{Kind: types.KindTransfer, To: types.Address{1}, Value: 1, GasLimit: 21000, GasPrice: 1}
	acct.SignNext(tx)
	tx.Sig = acct.WireSig(tx)
	return tx
}

// TestPrimaryRejectsTamperedUpload: an uploaded transaction whose wire
// signature does not verify fails the Primary with an error naming the
// Secondary and the transaction's global index.
func TestPrimaryRejectsTamperedUpload(t *testing.T) {
	addr, done := startPrimary(t)
	tx := signed()
	tx.Sig[0] ^= 0x01
	upload(t, addr, tx, 7)
	primaryError(t, done, "secondary 0: transaction 7: wallet: invalid signature")
}

// TestPrimaryRejectsForeignGlobal: a Secondary may upload only the globals
// of its share of the run.
func TestPrimaryRejectsForeignGlobal(t *testing.T) {
	addr, done := startPrimary(t)
	upload(t, addr, signed(), 100)
	primaryError(t, done, "secondary 0 uploaded transaction 100, which is not in its share")
}

// FuzzRecv feeds arbitrary bytes to a connection's reader. Decoding must
// not panic, and every tx message it accepts must rebuild into a
// transaction whose upload is the same wire message.
func FuzzRecv(f *testing.F) {
	frame := func(m *Message) []byte {
		b, err := json.Marshal(m)
		if err != nil {
			f.Fatal(err)
		}
		return append(b, '\n')
	}
	invoke := signed()
	invoke.Kind, invoke.Data = types.KindInvoke, []byte{1, 2, 3}
	f.Add(frame(&Message{Type: "hello", Location: "tokyo"}))
	f.Add(append(frame(&Message{Type: "tx", Tx: newWireTx(signed(), 3, time.Second)}), frame(&Message{Type: "done"})...))
	f.Add(frame(&Message{Type: "tx", Tx: newWireTx(invoke, 0, 0)}))
	f.Add([]byte(`{"type":"tx","tx":{"from":"AQ==","to":"","sig":null}}` + "\n"))
	f.Add([]byte(`{"type":"tx","tx":{"kind":300}}` + "\n{\n"))
	f.Fuzz(func(t *testing.T, data []byte) {
		a, b := net.Pipe()
		defer a.Close()
		go func() {
			b.Write(data)
			b.Close()
		}()
		c := newConn(a)
		for {
			m, err := c.recv()
			if err != nil {
				return
			}
			if m.Type != "tx" || m.Tx == nil {
				continue
			}
			tx, err := m.Tx.transaction()
			if err != nil {
				continue
			}
			want, _ := json.Marshal(m.Tx)
			got, _ := json.Marshal(newWireTx(tx, m.Tx.Global, time.Duration(m.Tx.AtNs)))
			if !bytes.Equal(got, want) {
				t.Fatalf("upload does not round-trip:\n got %s\nwant %s", got, want)
			}
		}
	})
}
