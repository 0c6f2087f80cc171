package remote

import (
	"errors"
	"fmt"
	"net"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"diablo/internal/spec"
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

// runDistributed spins up a primary and n secondaries over localhost TCP.
// The secondaries start first, so their dials may be refused until the
// primary listens.
func runDistributed(t *testing.T, benchSrc string, secondaries int) (*PrimaryResult, []*SecondaryStats) {
	t.Helper()
	setup, err := spec.ParseSetup("blockchain: quorum\nconfiguration: devnet\nnode-scale: 2")
	if err != nil {
		t.Fatal(err)
	}
	benchmark, err := spec.ParseBenchmark(benchSrc)
	if err != nil {
		t.Fatal(err)
	}
	addr := freePort(t)

	var wg sync.WaitGroup
	secStats := make([]*SecondaryStats, secondaries)
	secErrs := make([]error, secondaries)
	for i := 0; i < secondaries; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			st, err := RunSecondary(SecondaryConfig{
				Primary:  addr,
				Location: fmt.Sprintf("zone-%d", i),
			})
			secStats[i], secErrs[i] = st, err
		}()
	}

	res, err := RunPrimary(PrimaryConfig{
		Listen:        addr,
		Secondaries:   secondaries,
		Setup:         setup,
		Benchmark:     benchmark,
		BenchmarkYAML: benchSrc,
	})
	if err != nil {
		t.Fatalf("primary: %v", err)
	}
	wg.Wait()
	for i, err := range secErrs {
		if err != nil {
			t.Fatalf("secondary %d: %v", i, err)
		}
	}
	return res, secStats
}

func TestDistributedDAppBenchmark(t *testing.T) {
	res, secStats := runDistributed(t, benchYAML, 3)
	// 2 clients x 5 TPS x 10s = 100 transactions.
	if res.Summary.Submitted != 100 {
		t.Fatalf("submitted = %d, want 100", res.Summary.Submitted)
	}
	if res.Summary.Committed != 100 {
		t.Fatalf("committed = %d/100 (dropped %d)", res.Summary.Committed, res.Dropped)
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
	if len(res.Stats) != 3 {
		t.Fatalf("primary collected %d stats", len(res.Stats))
	}
}

func TestDistributedTransferBenchmark(t *testing.T) {
	res, _ := runDistributed(t, transferYAML, 2)
	if res.Summary.Submitted != 100 {
		t.Fatalf("submitted = %d", res.Summary.Submitted)
	}
	if res.Summary.Committed != 100 {
		t.Fatalf("committed = %d (dropped %d)", res.Summary.Committed, res.Dropped)
	}
	if res.Summary.AvgLatency <= 0 {
		t.Fatal("no latency")
	}
}

func TestPrimaryRejectsZeroSecondaries(t *testing.T) {
	_, err := RunPrimary(PrimaryConfig{Secondaries: 0})
	if err == nil {
		t.Fatal("zero secondaries accepted")
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
	setup, err := spec.ParseSetup("blockchain: quorum\nconfiguration: devnet\nnode-scale: 2")
	if err != nil {
		t.Fatal(err)
	}
	benchmark, err := spec.ParseBenchmark(transferYAML)
	if err != nil {
		t.Fatal(err)
	}
	addr := freePort(t)
	done := make(chan error, 1)
	go func() {
		_, err := RunPrimary(PrimaryConfig{
			Listen: addr, Secondaries: 1,
			Setup: setup, Benchmark: benchmark, BenchmarkYAML: transferYAML,
		})
		done <- err
	}()
	return addr, done
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

func TestParseAddress(t *testing.T) {
	a, err := parseAddress("0x0102030405060708090a0b0c0d0e0f1011121314")
	if err != nil {
		t.Fatal(err)
	}
	if a[0] != 1 || a[19] != 0x14 {
		t.Fatalf("address = %v", a)
	}
	for _, bad := range []string{"", "0x12", "1234", "0xzz02030405060708090a0b0c0d0e0f1011121314"} {
		if _, err := parseAddress(bad); err == nil {
			t.Errorf("parseAddress(%q) succeeded", bad)
		}
	}
}

// TestDistributedAVMChain runs a DApp benchmark against the Algorand
// deployment over TCP: the pre-signed calldata built by Secondaries must
// invoke the AVM-compiled application correctly (the selector+args word
// encoding is shared across VM families).
func TestDistributedAVMChain(t *testing.T) {
	setup, err := spec.ParseSetup("blockchain: algorand\nconfiguration: devnet\nnode-scale: 2")
	if err != nil {
		t.Fatal(err)
	}
	benchmark, err := spec.ParseBenchmark(benchYAML)
	if err != nil {
		t.Fatal(err)
	}
	addr := freePort(t)
	var wg sync.WaitGroup
	var secErr error
	wg.Add(1)
	go func() {
		defer wg.Done()
		_, secErr = RunSecondary(SecondaryConfig{Primary: addr, Location: "tokyo"})
	}()
	res, err := RunPrimary(PrimaryConfig{
		Listen: addr, Secondaries: 1,
		Setup: setup, Benchmark: benchmark, BenchmarkYAML: benchYAML,
	})
	if err != nil {
		t.Fatalf("primary: %v", err)
	}
	wg.Wait()
	if secErr != nil {
		t.Fatalf("secondary: %v", secErr)
	}
	if res.Summary.Committed != res.Summary.Submitted || res.Summary.Submitted != 100 {
		t.Fatalf("committed %d/%d on the AVM chain", res.Summary.Committed, res.Summary.Submitted)
	}
	if res.Aborted != 0 {
		t.Fatalf("%d aborted executions on the AVM chain", res.Aborted)
	}
}
