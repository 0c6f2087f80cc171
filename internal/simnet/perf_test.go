package simnet

import (
	"testing"
	"time"

	"diablo/internal/sim"
)

// TestSimnetSendAllocs pins the hot path's allocation behaviour: once the
// envelope pool and link matrix are warm, a send+deliver cycle must not
// allocate. The payload is pre-boxed so the assertion measures the network
// stack, not interface conversion of the caller's value.
func TestSimnetSendAllocs(t *testing.T) {
	s := sim.NewScheduler(1)
	net := New(s)
	a := net.AddNode(Ohio)
	b := net.AddNode(Tokyo)
	b.SetHandler(func(m Message) {})
	var payload any = "blk"
	for i := 0; i < 64; i++ { // warm the envelope pool and scheduler slab
		net.Send(a.ID, b.ID, 100, payload)
	}
	s.Run()
	allocs := testing.AllocsPerRun(1000, func() {
		net.Send(a.ID, b.ID, 100, payload)
		s.Run()
	})
	if allocs > 0 {
		t.Fatalf("steady-state send+deliver allocates %.1f objects/op, want 0", allocs)
	}
}

// TestSimnetSendAllocsWithStats re-runs the steady-state allocation
// assertion with the per-region traffic matrix installed: link accounting
// is two array increments behind one branch and must stay free.
func TestSimnetSendAllocsWithStats(t *testing.T) {
	s := sim.NewScheduler(1)
	net := New(s)
	net.SetLinkStats(&LinkStats{})
	a := net.AddNode(Ohio)
	b := net.AddNode(Tokyo)
	b.SetHandler(func(m Message) {})
	var payload any = "blk"
	for i := 0; i < 64; i++ {
		net.Send(a.ID, b.ID, 100, payload)
	}
	s.Run()
	allocs := testing.AllocsPerRun(1000, func() {
		net.Send(a.ID, b.ID, 100, payload)
		s.Run()
	})
	if allocs > 0 {
		t.Fatalf("send+deliver with link stats allocates %.1f objects/op, want 0", allocs)
	}
	if len(net.linkStats.Lines()) == 0 {
		t.Fatal("no traffic recorded in the link matrix")
	}
}

// TestBroadcastAllocs pins the multicast path: once the envelope pool, the
// scheduler slab and the group buffers are warm, two 200-node broadcasts in
// flight together and their 398 deliveries allocate nothing, 0 per
// recipient.
func TestBroadcastAllocs(t *testing.T) {
	s := sim.NewScheduler(1)
	net := New(s)
	for _, r := range PlaceEvenly(200, AllRegions()) {
		net.AddNode(r).SetHandler(func(Message) {})
	}
	var payload any = "vote"
	for i := 0; i < 8; i++ { // warm the pools with more broadcasts in flight than below
		net.Broadcast(NodeID(i), 100, payload)
	}
	s.Run()
	allocs := testing.AllocsPerRun(100, func() {
		net.Broadcast(3, 100, payload)
		net.Broadcast(150, 100, payload)
		s.Run()
	})
	if allocs > 0 {
		t.Fatalf("two warm 200-node broadcasts allocate %.1f objects, want 0", allocs)
	}
}

// TestFaultEpochInvalidation guards the per-link fault cache: editing,
// re-editing and clearing faults must take effect on the very next send,
// not only on links that have never cached a (nil) fault.
func TestFaultEpochInvalidation(t *testing.T) {
	s := sim.NewScheduler(1)
	net := New(s)
	a := net.AddNode(Ohio)
	b := net.AddNode(Tokyo)
	var arrivals []time.Duration
	b.SetHandler(func(m Message) { arrivals = append(arrivals, s.Now()) })

	base := net.Latency(a.ID, b.ID)
	send := func() time.Duration {
		arrivals = arrivals[:0]
		at := s.Now()
		net.Send(a.ID, b.ID, 0, nil)
		s.Run()
		return arrivals[0] - at
	}

	if d := send(); d != base {
		t.Fatalf("healthy link delay = %v, want %v", d, base)
	}
	net.EditLinkFault(Ohio, Tokyo, func(f *LinkFault) { f.ExtraDelay = 100 * time.Millisecond })
	if d := send(); d != base+100*time.Millisecond {
		t.Fatalf("after edit, delay = %v, want %v", d, base+100*time.Millisecond)
	}
	net.EditLinkFault(Ohio, Tokyo, func(f *LinkFault) { f.ExtraDelay = 200 * time.Millisecond })
	if d := send(); d != base+200*time.Millisecond {
		t.Fatalf("after re-edit, delay = %v, want %v", d, base+200*time.Millisecond)
	}
	net.ClearLinkFaults()
	if d := send(); d != base {
		t.Fatalf("after clear, delay = %v, want %v", d, base)
	}
	net.EditAllLinksFault(func(f *LinkFault) { f.ExtraDelay = 50 * time.Millisecond })
	if d := send(); d != base+50*time.Millisecond {
		t.Fatalf("after all-links edit, delay = %v, want %v", d, base+50*time.Millisecond)
	}
	net.ClearLinkFaults()
}

// BenchmarkSimnetSend measures the single-link send+deliver cycle, the
// per-message cost every consensus round pays.
func BenchmarkSimnetSend(b *testing.B) {
	s := sim.NewScheduler(1)
	net := New(s)
	src := net.AddNode(Ohio)
	dst := net.AddNode(Tokyo)
	dst.SetHandler(func(m Message) {})
	var payload any = "msg"
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		net.Send(src.ID, dst.ID, 100, payload)
		if i%64 == 63 {
			s.Run()
		}
	}
	s.Run()
	b.ReportMetric(float64(net.Delivered)/b.Elapsed().Seconds(), "msgs/sec")
}
