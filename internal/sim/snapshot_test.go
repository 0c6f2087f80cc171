package sim

import (
	"strings"
	"testing"
	"time"

	"diablo/internal/snapshot"
)

// TestObserverTickerInvisibleToStats is the zero-perturbation contract of
// EveryObserver: arming an observer ticker changes neither Executed() nor
// Stats().Live at any point a regular event can observe them.
func TestObserverTickerInvisibleToStats(t *testing.T) {
	type probe struct {
		executed uint64
		live     int
	}
	run := func(observe bool) []probe {
		s := NewScheduler(1)
		var got []probe
		for i := 1; i <= 10; i++ {
			at := time.Duration(i) * 300 * time.Millisecond
			s.At(at, func() {
				got = append(got, probe{s.Executed(), s.Stats().Live})
			})
		}
		if observe {
			s.EveryObserver(250*time.Millisecond, func() {})
		}
		s.RunUntil(3 * time.Second)
		return got
	}
	plain, observed := run(false), run(true)
	if len(plain) != 10 || len(observed) != 10 {
		t.Fatalf("probes: %d and %d, want 10", len(plain), len(observed))
	}
	for i := range plain {
		if plain[i] != observed[i] {
			t.Fatalf("probe %d: %+v without observer, %+v with", i, plain[i], observed[i])
		}
	}
}

func TestObserverTickerStopAccounting(t *testing.T) {
	s := NewScheduler(1)
	fired := 0
	tk := s.EveryObserver(time.Second, func() { fired++ })
	s.RunFor(3500 * time.Millisecond)
	if fired != 3 {
		t.Fatalf("fired %d, want 3", fired)
	}
	tk.Stop()
	if live := s.Stats().Live; live != 0 {
		t.Fatalf("stopped observer still counted: Live=%d", live)
	}
	if s.Executed() != 0 {
		t.Fatalf("observer firings leaked into Executed(): %d", s.Executed())
	}
	s.RunFor(5 * time.Second)
	if fired != 3 {
		t.Fatalf("stopped ticker fired again: %d", fired)
	}
}

// TestSchedulerSnapshotReconciles runs two identical schedulers to the
// same virtual time and cross-reconciles their state sections.
func TestSchedulerSnapshotReconciles(t *testing.T) {
	build := func() *Scheduler {
		s := NewScheduler(42)
		var rearm func(d time.Duration)
		rearm = func(d time.Duration) {
			if d > 4*time.Second {
				return
			}
			s.After(d, func() {
				_ = s.Rand().Intn(100)
				rearm(d + 500*time.Millisecond)
			})
		}
		rearm(100 * time.Millisecond)
		s.RunUntil(2 * time.Second)
		return s
	}
	a, b := build(), build()
	e := snapshot.NewEncoder()
	a.SnapshotState(e)
	dec, err := snapshot.NewDecoder(e.Payload())
	if err != nil {
		t.Fatal(err)
	}
	if err := snapshot.Reconcile(b, dec); err != nil {
		t.Fatalf("identical schedulers did not reconcile: %v", err)
	}

	// A scheduler with one extra RNG draw must fail on rand_draws.
	c := build()
	_ = c.Rand().Intn(2)
	e2 := snapshot.NewEncoder()
	c.SnapshotState(e2)
	dec2, err := snapshot.NewDecoder(e2.Payload())
	if err != nil {
		t.Fatal(err)
	}
	if err := snapshot.Reconcile(a, dec2); err == nil {
		t.Fatal("diverged RNG position reconciled cleanly")
	}
}

// TestQueueDigestDistinguishesKinds is the queue-digest hardening
// contract: two schedulers whose pending queues agree on every (at, seq)
// pair but disagree on what *kind* of work is scheduled must reconcile as
// divergent. Before kinds were folded into the digest, a resumed run that
// scheduled a different closure under the same timestamp and sequence
// number matched silently.
func TestQueueDigestDistinguishesKinds(t *testing.T) {
	build := func(kind EventKind) *Scheduler {
		s := NewScheduler(7)
		s.AtKind(kind, time.Second, func() {})
		return s
	}
	a := build(KindDelivery)
	b := build(KindConsensus)

	e := snapshot.NewEncoder()
	a.SnapshotState(e)
	dec, err := snapshot.NewDecoder(e.Payload())
	if err != nil {
		t.Fatal(err)
	}
	err = snapshot.Reconcile(b, dec)
	if err == nil {
		t.Fatal("queues with different event kinds at the same (at, seq) reconciled cleanly")
	}
	if !strings.Contains(err.Error(), "queue_digest") {
		t.Fatalf("divergence blamed on %v, want queue_digest", err)
	}

	// Same kinds still reconcile.
	c := build(KindDelivery)
	e2 := snapshot.NewEncoder()
	a.SnapshotState(e2)
	dec2, err := snapshot.NewDecoder(e2.Payload())
	if err != nil {
		t.Fatal(err)
	}
	if err := snapshot.Reconcile(c, dec2); err != nil {
		t.Fatalf("identical tagged queues did not reconcile: %v", err)
	}
}
