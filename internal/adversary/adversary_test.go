package adversary

import (
	"strings"
	"testing"
	"time"

	"diablo/internal/sim"
	"diablo/internal/snapshot"
	"diablo/internal/yamlite"
)

func parseByzantine(t *testing.T, src string) *Schedule {
	t.Helper()
	root, err := yamlite.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	b, ok := root.Get("byzantine")
	if !ok {
		t.Fatal("no byzantine section")
	}
	s, err := ParseEvents(b)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestParseEvents(t *testing.T) {
	s := parseByzantine(t, `
byzantine:
  - equivocate: {node: 0, at: 20s, for: 20s, victims: "2,3"}
  - withhold-votes: {node: 1, at: 50s, for: 10s}
  - corrupt-payload: {node: 2, at: 65s, for: 10s}
  - censor: {node: 0, clients: "1-2", at: 80s, for: 10s}
  - replay: {node: 3, at: 95}
`)
	if len(s.Events) != 5 {
		t.Fatalf("parsed %d events, want 5", len(s.Events))
	}
	eq := s.Events[0]
	if eq.Kind != Equivocate || eq.Node != 0 || eq.At != 20*time.Second ||
		eq.For != 20*time.Second || len(eq.Victims) != 2 || eq.Victims[0] != 2 || eq.Victims[1] != 3 {
		t.Fatalf("equivocate parsed as %+v", eq)
	}
	cz := s.Events[3]
	if cz.Kind != Censor || cz.ClientLo != 1 || cz.ClientHi != 2 {
		t.Fatalf("censor parsed as %+v", cz)
	}
	// Bare-seconds duration and zero For (open-ended window).
	rp := s.Events[4]
	if rp.Kind != Replay || rp.At != 95*time.Second || rp.For != 0 {
		t.Fatalf("replay parsed as %+v", rp)
	}
	if err := s.Validate(4); err != nil {
		t.Fatal(err)
	}
}

func TestParseEventsRejectsMalformed(t *testing.T) {
	for _, tc := range []struct{ src, want string }{
		{"byzantine:\n  - dither: {node: 0, at: 1s}\n", "unknown behavior kind"},
		{"byzantine:\n  - equivocate: {at: 1s}\n", "missing `node:`"},
		{"byzantine:\n  - equivocate: {node: 0}\n", "missing `at:`"},
		{"byzantine:\n  - censor: {node: 0, at: 1s}\n", "missing `clients:`"},
		{"byzantine:\n  - equivocate: {node: 0, at: soon}\n", "bad at"},
	} {
		root, err := yamlite.Parse(tc.src)
		if err != nil {
			t.Fatal(err)
		}
		b, _ := root.Get("byzantine")
		if _, err := ParseEvents(b); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("ParseEvents(%q) = %v, want error containing %q", tc.src, err, tc.want)
		}
	}
}

func TestValidateRejectsOutOfRange(t *testing.T) {
	for _, tc := range []struct {
		e    Event
		want string
	}{
		{Event{Kind: Equivocate, Node: 4, At: time.Second}, "node 4 out of range"},
		{Event{Kind: Equivocate, Node: 0, At: -time.Second}, "negative time"},
		{Event{Kind: Equivocate, Node: 0, At: time.Second, For: -time.Second}, "negative duration"},
		{Event{Kind: Equivocate, Node: 0, At: time.Second, Victims: []int{7}}, "victim 7 out of range"},
		{Event{Kind: Censor, Node: 0, At: time.Second, ClientLo: 2, ClientHi: 1}, "client range 2-1 invalid"},
		{Event{Kind: Kind(99), Node: 0, At: time.Second}, "unknown behavior kind"},
	} {
		err := NewSchedule(tc.e).Validate(4)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("Validate(%+v) = %v, want error containing %q", tc.e, err, tc.want)
		}
	}
	if err := NewSchedule().Validate(4); err != nil {
		t.Fatalf("empty schedule rejected: %v", err)
	}
}

func TestCheckSupport(t *testing.T) {
	s := NewSchedule(
		Event{Kind: Equivocate, Node: 0, At: time.Second},
		Event{Kind: Replay, Node: 1, At: 2 * time.Second},
	)
	if err := s.CheckSupport([]Kind{Equivocate, WithholdVotes, CorruptPayload, Censor, Replay}, "ibft"); err != nil {
		t.Fatalf("fully supported schedule rejected: %v", err)
	}
	err := s.CheckSupport([]Kind{Censor}, "clique")
	want := "adversary: clique does not support byzantine behavior(s) equivocate, replay"
	if err == nil || err.Error() != want {
		t.Fatalf("CheckSupport = %q, want %q", err, want)
	}
	if err := s.CheckSupport(nil, "raft"); err == nil {
		t.Fatal("CFT engine accepted a byzantine schedule")
	}
}

// TestEngineWindowToggling drives scripted windows through a real
// scheduler and checks the hook points see exactly the scripted
// activity, including overlapping windows on one node.
func TestEngineWindowToggling(t *testing.T) {
	sched := sim.NewScheduler(1)
	s := NewSchedule(
		Event{Kind: Equivocate, Node: 0, At: 10 * time.Second, For: 20 * time.Second, Victims: []int{2, 3}},
		Event{Kind: Equivocate, Node: 0, At: 15 * time.Second, For: 5 * time.Second}, // overlaps the first
		Event{Kind: WithholdVotes, Node: 1, At: 20 * time.Second, For: 10 * time.Second},
		Event{Kind: Censor, Node: 2, At: 25 * time.Second, ClientLo: 1, ClientHi: 3}, // open-ended
	)
	if err := s.Validate(4); err != nil {
		t.Fatal(err)
	}
	eng := Install(sched, 4, s)

	type probe struct {
		at          time.Duration
		equivocate  bool
		withholding bool
		censoring   bool
	}
	var got []probe
	for _, at := range []time.Duration{5 * time.Second, 12 * time.Second, 17 * time.Second,
		22 * time.Second, 29 * time.Second, 31 * time.Second, 100 * time.Second} {
		at := at
		sched.At(at, func() {
			_, _, cz := eng.Censoring(2)
			got = append(got, probe{
				at:          at,
				equivocate:  eng.Equivocating(0),
				withholding: eng.active[WithholdVotes][1] > 0,
				censoring:   cz,
			})
		})
	}
	sched.Run()

	want := []probe{
		{5 * time.Second, false, false, false},
		{12 * time.Second, true, false, false},
		{17 * time.Second, true, false, false}, // both equivocate windows open
		{22 * time.Second, true, true, false},
		{29 * time.Second, true, true, true},
		{31 * time.Second, false, false, true},  // equivocate and withhold windows over
		{100 * time.Second, false, false, true}, // open-ended censor never closes
	}
	for i, w := range want {
		if got[i] != w {
			t.Errorf("probe %d: got %+v, want %+v", i, got[i], w)
		}
	}
	// 4 applies + 3 clears (the open-ended censor never clears).
	if eng.Applied != 7 {
		t.Errorf("Applied = %d, want 7", eng.Applied)
	}
	if lo, hi, ok := eng.Censoring(2); !ok || lo != 1 || hi != 3 {
		t.Errorf("Censoring(2) = %d-%d %v, want 1-3 true", lo, hi, ok)
	}
}

func TestVictimsDefaultUpperHalf(t *testing.T) {
	sched := sim.NewScheduler(1)
	eng := Install(sched, 6, NewSchedule())
	got := eng.VictimsOf(0)
	if len(got) != 3 || got[0] != 3 || got[1] != 4 || got[2] != 5 {
		t.Fatalf("VictimsOf default = %v, want [3 4 5]", got)
	}
	eng.victims[0] = []int{1}
	if got := eng.VictimsOf(0); len(got) != 1 || got[0] != 1 {
		t.Fatalf("VictimsOf scripted = %v, want [1]", got)
	}
}

func TestReplayRequiresPriorSend(t *testing.T) {
	sched := sim.NewScheduler(1)
	s := NewSchedule(Event{Kind: Replay, Node: 0, At: 0})
	if err := s.Validate(2); err != nil {
		t.Fatal(err)
	}
	eng := Install(sched, 2, s)
	sched.At(time.Second, func() {
		if _, _, ok := eng.ReplayOutbound(0); ok {
			t.Error("replayed before any outbound message was recorded")
		}
		eng.RecordOutbound(0, 42, "msg-a")
		if payload, size, ok := eng.ReplayOutbound(0); !ok || size != 42 || payload != "msg-a" {
			t.Errorf("ReplayOutbound = %v %d %v, want msg-a 42 true", payload, size, ok)
		}
		if _, _, ok := eng.ReplayOutbound(1); ok {
			t.Error("node outside the replay window replayed")
		}
	})
	sched.Run()
	if eng.Replayed != 1 {
		t.Errorf("Replayed = %d, want 1", eng.Replayed)
	}
}

// TestSnapshotDigestDeterministic captures the same engine state twice
// and requires identical payload bytes — the property checkpoint
// verification is built on.
func TestSnapshotDigestDeterministic(t *testing.T) {
	build := func() *Engine {
		sched := sim.NewScheduler(1)
		s := NewSchedule(
			Event{Kind: Equivocate, Node: 0, At: time.Second, For: time.Minute, Victims: []int{2}},
			Event{Kind: Censor, Node: 1, At: 2 * time.Second, ClientLo: 0, ClientHi: 1},
		)
		if err := s.Validate(3); err != nil {
			t.Fatal(err)
		}
		eng := Install(sched, 3, s)
		sched.At(3*time.Second, func() {
			eng.RecordOutbound(0, 7, nil)
			eng.NoteEquivocation(0)
			eng.NoteCensored()
		})
		sched.Run()
		return eng
	}
	capture := func(eng *Engine) []byte {
		e := snapshot.NewEncoder()
		eng.SnapshotState(e)
		return e.Payload()
	}
	a, b := capture(build()), capture(build())
	if string(a) != string(b) {
		t.Fatal("equal engine states produced different snapshot payloads")
	}
	// A state difference must change the digest.
	eng := build()
	eng.RecordOutbound(1, 9, nil)
	if string(capture(eng)) == string(a) {
		t.Fatal("different replay state produced an identical snapshot payload")
	}
}
