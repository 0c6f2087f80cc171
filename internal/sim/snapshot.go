package sim

import (
	"math/rand"
	"sort"

	"diablo/internal/snapshot"
)

// CountingSource wraps a rand.Source64 and counts draws. It delegates both
// Int63 and Uint64 unchanged, so the random stream is exactly the one the
// bare source would produce — wrapping changes no seeded run — while the
// draw position becomes observable for checkpoint digests: two runs whose
// RNGs are at the same position have consumed identical randomness.
type CountingSource struct {
	src rand.Source64
	n   uint64
}

// NewCountingSource wraps the standard source for seed.
func NewCountingSource(seed int64) *CountingSource {
	return &CountingSource{src: rand.NewSource(seed).(rand.Source64)}
}

// Int63 implements rand.Source.
func (c *CountingSource) Int63() int64 {
	c.n++
	return c.src.Int63()
}

// Uint64 implements rand.Source64.
func (c *CountingSource) Uint64() uint64 {
	c.n++
	return c.src.Uint64()
}

// Seed implements rand.Source and resets the draw count.
func (c *CountingSource) Seed(seed int64) {
	c.src.Seed(seed)
	c.n = 0
}

// Draws reports how many values have been drawn since the last seed.
func (c *CountingSource) Draws() uint64 { return c.n }

// SnapshotState implements snapshot.Stater: clock, event-loop counters,
// RNG position, and a digest over the live event queue. Pending events —
// every member of a queued or open multicast group included — are
// summarized as sorted (at, seq, kind) triples — the closures themselves
// cannot be serialized, but two deterministic runs at the same virtual time
// with identical histories have identical (at, seq, kind) sets. Folding in
// the registered event kind catches the case (at, seq) alone cannot: two
// runs scheduling *different* work under the same timestamp and sequence
// number reconcile as divergent instead of matching.
func (s *Scheduler) SnapshotState(e *snapshot.Encoder) {
	e.Dur("now", s.now)
	e.U64("seq", s.seq)
	e.U64("executed", s.nexec)
	e.U64("obs_executed", s.obsExec)
	e.U64("rand_draws", s.rngSrc.Draws())
	st := s.Stats()
	e.U64("live", uint64(st.Live))
	e.U64("dead", uint64(st.Dead))

	type pending struct {
		at   Time
		seq  uint64
		kind EventKind
	}
	live := make([]pending, 0, s.npend)
	add := func(slots []int32) {
		for _, idx := range slots {
			if ev := &s.slab[idx]; !ev.dead {
				live = append(live, pending{ev.at, ev.seq, ev.kind})
			}
		}
	}
	for i, idx := range s.heap {
		if slot := s.slab[idx].grp; slot != 0 {
			gr := &s.groups.slots[slot]
			add(gr.members[gr.next:])
		} else {
			add(s.heap[i : i+1])
		}
	}
	add(s.groups.open)
	sort.Slice(live, func(i, j int) bool {
		if live[i].at != live[j].at {
			return live[i].at < live[j].at
		}
		return live[i].seq < live[j].seq
	})
	h := snapshot.NewHash()
	for _, p := range live {
		h.Dur(p.at)
		h.U64(p.seq)
		h.U64(uint64(p.kind))
	}
	e.U64("queue_digest", h.Sum())
}
