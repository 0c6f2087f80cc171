package sim

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"math/rand"
	"testing"
	"time"

	"diablo/internal/snapshot"
)

// logProfiler writes every profiler call, in order, to a log.
type logProfiler struct {
	log  *bytes.Buffer
	next uint64
}

func (p *logProfiler) EventScheduled(kind EventKind, now Time) uint64 {
	p.next++
	fmt.Fprintf(p.log, "scheduled %d %s %v\n", p.next, kind, now)
	return p.next
}

func (p *logProfiler) EventCancelled(id uint64) { fmt.Fprintf(p.log, "cancelled %d\n", id) }

func (p *logProfiler) EventRun(id uint64, now Time) { fmt.Fprintf(p.log, "run %d %v\n", id, now) }

func (p *logProfiler) EventDone() { p.log.WriteString("done\n") }

// groupWorld drives one scheduler through a seeded random program:
// multicasts (some nested, some cancelling their own members), single
// events, cancels of earlier events, and storms of far-future timers
// cancelled at once that force compaction, all scheduled from the callbacks
// of earlier events. With grouped set, every multicast and storm is wrapped
// in BeginGroup/EndGroup; otherwise the same events are queued one by one.
// Everything a caller can observe goes to log.
type groupWorld struct {
	s         *Scheduler
	rng       *rand.Rand
	grouped   bool
	budget    int // events the program may still schedule
	storms    int // storms it may still raise
	label     int // label of the next scheduled event
	ids       []EventID
	log       bytes.Buffer
	shrunk    bool // the heap held fewer entries than there were pending events
	compacted bool // the dead count fell from compactMinDead or more to zero in one step
}

// labelled is an AtCall body.
type labelled struct {
	w *groupWorld
	n int
}

func (l *labelled) Run() { l.w.fire(l.n) }

// delay draws from few distinct values, so arrival times often tie.
func (w *groupWorld) delay() time.Duration {
	return time.Duration(w.rng.Intn(6)) * time.Millisecond
}

func (w *groupWorld) schedule(d time.Duration) {
	if w.budget == 0 {
		return
	}
	w.budget--
	n := w.label
	w.label++
	kind := EventKind(w.rng.Intn(int(KindObserver)))
	at := w.s.Now() + d
	var id EventID
	if w.rng.Intn(2) == 0 {
		id = w.s.AtCallKind(kind, at, &labelled{w, n})
	} else {
		id = w.s.AtKind(kind, at, func() { w.fire(n) })
	}
	w.ids = append(w.ids, id)
}

func (w *groupWorld) cancelSome(k int) {
	for ; k > 0 && len(w.ids) > 0; k-- {
		w.ids[w.rng.Intn(len(w.ids))].Cancel()
	}
}

func (w *groupWorld) begin() {
	if w.grouped {
		w.s.BeginGroup()
	}
}

func (w *groupWorld) end() {
	if w.grouped {
		w.s.EndGroup()
	}
}

// multicast schedules up to 23 events, cancelling some of them (or older
// ones) and opening nested multicasts on the way.
func (w *groupWorld) multicast(depth int) {
	w.begin()
	for k := w.rng.Intn(24); k > 0; k-- {
		switch w.rng.Intn(10) {
		case 0:
			w.cancelSome(1)
		case 1:
			if depth < 2 {
				w.multicast(depth + 1)
			}
		default:
			w.schedule(w.delay())
		}
	}
	w.end()
}

func (w *groupWorld) fire(n int) {
	fmt.Fprintf(&w.log, "fire %d at %v\n", n, w.s.Now())
	switch w.rng.Intn(12) {
	case 0, 1, 2, 3:
		w.multicast(0)
	case 4, 5:
		w.schedule(w.delay())
	case 6, 7:
		w.cancelSome(w.rng.Intn(8))
	case 8:
		if w.storms == 0 {
			break
		}
		w.storms--
		w.begin()
		w.budget += 200
		start := len(w.ids)
		for k := 0; k < 200; k++ {
			w.schedule(time.Hour + w.delay())
		}
		for _, id := range w.ids[start:] {
			id.Cancel()
		}
		w.end()
	}
}

// snap logs a hash of the scheduler's checkpoint section.
func (w *groupWorld) snap() {
	e := snapshot.NewEncoder()
	w.s.SnapshotState(e)
	fmt.Fprintf(&w.log, "snapshot %x\n", sha256.Sum256(e.Payload()))
}

func runGroupWorld(seed int64, grouped bool) *groupWorld {
	w := &groupWorld{s: NewScheduler(seed), rng: rand.New(rand.NewSource(seed)), grouped: grouped, budget: 2000, storms: 4}
	w.s.SetProfiler(&logProfiler{log: &w.log})
	w.s.EveryObserver(7*time.Millisecond, w.snap)
	tick := w.s.Every(5*time.Millisecond, func() { fmt.Fprintf(&w.log, "tick at %v\n", w.s.Now()) })
	for i := 0; i < 8; i++ {
		w.multicast(0)
	}
	for step := 0; step < 50_000; step++ {
		if step == 300 {
			tick.Stop()
		}
		dead := w.s.Stats().Dead
		ok := true
		if w.rng.Intn(8) == 0 {
			w.s.RunUntil(w.s.Now() + w.delay())
		} else {
			ok = w.s.Step()
		}
		st := w.s.Stats()
		w.shrunk = w.shrunk || len(w.s.heap) < w.s.Pending()
		w.compacted = w.compacted || (dead >= compactMinDead && st.Dead == 0)
		fmt.Fprintf(&w.log, "step %d %v now %v executed %d pending %d %+v\n",
			step, ok, w.s.Now(), w.s.Executed(), w.s.Pending(), st)
		w.snap()
		if step > 300 && st.Live == 0 {
			break // nothing left but the observer ticker
		}
	}
	return w
}

// TestGroupMatchesIndividualEvents is the equivalence argument for
// multicast groups as a test: seeded random programs, run grouped and
// ungrouped, must run the same events in the same order, agree after every
// step on the clock, Executed(), Pending(), Stats() and the bytes of the
// checkpoint section, and make the same profiler calls in the same order.
func TestGroupMatchesIndividualEvents(t *testing.T) {
	compacted := false
	for seed := int64(1); seed <= 24; seed++ {
		plain, grouped := runGroupWorld(seed, false), runGroupWorld(seed, true)
		if !grouped.shrunk {
			t.Fatalf("seed %d: no multicast was ever queued as one entry", seed)
		}
		compacted = compacted || plain.compacted
		a, b := plain.log.Bytes(), grouped.log.Bytes()
		if bytes.Equal(a, b) {
			continue
		}
		la, lb := bytes.Split(a, []byte("\n")), bytes.Split(b, []byte("\n"))
		for i := range la {
			if i >= len(lb) || !bytes.Equal(la[i], lb[i]) {
				t.Fatalf("seed %d: line %d differs:\nungrouped %s\ngrouped   %s", seed, i+1, la[i], lb[i])
			}
		}
		t.Fatalf("seed %d: grouped log is longer (%d vs %d bytes)", seed, len(b), len(a))
	}
	if !compacted {
		t.Fatal("no program compacted the queue")
	}
}

// TestGroupNestingAndEdgeCases covers what the random programs rarely
// reach: an empty group, nested groups that queue only at the outermost
// EndGroup, a one-member group, and an unbalanced EndGroup.
func TestGroupNestingAndEdgeCases(t *testing.T) {
	s := NewScheduler(1)
	s.BeginGroup()
	s.EndGroup()
	if s.Pending() != 0 || len(s.heap) != 0 {
		t.Fatalf("empty group queued something: pending %d, heap %d", s.Pending(), len(s.heap))
	}
	var order []int
	s.BeginGroup()
	s.At(3*time.Millisecond, func() { order = append(order, 3) })
	s.BeginGroup()
	s.At(time.Millisecond, func() { order = append(order, 1) })
	s.EndGroup()
	if len(s.heap) != 0 {
		t.Fatal("the inner EndGroup queued the open group")
	}
	s.At(2*time.Millisecond, func() { order = append(order, 2) })
	s.EndGroup()
	if len(s.heap) != 1 || s.Pending() != 3 {
		t.Fatalf("heap %d, pending %d: want 1 entry for 3 events", len(s.heap), s.Pending())
	}
	s.BeginGroup()
	s.At(time.Millisecond, func() { order = append(order, 0) })
	s.EndGroup()
	s.Run()
	if fmt.Sprint(order) != "[1 0 2 3]" {
		t.Fatalf("order %v, want [1 0 2 3]", order)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("EndGroup without BeginGroup did not panic")
		}
	}()
	s.EndGroup()
}
