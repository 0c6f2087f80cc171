package sim

import (
	"cmp"
	"slices"
)

// A multicast — one node's vote to 199 peers — schedules one event per
// recipient. Queued one by one, every in-flight copy sits in the heap, and
// with 200 nodes voting all-to-all each push and pop sifts through tens of
// thousands of entries. A group queues a multicast as one heap entry
// instead: its members are kept in (at, seq) order and only the earliest
// pending one is in the heap; taking it re-keys the entry by the next
// member. The heap then merges sorted runs, and a k-way merge of
// (at, seq)-sorted runs yields the global (at, seq) order, so grouping moves
// no event: the execution order, seqs, kinds, profiler calls, Pending, Stats
// and the checkpoint queue digest are what they would be with every member
// queued on its own.

// groups is the scheduler's multicast bookkeeping.
type groups struct {
	depth int       // BeginGroup calls not yet closed
	open  []int32   // slots scheduled since the outermost BeginGroup, in seq order
	slots []group   // queued groups; slot 0 stays unused, so event.grp == 0 means "queued alone"
	free  []int32   // recycled group slots
	bufs  [][]int32 // recycled member buffers
	keys  []uint64  // EndGroup's sort scratch
}

// group is one queued multicast: its members in (at, seq) order, of which
// members[next] is the one in the heap.
type group struct {
	members []int32
	next    int
}

// BeginGroup opens a multicast group. Until the matching EndGroup, events
// are scheduled exactly as usual — each reserves its seq, is announced to
// the profiler, counts in Pending and Stats and can be cancelled — but are
// collected instead of pushed, and EndGroup queues them as one heap entry.
// Step runs the members one at a time as ordinary events, so a group
// changes what the heap holds and nothing a caller can observe. Groups
// nest: the outermost EndGroup queues everything scheduled since the
// outermost BeginGroup. The event loop must not run while a group is open.
//
//perf:noalloc
func (s *Scheduler) BeginGroup() { s.groups.depth++ }

// EndGroup closes the group opened by the matching BeginGroup.
//
//perf:noalloc
func (s *Scheduler) EndGroup() {
	g := &s.groups
	if g.depth == 0 {
		panicUnbalanced()
	}
	if g.depth--; g.depth > 0 || len(g.open) == 0 {
		return
	}
	if len(g.open) == 1 {
		s.heapPush(g.open[0])
		g.open = g.open[:0]
		return
	}
	slot := g.slot()
	members := s.sortOpen(g.takeBuf())
	for _, idx := range members {
		s.slab[idx].grp = slot
	}
	g.slots[slot] = group{members: members}
	g.open = g.open[:0]
	s.heapPush(members[0])
}

// panicUnbalanced reports an EndGroup without a BeginGroup: a caller's bug.
// Kept out of line so the boxing of its message stays out of EndGroup.
//
//go:noinline
func panicUnbalanced() { panic("sim: EndGroup without BeginGroup") }

// Packed sort keys are (at − earliest) << posBits | position in the group.
const (
	posBits   = 16
	posMask   = 1<<posBits - 1
	maxSpread = 1<<(64-posBits) - 1
)

// sortOpen appends the open group's members to buf in (at, seq) order.
// They were scheduled in seq order, so a stable sort by arrival time is
// that order: it sorts packed integer keys, the position last so equal
// times keep their order, and skips the sort when arrivals already rise. A
// group too large or spread too wide to pack takes a comparison sort.
//
//perf:noalloc
func (s *Scheduler) sortOpen(buf []int32) []int32 {
	g := &s.groups
	open := g.open
	buf = append(buf, open...)
	first := s.slab[open[0]].at
	prev, lo, hi, sorted := first, first, first, true
	for _, idx := range open[1:] {
		at := s.slab[idx].at
		sorted = sorted && at >= prev
		lo, hi, prev = min(lo, at), max(hi, at), at
	}
	if sorted {
		return buf
	}
	if len(open) > posMask+1 || uint64(hi-lo) > maxSpread {
		sortByAt(s.slab, buf)
		return buf
	}
	keys := g.keys[:0]
	for i, idx := range open {
		keys = append(keys, uint64(s.slab[idx].at-lo)<<posBits|uint64(i))
	}
	slices.Sort(keys)
	for i, k := range keys {
		buf[i] = open[k&posMask]
	}
	g.keys = keys
	return buf
}

// sortByAt is sortOpen's comparison sort.
func sortByAt(slab []event, members []int32) {
	slices.SortStableFunc(members, func(a, b int32) int { return cmp.Compare(slab[a].at, slab[b].at) })
}

// slot returns a free group slot.
//
//perf:noalloc
func (g *groups) slot() int32 {
	if n := len(g.free); n > 0 {
		slot := g.free[n-1]
		g.free = g.free[:n-1]
		return slot
	}
	if len(g.slots) == 0 {
		g.slots = append(g.slots, group{}) // slot 0: "queued alone"
	}
	g.slots = append(g.slots, group{})
	return int32(len(g.slots) - 1)
}

// takeBuf returns an empty member buffer, a recycled one when there is one.
//
//perf:noalloc
func (g *groups) takeBuf() []int32 {
	n := len(g.bufs)
	if n == 0 {
		return nil
	}
	buf := g.bufs[n-1]
	g.bufs = g.bufs[:n-1]
	return buf
}

// drop retires a drained group and recycles its slot and member buffer.
//
//perf:noalloc
func (g *groups) drop(slot int32) {
	gr := &g.slots[slot]
	g.bufs = append(g.bufs, gr.members[:0])
	*gr = group{}
	g.free = append(g.free, slot)
}

// pop removes the earliest pending event from the queue and returns its
// slab slot. The heap entry of a group is re-keyed by the group's next
// member instead of removed, until the group drains.
//
//perf:noalloc
func (s *Scheduler) pop() int32 {
	idx := s.heap[0]
	s.npend--
	if slot := s.slab[idx].grp; slot != 0 {
		gr := &s.groups.slots[slot]
		if gr.next++; gr.next < len(gr.members) {
			s.heap[0] = gr.members[gr.next]
			s.siftDown(0)
			return idx
		}
		s.groups.drop(slot)
	}
	s.heapPop()
	return idx
}

// sweep appends the live slots of src to dst, which may share src's
// backing array, and releases the dead ones.
//
//perf:noalloc
func (s *Scheduler) sweep(dst, src []int32) []int32 {
	for _, idx := range src {
		if s.slab[idx].dead {
			s.release(idx)
			continue
		}
		dst = append(dst, idx)
	}
	return dst
}
