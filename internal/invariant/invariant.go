// Package invariant implements the continuous safety/liveness monitors
// that referee every (adversarial or benign) run: agreement (no two
// correct nodes commit different blocks at the same height), validity
// (every committed transaction was submitted through a node's RPC),
// integrity (no transaction commits twice), and eventual inclusion (every
// admitted transaction commits within a bounded virtual-time horizon).
// The monitors hook the chain harness's admit/include/commit paths, run
// entirely in virtual time, and report violations with the exact vtime,
// height and nodes involved — turning silent safety violations into
// precise, machine-checkable failures for the `diablo run --invariants`
// gate.
package invariant

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"diablo/internal/obs"
	"diablo/internal/snapshot"
	"diablo/internal/types"
)

// Names of the monitored invariants, in report order.
var Names = []string{"agreement", "validity", "integrity", "inclusion"}

// Violation is one detected invariant breach.
type Violation struct {
	// Invariant names the violated property (one of Names).
	Invariant string
	// VTime is the virtual time of detection.
	VTime time.Duration
	// Height is the block height involved (0 for inclusion violations).
	Height uint64
	// Nodes lists the nodes involved: the diverging pair for agreement,
	// the admitting node for tx-level violations.
	Nodes []int
	// Tx identifies the transaction involved (tx-level violations only).
	Tx types.Hash
	// HasTx reports whether Tx is meaningful.
	HasTx bool
	// Detail is a human-readable description.
	Detail string
}

// String renders the violation the way the CLI gate reports it.
func (v Violation) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "invariant %q violated at %v", v.Invariant, v.VTime)
	if v.Height > 0 {
		fmt.Fprintf(&b, " height %d", v.Height)
	}
	if len(v.Nodes) > 0 {
		nums := make([]string, len(v.Nodes))
		for i, n := range v.Nodes {
			nums[i] = fmt.Sprint(n)
		}
		fmt.Fprintf(&b, " nodes %s", strings.Join(nums, ","))
	}
	if v.Detail != "" {
		fmt.Fprintf(&b, ": %s", v.Detail)
	}
	return b.String()
}

// admitRec remembers a transaction's admission for the validity and
// inclusion monitors.
type admitRec struct {
	node int
	at   time.Duration
}

// commitRec remembers the first commit observed at a height for the
// agreement monitor.
type commitRec struct {
	hash types.Hash
	node int
}

// Monitor checks the four invariants continuously. All hooks are safe on
// a nil receiver (they do nothing), which is the disabled fast path.
type Monitor struct {
	// horizon bounds eventual inclusion: an admitted transaction older
	// than this at Finalize that never reached a block is a liveness
	// violation. Zero disarms the inclusion monitor.
	horizon time.Duration

	admitted  map[types.Hash]admitRec
	included  map[types.Hash]uint64
	canonical map[uint64]commitRec
	flagged   map[uint64]bool //lint:allow snapshotdrift violation dedup set; monitor findings are reporting output, not replay state

	violations []Violation

	// admitSeq and includeSeq fold hook order into the state digest, so a
	// resumed run must replay the exact observation sequence.
	admitSeq, includeSeq, commitSeq uint64

	tracer  *obs.Tracer
	counter *obs.Counter
}

// NewMonitor returns a monitor with the given eventual-inclusion horizon
// (zero disarms the inclusion check; the safety monitors are always on).
func NewMonitor(horizon time.Duration) *Monitor {
	return &Monitor{
		horizon:   horizon,
		admitted:  make(map[types.Hash]admitRec),
		included:  make(map[types.Hash]uint64),
		canonical: make(map[uint64]commitRec),
		flagged:   make(map[uint64]bool),
	}
}

// Instrument attaches a lifecycle tracer (violation events) and a registry
// counter of violations. Either argument may be nil.
func (m *Monitor) Instrument(tr *obs.Tracer, reg *obs.Registry) {
	if m == nil {
		return
	}
	m.tracer = tr
	m.counter = reg.Counter("invariant.violations")
}

// Checked returns the names of the armed invariants.
func (m *Monitor) Checked() []string {
	if m == nil {
		return nil
	}
	if m.horizon > 0 {
		return Names
	}
	return Names[:3]
}

// Horizon returns the eventual-inclusion bound (zero = disarmed).
func (m *Monitor) Horizon() time.Duration {
	if m == nil {
		return 0
	}
	return m.horizon
}

// Violations returns the detected violations in detection order
// (inclusion violations, detected at Finalize, come last, ordered by
// admission time then transaction id).
func (m *Monitor) Violations() []Violation {
	if m == nil {
		return nil
	}
	return m.violations
}

func (m *Monitor) report(v Violation) {
	m.violations = append(m.violations, v)
	m.counter.Inc()
	m.tracer.Violation(v.VTime, v.Invariant, v.Height, v.Nodes, v.Detail)
}

// OnAdmit records a transaction entering the network through node's pool.
func (m *Monitor) OnAdmit(id types.Hash, node int, now time.Duration) {
	if m == nil {
		return
	}
	m.admitSeq++
	if _, ok := m.admitted[id]; !ok {
		m.admitted[id] = admitRec{node: node, at: now}
	}
}

// OnInclude checks validity (the transaction was previously admitted) and
// integrity (it was never included before) as a proposer packs it into
// the block at the given height.
func (m *Monitor) OnInclude(id types.Hash, height uint64, now time.Duration) {
	if m == nil {
		return
	}
	m.includeSeq++
	rec, admitted := m.admitted[id]
	if !admitted {
		m.report(Violation{
			Invariant: "validity",
			VTime:     now,
			Height:    height,
			Tx:        id,
			HasTx:     true,
			Detail:    "committed transaction was never submitted",
		})
	}
	if prev, dup := m.included[id]; dup {
		m.report(Violation{
			Invariant: "integrity",
			VTime:     now,
			Height:    height,
			Nodes:     []int{rec.node},
			Tx:        id,
			HasTx:     true,
			Detail:    fmt.Sprintf("transaction already committed at height %d", prev),
		})
		return
	}
	m.included[id] = height
}

// OnCommit checks agreement as node observes the block at height commit
// with the given hash: the first observation fixes the canonical hash,
// and any later node reporting a different hash at the same height is a
// safety violation (reported once per height).
func (m *Monitor) OnCommit(node int, height uint64, hash types.Hash, now time.Duration) {
	if m == nil {
		return
	}
	m.commitSeq++
	first, ok := m.canonical[height]
	if !ok {
		m.canonical[height] = commitRec{hash: hash, node: node}
		return
	}
	if first.hash != hash && !m.flagged[height] {
		m.flagged[height] = true
		m.report(Violation{
			Invariant: "agreement",
			VTime:     now,
			Height:    height,
			Nodes:     []int{first.node, node},
			Detail: fmt.Sprintf("node %d committed %x, node %d committed %x",
				first.node, first.hash[:8], node, hash[:8]),
		})
	}
}

// Finalize runs the eventual-inclusion check at the end of the run: every
// admitted transaction that never reached a block and is older than the
// horizon is a liveness violation. Violations are reported in admission
// order (ties broken by transaction id) so the report is deterministic.
func (m *Monitor) Finalize(now time.Duration) {
	if m == nil || m.horizon <= 0 {
		return
	}
	type late struct {
		id  types.Hash
		rec admitRec
	}
	var ids []types.Hash
	for id := range m.admitted {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return string(ids[i][:]) < string(ids[j][:]) })
	var stuck []late
	for _, id := range ids {
		rec := m.admitted[id]
		if _, ok := m.included[id]; ok {
			continue
		}
		if now-rec.at > m.horizon {
			stuck = append(stuck, late{id: id, rec: rec})
		}
	}
	sort.SliceStable(stuck, func(i, j int) bool { return stuck[i].rec.at < stuck[j].rec.at })
	for _, s := range stuck {
		m.report(Violation{
			Invariant: "inclusion",
			VTime:     now,
			Nodes:     []int{s.rec.node},
			Tx:        s.id,
			HasTx:     true,
			Detail: fmt.Sprintf("admitted at %v, still uncommitted after %v horizon",
				s.rec.at, m.horizon),
		})
	}
}

// SnapshotState implements snapshot.Stater: violation and observation
// counts plus an order-independent digest of the tracked sets, so a
// resumed run must reproduce the exact monitor state.
func (m *Monitor) SnapshotState(e *snapshot.Encoder) {
	e.U64("violations", uint64(len(m.violations)))
	e.U64("admitted", uint64(len(m.admitted)))
	e.U64("included", uint64(len(m.included)))
	e.U64("heights", uint64(len(m.canonical)))
	e.U64("admit_seq", m.admitSeq)
	e.U64("include_seq", m.includeSeq)
	e.U64("commit_seq", m.commitSeq)
	admitIDs := sortedHashKeys(m.admitted)
	ah := snapshot.NewHash()
	for _, id := range admitIDs {
		rec := m.admitted[id]
		ah.Bytes(id[:])
		ah.I64(int64(rec.node))
		ah.Dur(rec.at)
	}
	var includeIDs []types.Hash
	for id := range m.included {
		includeIDs = append(includeIDs, id)
	}
	sort.Slice(includeIDs, func(i, j int) bool { return string(includeIDs[i][:]) < string(includeIDs[j][:]) })
	ih := snapshot.NewHash()
	for _, id := range includeIDs {
		ih.Bytes(id[:])
		ih.U64(m.included[id])
	}
	var heights []uint64
	for h := range m.canonical {
		heights = append(heights, h)
	}
	sort.Slice(heights, func(i, j int) bool { return heights[i] < heights[j] })
	ch := snapshot.NewHash()
	for _, height := range heights {
		rec := m.canonical[height]
		ch.U64(height)
		ch.Bytes(rec.hash[:])
		ch.I64(int64(rec.node))
	}
	e.U64("admit_digest", ah.Sum())
	e.U64("include_digest", ih.Sum())
	e.U64("commit_digest", ch.Sum())
	vh := snapshot.NewHash()
	for _, v := range m.violations {
		vh.Str(v.Invariant)
		vh.Dur(v.VTime)
		vh.U64(v.Height)
		vh.Ints(v.Nodes)
		vh.Str(v.Detail)
	}
	e.U64("violation_digest", vh.Sum())
}

// sortedHashKeys returns the map's keys in byte order, so digest and
// report loops never depend on map iteration order.
func sortedHashKeys(m map[types.Hash]admitRec) []types.Hash {
	keys := make([]types.Hash, 0, len(m))
	for id := range m {
		keys = append(keys, id)
	}
	sort.Slice(keys, func(i, j int) bool { return string(keys[i][:]) < string(keys[j][:]) })
	return keys
}
