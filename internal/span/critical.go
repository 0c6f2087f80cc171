package span

import (
	"sort"
	"time"
)

// Anchor labels: the point spans critical-path extraction hangs causal
// trees on. Instrumented by the chain harness and its clients.
const (
	LabelSubmit = "client.submit"
	LabelAdmit  = "mempool.admit"
	LabelCommit = "client.commit"
	LabelBlock  = "chain.block"
)

// Subsystem returns a label's subsystem: the prefix before the first dot
// ("net.deliver" → "net"). Critical-path contributions aggregate by it.
func Subsystem(label string) string {
	for i := 0; i < len(label); i++ {
		if label[i] == '.' {
			return label[:i]
		}
	}
	return label
}

// Contribution is one hop of a critical path: the time this span kept the
// chain waiting, attributed to its subsystem.
type Contribution struct {
	Label     string
	Subsystem string
	Node      int32
	Dur       time.Duration
}

// CriticalPath walks the anchor's parent chain backward to floor and
// attributes consecutive end-time deltas. In the causal model a child
// event's span starts exactly when its parent ran (the wait is the span),
// so the deltas partition [floor, anchor.End] — contributions sum to
// anchor.End - floor with zero residual, by construction. The returned
// path is leaf-first (the anchor's own hop leads).
func (f *File) CriticalPath(anchor Span, floor time.Duration) []Contribution {
	var path []Contribution
	remaining := anchor.End - floor
	if remaining < 0 {
		remaining = 0
	}
	cur := anchor
	for {
		parent, ok := f.Lookup(cur.Parent)
		base := floor
		atFloor := true
		if ok && cur.Parent != 0 && parent.End > floor {
			base, atFloor = parent.End, false
		}
		delta := cur.End - base
		if delta < 0 {
			delta = 0
		}
		if delta > remaining {
			delta = remaining
		}
		path = append(path, Contribution{
			Label:     cur.Label,
			Subsystem: Subsystem(cur.Label),
			Node:      cur.Node,
			Dur:       delta,
		})
		remaining -= delta
		if atFloor || remaining <= 0 {
			// Causal chain shorter than the window: fold the remainder
			// into the oldest hop so the sum stays exact.
			if remaining > 0 {
				path[len(path)-1].Dur += remaining
			}
			return path
		}
		cur = parent
	}
}

// TxPath is one committed transaction's critical path.
type TxPath struct {
	Tx      string
	Submit  time.Duration
	Commit  time.Duration
	Latency time.Duration
	Path    []Contribution
}

// TxPaths extracts the critical path of every committed transaction: from
// its first "client.commit" anchor backward to its first "client.submit"
// time. Paths come out in submission order.
func (f *File) TxPaths() []TxPath {
	type anchors struct {
		submit time.Duration
		commit int // index into f.Spans, -1 = not committed
		hasSub bool
	}
	seen := make(map[string]*anchors)
	var order []string
	for i, s := range f.Spans {
		if s.Tx == "" {
			continue
		}
		a := seen[s.Tx]
		if a == nil {
			a = &anchors{commit: -1}
			seen[s.Tx] = a
			order = append(order, s.Tx)
		}
		switch s.Label {
		case LabelSubmit:
			if !a.hasSub {
				a.submit, a.hasSub = s.End, true
			}
		case LabelCommit:
			if a.commit < 0 {
				a.commit = i
			}
		}
	}
	var out []TxPath
	for _, tx := range order {
		a := seen[tx]
		if !a.hasSub || a.commit < 0 {
			continue
		}
		anchor := f.Spans[a.commit]
		out = append(out, TxPath{
			Tx:      tx,
			Submit:  a.submit,
			Commit:  anchor.End,
			Latency: anchor.End - a.submit,
			Path:    f.CriticalPath(anchor, a.submit),
		})
	}
	return out
}

// BlockPath is one block's critical path: from its assembly anchor back
// to the previous block's (the inter-block causal chain).
type BlockPath struct {
	Block    uint64
	At       time.Duration
	Interval time.Duration
	Path     []Contribution
}

// BlockPaths extracts per-block critical paths from the "chain.block"
// anchors, in chain order.
func (f *File) BlockPaths() []BlockPath {
	var out []BlockPath
	prev := time.Duration(0)
	for _, s := range f.Spans {
		if s.Label != LabelBlock {
			continue
		}
		out = append(out, BlockPath{
			Block:    s.Block,
			At:       s.End,
			Interval: s.End - prev,
			Path:     f.CriticalPath(s, prev),
		})
		prev = s.End
	}
	return out
}

// SubsystemShare is one subsystem's aggregate critical-path contribution.
type SubsystemShare struct {
	Subsystem string
	Dur       time.Duration
	Frac      float64
}

// aggregate folds contributions by subsystem, largest share first (name
// order on ties, so output is deterministic).
func aggregate(paths [][]Contribution) []SubsystemShare {
	sums := make(map[string]time.Duration)
	var total time.Duration
	for _, p := range paths {
		for _, c := range p {
			sums[c.Subsystem] += c.Dur
			total += c.Dur
		}
	}
	names := make([]string, 0, len(sums))
	for n := range sums {
		names = append(names, n)
	}
	sort.Strings(names)
	out := make([]SubsystemShare, 0, len(names))
	for _, n := range names {
		sh := SubsystemShare{Subsystem: n, Dur: sums[n]}
		if total > 0 {
			sh.Frac = float64(sums[n]) / float64(total)
		}
		out = append(out, sh)
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].Dur > out[j].Dur })
	return out
}

// Analysis is the digest `diablo-report spans` renders: aggregate
// critical-path attribution over every committed transaction and block,
// and the slowest transaction's full path.
type Analysis struct {
	Chain     string           `json:"chain"`
	Seed      int64            `json:"seed"`
	Spans     int              `json:"spans"`
	Txs       int              `json:"txs"`
	Blocks    int              `json:"blocks"`
	TxShares  []SubsystemShare `json:"tx_shares"`
	BlkShares []SubsystemShare `json:"block_shares"`
	Slowest   *TxPath          `json:"slowest_tx,omitempty"`
}

// Analyze computes the standard report over a parsed span file.
func Analyze(f *File) *Analysis {
	txs := f.TxPaths()
	blocks := f.BlockPaths()
	a := &Analysis{
		Chain:  f.Chain,
		Seed:   f.Seed,
		Spans:  len(f.Spans),
		Txs:    len(txs),
		Blocks: len(blocks),
	}
	txPaths := make([][]Contribution, len(txs))
	for i := range txs {
		txPaths[i] = txs[i].Path
		if a.Slowest == nil || txs[i].Latency > a.Slowest.Latency {
			a.Slowest = &txs[i]
		}
	}
	a.TxShares = aggregate(txPaths)
	blkPaths := make([][]Contribution, len(blocks))
	for i := range blocks {
		blkPaths[i] = blocks[i].Path
	}
	a.BlkShares = aggregate(blkPaths)
	return a
}
