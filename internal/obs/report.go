package obs

import (
	"bufio"
	"compress/gzip"
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"time"
)

// TxSpan is one transaction's reconstructed lifecycle. Phase timestamps
// are -1 until the corresponding event is seen.
type TxSpan struct {
	ID       string
	Node     int
	Submit   time.Duration
	Admit    time.Duration
	Include  time.Duration
	Commit   time.Duration
	Block    uint64
	Attempts int // send attempts observed
	Rejects  int // reject events observed (any reason)
	TimedOut bool
}

// Committed reports whether the span reached a client-observed decision.
func (s *TxSpan) Committed() bool { return s.Commit >= 0 }

// BlockInfo is one block event.
type BlockInfo struct {
	At       time.Duration
	Number   uint64
	Txs      int
	GasUsed  uint64
	GasLimit uint64
	Fill     float64
	Assemble time.Duration
	Validate time.Duration
	Proposer int
}

// Sample is one registry sampling tick.
type Sample struct {
	At   time.Duration
	Vals []float64
}

// FaultNote is one chaos fault or byzantine behavior transition.
type FaultNote struct {
	At    time.Duration
	Phase string
	Note  string
}

// Violation is one invariant breach an invariant monitor reported.
type Violation struct {
	At        time.Duration
	Invariant string
	Height    uint64
	Nodes     []int
	Detail    string
}

// Trace is a fully parsed trace file.
type Trace struct {
	Chain       string
	Seed        int64
	Interval    time.Duration
	MetricNames []string

	Events  int
	Spans   map[string]*TxSpan
	Order   []string // tx ids in first-seen order
	Blocks  map[uint64]*BlockInfo
	Samples []Sample
	Faults  []FaultNote
	// Byzantine holds the adversary's transitions; Violations the
	// invariant monitors' findings.
	Byzantine  []FaultNote
	Violations []Violation

	// Terminal classification of every span.
	Submitted, Committed, Rejected, TimedOut, Pending int
	Retries                                           int
}

// rawEvent is the union of every line shape, for decoding.
type rawEvent struct {
	T          int64     `json:"t"`
	Kind       string    `json:"kind"`
	Tx         string    `json:"tx"`
	Node       int       `json:"node"`
	Attempt    int       `json:"attempt"`
	Note       string    `json:"note"`
	Block      uint64    `json:"block"`
	Txs        int       `json:"txs"`
	GasUsed    uint64    `json:"gas_used"`
	GasLimit   uint64    `json:"gas_limit"`
	Fill       float64   `json:"fill"`
	AssembleNS int64     `json:"assemble_ns"`
	ValidateNS int64     `json:"validate_ns"`
	Proposer   int       `json:"proposer"`
	Phase      string    `json:"phase"`
	Vals       []float64 `json:"vals"`
	Chain      string    `json:"chain"`
	Seed       int64     `json:"seed"`
	IntervalNS int64     `json:"interval_ns"`
	Metrics    []string  `json:"metrics"`
	Invariant  string    `json:"invariant"`
	Height     uint64    `json:"height"`
	Nodes      []int     `json:"nodes"`
	Detail     string    `json:"detail"`
}

// ReadTrace parses (and schema-validates) a JSONL trace, transparently
// handling gzip. Unknown event kinds, malformed lines and tx events with
// bad ids are errors.
func ReadTrace(r io.Reader) (*Trace, error) {
	br := bufio.NewReader(r)
	if head, err := br.Peek(2); err == nil && head[0] == 0x1f && head[1] == 0x8b {
		gz, err := gzip.NewReader(br)
		if err != nil {
			return nil, err
		}
		defer gz.Close()
		br = bufio.NewReader(gz)
	}
	tr := &Trace{
		Spans:  make(map[string]*TxSpan),
		Blocks: make(map[uint64]*BlockInfo),
	}
	sc := bufio.NewScanner(br)
	sc.Buffer(make([]byte, 0, 1<<16), 1<<22)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := sc.Bytes()
		if len(line) == 0 {
			continue
		}
		var ev rawEvent
		if err := json.Unmarshal(line, &ev); err != nil {
			return nil, fmt.Errorf("obs: trace line %d: %w", lineNo, err)
		}
		if err := tr.apply(&ev, lineNo); err != nil {
			return nil, err
		}
		tr.Events++
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("obs: reading trace: %w", err)
	}
	tr.classify()
	return tr, nil
}

// span returns (creating as needed) the span for a tx id.
func (tr *Trace) span(id string, lineNo int) (*TxSpan, error) {
	if len(id) != 16 {
		return nil, fmt.Errorf("obs: trace line %d: bad tx id %q", lineNo, id)
	}
	s, ok := tr.Spans[id]
	if !ok {
		s = &TxSpan{ID: id, Submit: -1, Admit: -1, Include: -1, Commit: -1}
		tr.Spans[id] = s
		tr.Order = append(tr.Order, id)
	}
	return s, nil
}

func (tr *Trace) apply(ev *rawEvent, lineNo int) error {
	at := time.Duration(ev.T)
	switch ev.Kind {
	case KindMeta:
		tr.Chain = ev.Chain
		tr.Seed = ev.Seed
		tr.Interval = time.Duration(ev.IntervalNS)
		tr.MetricNames = ev.Metrics
	case KindSubmit:
		s, err := tr.span(ev.Tx, lineNo)
		if err != nil {
			return err
		}
		if s.Submit < 0 {
			s.Submit = at
			s.Node = ev.Node
		}
	case KindSend:
		s, err := tr.span(ev.Tx, lineNo)
		if err != nil {
			return err
		}
		s.Attempts++
	case KindAdmit:
		s, err := tr.span(ev.Tx, lineNo)
		if err != nil {
			return err
		}
		if s.Admit < 0 {
			s.Admit = at
		}
	case KindReject:
		s, err := tr.span(ev.Tx, lineNo)
		if err != nil {
			return err
		}
		s.Rejects++
	case KindInclude:
		s, err := tr.span(ev.Tx, lineNo)
		if err != nil {
			return err
		}
		if s.Include < 0 {
			s.Include = at
			s.Block = ev.Block
		}
	case KindCommit:
		s, err := tr.span(ev.Tx, lineNo)
		if err != nil {
			return err
		}
		if s.Commit < 0 {
			s.Commit = at
		}
	case KindRetry:
		if _, err := tr.span(ev.Tx, lineNo); err != nil {
			return err
		}
		tr.Retries++
	case KindTimeout:
		s, err := tr.span(ev.Tx, lineNo)
		if err != nil {
			return err
		}
		s.TimedOut = true
	case KindBlock:
		tr.Blocks[ev.Block] = &BlockInfo{
			At:       at,
			Number:   ev.Block,
			Txs:      ev.Txs,
			GasUsed:  ev.GasUsed,
			GasLimit: ev.GasLimit,
			Fill:     ev.Fill,
			Assemble: time.Duration(ev.AssembleNS),
			Validate: time.Duration(ev.ValidateNS),
			Proposer: ev.Proposer,
		}
	case KindFault:
		tr.Faults = append(tr.Faults, FaultNote{At: at, Phase: ev.Phase, Note: ev.Note})
	case KindSample:
		tr.Samples = append(tr.Samples, Sample{At: at, Vals: ev.Vals})
	case KindByzantine:
		tr.Byzantine = append(tr.Byzantine, FaultNote{At: at, Phase: ev.Phase, Note: ev.Note})
	case KindViolation:
		tr.Violations = append(tr.Violations, Violation{
			At: at, Invariant: ev.Invariant, Height: ev.Height, Nodes: ev.Nodes, Detail: ev.Detail,
		})
	default:
		return fmt.Errorf("obs: trace line %d: unknown kind %q", lineNo, ev.Kind)
	}
	return nil
}

// classify assigns every span a terminal state: committed wins, then
// timeout, then rejection; anything else is pending.
func (tr *Trace) classify() {
	tr.Submitted = len(tr.Spans)
	for _, id := range tr.Order {
		s := tr.Spans[id]
		switch {
		case s.Committed():
			tr.Committed++
		case s.TimedOut:
			tr.TimedOut++
		case s.Rejects > 0:
			tr.Rejected++
		default:
			tr.Pending++
		}
	}
}

// Component is one latency component's aggregate over committed spans.
type Component struct {
	Name   string        `json:"name"`
	Median time.Duration `json:"median_ns"`
	P95    time.Duration `json:"p95_ns"`
	Mean   time.Duration `json:"mean_ns"`
	Share  float64       `json:"share"` // of total committed latency
}

// Attribution breaks committed-transaction latency into components:
//
//	network   — submission to mempool admission (client overhead, RPC, retries)
//	mempool   — admission to block inclusion (queueing for block space)
//	execution — the including block's assembly cost (capped by the post-
//	            inclusion wait, for engines that overlap dissemination)
//	consensus — inclusion to the client-observed decision, minus execution
//	            (proposal, voting, dissemination, confirmation depth)
//
// The components of each transaction sum to its total latency by
// construction, so the residual is only non-zero for spans with missing
// events.
type Attribution struct {
	Chain      string      `json:"chain"`
	Committed  int         `json:"committed"`
	Total      Component   `json:"total"`
	Components []Component `json:"components"`
	// MeanResidualShare and MaxResidualShare report the unattributed
	// fraction of per-transaction latency (acceptance: max < 0.05).
	MeanResidualShare float64 `json:"mean_residual_share"`
	MaxResidualShare  float64 `json:"max_residual_share"`
}

// Attribute computes the latency breakdown of every committed span.
func Attribute(tr *Trace) *Attribution {
	att := &Attribution{Chain: tr.Chain}
	var totals, nets, pools, execs, conss []time.Duration
	var sumResidual, maxResidual float64
	for _, id := range tr.Order {
		s := tr.Spans[id]
		if !s.Committed() || s.Submit < 0 {
			continue
		}
		total := s.Commit - s.Submit
		if total <= 0 {
			continue
		}
		admit, include := s.Admit, s.Include
		if admit < 0 {
			admit = s.Submit
		}
		if include < 0 {
			include = s.Commit
		}
		network := admit - s.Submit
		pool := include - admit
		post := s.Commit - include
		var exec time.Duration
		if b := tr.Blocks[s.Block]; b != nil && s.Include >= 0 {
			exec = b.Assemble
			if exec > post {
				exec = post
			}
		}
		cons := post - exec
		residual := total - network - pool - exec - cons
		share := float64(residual) / float64(total)
		if share < 0 {
			share = -share
		}
		sumResidual += share
		if share > maxResidual {
			maxResidual = share
		}
		totals = append(totals, total)
		nets = append(nets, network)
		pools = append(pools, pool)
		execs = append(execs, exec)
		conss = append(conss, cons)
	}
	att.Committed = len(totals)
	if att.Committed == 0 {
		return att
	}
	att.MeanResidualShare = sumResidual / float64(att.Committed)
	att.MaxResidualShare = maxResidual
	totalSum := sum(totals)
	att.Total = component("total", totals, totalSum)
	att.Total.Share = 1
	att.Components = []Component{
		component("network", nets, totalSum),
		component("mempool", pools, totalSum),
		component("consensus", conss, totalSum),
		component("execution", execs, totalSum),
	}
	return att
}

func sum(ds []time.Duration) time.Duration {
	var s time.Duration
	for _, d := range ds {
		s += d
	}
	return s
}

func component(name string, ds []time.Duration, totalSum time.Duration) Component {
	sorted := make([]time.Duration, len(ds))
	copy(sorted, ds)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	s := sum(ds)
	c := Component{
		Name:   name,
		Median: quantile(sorted, 0.5),
		P95:    quantile(sorted, 0.95),
		Mean:   s / time.Duration(len(ds)),
	}
	if totalSum > 0 {
		c.Share = float64(s) / float64(totalSum)
	}
	return c
}

// quantile returns the q-quantile of a sorted slice (nearest rank).
func quantile(sorted []time.Duration, q float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	i := int(q * float64(len(sorted)-1))
	return sorted[i]
}
