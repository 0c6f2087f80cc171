// Package collect writes and reads DIABLO result files in the formats the
// paper's artifact uses: a JSON document with per-transaction start and end
// times (optionally gzip-compressed, the Primary's --output/--compress
// flags) and a CSV conversion equivalent to the artifact's csv-results
// script (submission time and latency in seconds, one transaction per
// line).
package collect

import (
	"compress/gzip"
	"encoding/json"
	"fmt"
	"io"
	"strings"

	"diablo/internal/bench"
	"diablo/internal/obs"
	"diablo/internal/simnet"
)

// TxRecord is one transaction's observation in the output JSON.
type TxRecord struct {
	// SubmitS is the submission time in seconds since benchmark start.
	SubmitS float64 `json:"submit_s"`
	// CommitS is the decision time in seconds, or -1 if never committed.
	CommitS float64 `json:"commit_s"`
	// Status is "committed", "pending" or "aborted".
	Status string `json:"status"`
}

// Summary aggregates a run.
type Summary struct {
	Submitted      int     `json:"submitted"`
	Committed      int     `json:"committed"`
	Aborted        int     `json:"aborted"`
	Pending        int     `json:"pending"`
	Dropped        int     `json:"dropped"`
	AvgLoadTPS     float64 `json:"avg_load_tps"`
	ThroughputTPS  float64 `json:"throughput_tps"`
	AvgLatencyS    float64 `json:"avg_latency_s"`
	MedianLatencyS float64 `json:"median_latency_s"`
	P95LatencyS    float64 `json:"p95_latency_s"`
	MaxLatencyS    float64 `json:"max_latency_s"`
	CommitRatio    float64 `json:"commit_ratio"`
	DurationS      float64 `json:"duration_s"`
	Crashed        bool    `json:"crashed"`
	DeployError    string  `json:"deploy_error,omitempty"`
	Blocks         uint64  `json:"blocks"`
	VirtualSeconds float64 `json:"virtual_seconds"`
	WallMillis     int64   `json:"wall_ms"`
	ExecutedTxs    uint64  `json:"executed_txs"`
	ReplayedTxs    uint64  `json:"replayed_txs"`
	// Retries, TimedOut and MsgsLost are emitted even when zero, like every
	// other zero-meaningful counter, so chaos and non-chaos reports diff
	// cleanly field by field.
	Retries         uint64 `json:"retries"`
	TimedOut        int    `json:"timed_out"`
	MsgsLost        uint64 `json:"msgs_lost"`
	SubmittedPerSec []int  `json:"submitted_per_sec"`
	CommittedPerSec []int  `json:"committed_per_sec"`
}

// InvariantViolation is one monitor breach in the output JSON. All
// timestamps are virtual, so equal-seed runs produce identical records.
type InvariantViolation struct {
	Invariant string  `json:"invariant"`
	VTimeS    float64 `json:"vtime_s"`
	Height    uint64  `json:"height,omitempty"`
	Nodes     []int   `json:"nodes,omitempty"`
	Tx        string  `json:"tx,omitempty"`
	Detail    string  `json:"detail"`
}

// InvariantReport summarizes the run's invariant monitoring.
type InvariantReport struct {
	// Checked names the armed invariants; Violations lists the breaches
	// in detection order (empty = the run passed).
	Checked    []string             `json:"checked"`
	Violations []InvariantViolation `json:"violations"`
}

// AdversarySummary reports what a scripted Byzantine adversary did.
type AdversarySummary struct {
	Windows       uint64 `json:"windows"`
	Equivocations uint64 `json:"equivocations"`
	Defended      uint64 `json:"defended"`
	Withheld      uint64 `json:"withheld"`
	Corrupted     uint64 `json:"corrupted"`
	Discarded     uint64 `json:"discarded"`
	Censored      uint64 `json:"censored"`
	Replayed      uint64 `json:"replayed"`
}

// Report is the Primary's aggregated output document.
type Report struct {
	Chain     string    `json:"chain"`
	Config    string    `json:"config"`
	Workloads []string  `json:"workloads"`
	Seed      int64     `json:"seed"`
	Summary   Summary   `json:"summary"`
	Recovery  *Recovery `json:"recovery,omitempty"`
	// Invariants carries the safety/liveness monitor verdict (--invariants
	// or an `invariants:` spec section); Adversary the Byzantine engine's
	// counters (a `byzantine:` spec section).
	Invariants *InvariantReport  `json:"invariants,omitempty"`
	Adversary  *AdversarySummary `json:"adversary,omitempty"`
	// Metrics is the sampled sim-time metrics timeline (--metrics), and
	// LinkTraffic the per-region-pair simnet traffic aggregate.
	Metrics      *obs.Snapshot     `json:"metrics,omitempty"`
	LinkTraffic  []simnet.LinkLine `json:"link_traffic,omitempty"`
	Transactions []TxRecord        `json:"transactions,omitempty"`
}

// FromOutcome converts a bench outcome into a report. includeTxs controls
// whether the (potentially very large) per-transaction list is embedded.
func FromOutcome(out *bench.Outcome, includeTxs bool) *Report {
	rep := &Report{
		Chain:     out.Result.Chain,
		Config:    out.Experiment.Config.Name,
		Workloads: out.Result.Traces,
		Seed:      out.Experiment.Seed,
		Summary: Summary{
			Submitted:       out.Summary.Submitted,
			Committed:       out.Summary.Committed,
			Aborted:         out.Summary.Aborted,
			Pending:         out.Summary.Pending,
			Dropped:         out.Dropped,
			AvgLoadTPS:      out.Summary.AvgLoadTPS,
			ThroughputTPS:   out.Summary.ThroughputTPS,
			AvgLatencyS:     out.Summary.AvgLatency.Seconds(),
			MedianLatencyS:  out.Summary.MedianLatency.Seconds(),
			P95LatencyS:     out.Summary.P95Latency.Seconds(),
			MaxLatencyS:     out.Summary.MaxLatency.Seconds(),
			CommitRatio:     out.Summary.CommitRatio,
			DurationS:       out.Summary.Duration.Seconds(),
			Crashed:         out.Crashed,
			Blocks:          out.Blocks,
			VirtualSeconds:  out.VirtualTime.Seconds(),
			WallMillis:      out.WallTime.Milliseconds(),
			ExecutedTxs:     out.ExecutedTxs,
			ReplayedTxs:     out.ReplayedTxs,
			Retries:         out.Retries,
			TimedOut:        out.TimedOut,
			MsgsLost:        out.MsgsLost,
			SubmittedPerSec: out.SubmittedPerSec.Counts,
			CommittedPerSec: out.CommittedPerSec.Counts,
		},
		Recovery:    RecoveryFrom(out),
		Metrics:     out.Metrics,
		LinkTraffic: out.Links,
	}
	if out.DeployErr != nil {
		rep.Summary.DeployError = out.DeployErr.Error()
	}
	if len(out.InvariantsChecked) > 0 {
		inv := &InvariantReport{
			Checked:    out.InvariantsChecked,
			Violations: make([]InvariantViolation, 0, len(out.Violations)),
		}
		for _, v := range out.Violations {
			rec := InvariantViolation{
				Invariant: v.Invariant,
				VTimeS:    v.VTime.Seconds(),
				Height:    v.Height,
				Nodes:     v.Nodes,
				Detail:    v.Detail,
			}
			if v.HasTx {
				rec.Tx = fmt.Sprintf("%x", v.Tx[:8])
			}
			inv.Violations = append(inv.Violations, rec)
		}
		rep.Invariants = inv
	}
	if out.Adversary != nil {
		rep.Adversary = &AdversarySummary{
			Windows:       out.Adversary.Windows,
			Equivocations: out.Adversary.Equivocations,
			Defended:      out.Adversary.Defended,
			Withheld:      out.Adversary.Withheld,
			Corrupted:     out.Adversary.Corrupted,
			Discarded:     out.Adversary.Discarded,
			Censored:      out.Adversary.Censored,
			Replayed:      out.Adversary.Replayed,
		}
	}
	if includeTxs {
		rep.Transactions = make([]TxRecord, len(out.Records))
		for i, r := range out.Records {
			tx := TxRecord{SubmitS: r.Submit.Seconds(), CommitS: -1, Status: "pending"}
			switch {
			case r.Aborted:
				tx.Status = "aborted"
			case r.Committed():
				tx.Status = "committed"
				tx.CommitS = r.Commit.Seconds()
			}
			rep.Transactions[i] = tx
		}
	}
	return rep
}

// WriteJSON writes the report, gzip-compressed when compress is set (the
// Primary's --compress flag).
func WriteJSON(w io.Writer, rep *Report, compress bool) error {
	if compress {
		gz := gzip.NewWriter(w)
		if err := json.NewEncoder(gz).Encode(rep); err != nil {
			return err
		}
		return gz.Close()
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(rep)
}

// ReadJSON reads a report, transparently handling gzip.
func ReadJSON(r io.Reader) (*Report, error) {
	br := newPeekReader(r)
	head, err := br.peek(2)
	if err != nil {
		return nil, err
	}
	var src io.Reader = br
	if head[0] == 0x1f && head[1] == 0x8b {
		gz, err := gzip.NewReader(br)
		if err != nil {
			return nil, err
		}
		defer gz.Close()
		src = gz
	}
	var rep Report
	if err := json.NewDecoder(src).Decode(&rep); err != nil {
		return nil, fmt.Errorf("collect: decoding report: %w", err)
	}
	return &rep, nil
}

// WriteCSV converts a report to the artifact's CSV layout: one line per
// transaction with its submission time and latency in seconds, ordered by
// submission time.
func WriteCSV(w io.Writer, rep *Report) error {
	if _, err := fmt.Fprintln(w, "chain,workload,submit_s,latency_s,status"); err != nil {
		return err
	}
	workload := strings.Join(rep.Workloads, "+")
	for _, tx := range rep.Transactions {
		lat := -1.0
		if tx.Status == "committed" {
			lat = tx.CommitS - tx.SubmitS
		}
		if _, err := fmt.Fprintf(w, "%s,%s,%.2f,%.2f,%s\n",
			rep.Chain, workload, tx.SubmitS, lat, tx.Status); err != nil {
			return err
		}
	}
	return nil
}

// StatLine renders the artifact's standard-output statistics line (the
// Primary's --stat flag), mirroring the screencast's summary format.
func StatLine(rep *Report) string {
	s := rep.Summary
	return fmt.Sprintf(
		"%s: %d transactions sent, %d committed, %d aborted, %d pending; "+
			"average load %.1f TPS, average throughput %.1f TPS, "+
			"average latency %.1f s, median latency %.1f s",
		rep.Chain, s.Submitted, s.Committed, s.Aborted, s.Pending,
		s.AvgLoadTPS, s.ThroughputTPS, s.AvgLatencyS, s.MedianLatencyS)
}

// peekReader lets ReadJSON sniff the gzip magic without losing bytes.
type peekReader struct {
	r   io.Reader
	buf []byte
}

func newPeekReader(r io.Reader) *peekReader { return &peekReader{r: r} }

func (p *peekReader) peek(n int) ([]byte, error) {
	for len(p.buf) < n {
		tmp := make([]byte, n-len(p.buf))
		m, err := p.r.Read(tmp)
		p.buf = append(p.buf, tmp[:m]...)
		if err != nil {
			return p.buf, err
		}
	}
	return p.buf[:n], nil
}

func (p *peekReader) Read(b []byte) (int, error) {
	if len(p.buf) > 0 {
		n := copy(b, p.buf)
		p.buf = p.buf[n:]
		return n, nil
	}
	return p.r.Read(b)
}
