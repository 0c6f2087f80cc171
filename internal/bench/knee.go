package bench

import (
	"fmt"
	"time"

	"diablo/internal/configs"
	"diablo/internal/workloads"
)

// KneeOptions configures the closed-loop capacity search: a binary search
// over constant-rate probes for the highest TPS a chain sustains. This is
// the central question Gromit poses — a system's maximum *sustainable*
// throughput, as opposed to replaying a fixed-rate grid and reading the
// plateau off afterwards.
type KneeOptions struct {
	// Chain and Config locate the deployment (see configs.ByName).
	Chain  string
	Config *configs.Config
	// Lo and Hi bracket the search in TPS. Lo must be sustainable for the
	// search to refine; if Hi is sustainable the bracket was too small and
	// Hi is reported as the (clipped) knee.
	Lo, Hi float64
	// Iterations is the number of bisection steps after the bracket probes.
	Iterations int
	// Probe is each probe's constant-load length; Tail extends observation
	// so backlogged commits are measured (default 120s).
	Probe time.Duration
	Tail  time.Duration
	// Seed and ScaleNodes pass through to the experiment.
	Seed       int64
	ScaleNodes int

	// Stopping rules. A probe is unsustainable when the cluster crashed,
	// the commit ratio fell below MinCommitRatio, p95 commit latency
	// exceeded MaxP95, or the mempool backlog grew faster than
	// MaxBacklogFrac of the offered rate over the second half of the
	// probe window (the queue never reaches steady state). The backlog
	// rule tolerates one extra second's worth of load across the window —
	// block-cadence jitter in the in-flight count, not real queue growth.
	MaxP95         time.Duration // default 10s
	MinCommitRatio float64       // default 0.95
	MaxBacklogFrac float64       // default 0.05
}

// KneeProbe is one probe's verdict.
type KneeProbe struct {
	TPS         float64
	Sustainable bool
	// Reason names the violated stopping rule ("ok" when sustainable).
	Reason        string
	Throughput    float64
	P95           time.Duration
	CommitRatio   float64
	BacklogPerSec float64
	Crashed       bool
}

// KneeResult is the capacity report for one chain.
type KneeResult struct {
	Chain  string
	Config string
	// Knee is the highest sustainable TPS found; Ceiling is the lowest
	// unsustainable TPS probed (the knee lies between them).
	Knee    float64
	Ceiling float64
	// Clipped reports a bracket failure: the knee lies outside [Lo, Hi].
	Clipped bool
	Probes  []KneeProbe
}

func (o *KneeOptions) defaults() {
	if o.Lo <= 0 {
		o.Lo = 100
	}
	if o.Hi <= o.Lo {
		o.Hi = o.Lo * 100
	}
	if o.Iterations <= 0 {
		o.Iterations = 6
	}
	if o.Probe <= 0 {
		o.Probe = 30 * time.Second
	}
	if o.Tail <= 0 {
		o.Tail = 120 * time.Second
	}
	if o.MaxP95 <= 0 {
		o.MaxP95 = 10 * time.Second
	}
	if o.MinCommitRatio <= 0 {
		o.MinCommitRatio = 0.95
	}
	if o.MaxBacklogFrac <= 0 {
		o.MaxBacklogFrac = 0.05
	}
}

// FindKnee binary-searches the chain's maximum sustainable TPS. Every
// probe is a fully isolated deterministic run (same seed), so the whole
// search replays bit-identically.
func FindKnee(o KneeOptions) (*KneeResult, error) {
	o.defaults()
	if o.Config == nil {
		return nil, fmt.Errorf("bench: knee search needs a configuration")
	}
	res := &KneeResult{Chain: o.Chain, Config: o.Config.Name, Ceiling: o.Hi}

	probe := func(tps float64) (KneeProbe, error) {
		out, err := Run(Experiment{
			Chain:      o.Chain,
			Config:     o.Config,
			Traces:     []*workloads.Trace{workloads.NativeConstant(tps, o.Probe)},
			Seed:       o.Seed,
			Tail:       o.Tail,
			ScaleNodes: o.ScaleNodes,
		})
		if err != nil {
			return KneeProbe{}, err
		}
		p := KneeProbe{
			TPS:         tps,
			Throughput:  out.Summary.ThroughputTPS,
			P95:         out.Summary.P95Latency,
			CommitRatio: out.Summary.CommitRatio,
			Crashed:     out.Crashed,
		}
		p.BacklogPerSec = backlogSlope(out, o.Probe)
		// The slope is measured over the second half of the probe window;
		// commits arrive a block at a time, so the instantaneous in-flight
		// count jitters by up to a block (~a second of load). Spread that
		// allowance over the measurement window before calling it growth.
		dt := float64(int(o.Probe/time.Second) - int(o.Probe/(2*time.Second)))
		if dt < 1 {
			dt = 1
		}
		switch {
		case p.Crashed:
			p.Reason = "crashed"
		case p.CommitRatio < o.MinCommitRatio:
			p.Reason = fmt.Sprintf("commit ratio %.2f < %.2f", p.CommitRatio, o.MinCommitRatio)
		case p.P95 > o.MaxP95:
			p.Reason = fmt.Sprintf("p95 %s > %s", p.P95.Round(time.Millisecond), o.MaxP95)
		case p.BacklogPerSec > o.MaxBacklogFrac*tps+tps/dt:
			p.Reason = fmt.Sprintf("backlog grows %.0f tx/s at %.0f TPS", p.BacklogPerSec, tps)
		default:
			p.Sustainable = true
			p.Reason = "ok"
		}
		res.Probes = append(res.Probes, p)
		return p, nil
	}

	// Bracket: the floor must hold and the ceiling must break, otherwise
	// the knee lies outside [Lo, Hi] and the result is clipped.
	loP, err := probe(o.Lo)
	if err != nil {
		return nil, err
	}
	if !loP.Sustainable {
		res.Knee, res.Ceiling, res.Clipped = 0, o.Lo, true
		return res, nil
	}
	hiP, err := probe(o.Hi)
	if err != nil {
		return nil, err
	}
	if hiP.Sustainable {
		res.Knee, res.Ceiling, res.Clipped = o.Hi, o.Hi, true
		return res, nil
	}

	lo, hi := o.Lo, o.Hi
	for i := 0; i < o.Iterations; i++ {
		mid := (lo + hi) / 2
		p, err := probe(mid)
		if err != nil {
			return nil, err
		}
		if p.Sustainable {
			lo = mid
		} else {
			hi = mid
		}
	}
	res.Knee, res.Ceiling = lo, hi
	return res, nil
}

// backlogSlope measures queue growth over the second half of the probe
// window: (backlog at window end − backlog at mid-window) per second,
// where backlog is cumulative submissions minus cumulative commits. A
// sustainable system reaches steady state, so the slope hovers near zero;
// an oversubscribed one grows linearly with the overload.
func backlogSlope(out *Outcome, window time.Duration) float64 {
	half := int(window / (2 * time.Second))
	full := int(window / time.Second)
	if half < 1 || out.SubmittedPerSec == nil || out.CommittedPerSec == nil {
		return 0
	}
	backlogAt := func(sec int) float64 {
		var sub, com int
		for i := 0; i < sec; i++ {
			if i < len(out.SubmittedPerSec.Counts) {
				sub += out.SubmittedPerSec.Counts[i]
			}
			if i < len(out.CommittedPerSec.Counts) {
				com += out.CommittedPerSec.Counts[i]
			}
		}
		return float64(sub - com)
	}
	growth := backlogAt(full) - backlogAt(half)
	return growth / float64(full-half)
}
