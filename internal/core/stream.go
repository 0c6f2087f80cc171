package core

import (
	"time"

	"diablo/internal/sim"
	"diablo/internal/stats"
	"diablo/internal/stream"
)

// streamPump drives one stream.Source through the engine. Unlike traces,
// which pre-schedule every submission window before the run starts (an
// O(total-transactions) map), a pump holds exactly one pending intent and
// re-schedules itself for the pending intent's window — the event queue
// and the generator together stay constant-size no matter how many
// transactions or clients the stream spans.
type streamPump struct {
	sched    *sim.Scheduler
	src      stream.Source
	res      *Result
	spec     *BenchmarkSpec
	clients  []Client
	tokens   *recordTokens
	contract Resource // zero when the stream sends native transfers

	pending stream.Intent
	has     bool
}

// peek ensures the next intent is loaded, reporting false when drained.
func (p *streamPump) peek() bool {
	if p.has {
		return true
	}
	if p.src.Next(&p.pending) {
		p.has = true
		return true
	}
	return false
}

// start schedules the pump's first event; a drained source schedules
// nothing.
func (p *streamPump) start() {
	if p.peek() {
		p.scheduleNext()
	}
}

// scheduleNext re-arms the pump as a sim.Callback: handing the scheduler
// the pump itself instead of a p.run method value keeps each of the
// millions of reschedules allocation-free.
//
//perf:noalloc
func (p *streamPump) scheduleNext() {
	window := p.pending.At / batchWindow * batchWindow
	p.sched.AtCallKind(sim.KindSubmission, window, p)
}

// Run implements sim.Callback: it submits every intent of the current
// window, then re-schedules for the next pending intent's window.
func (p *streamPump) Run() {
	end := p.sched.Now() + batchWindow
	for p.peek() && p.pending.At < end {
		p.submit()
		p.has = false
	}
	if p.has {
		p.scheduleNext()
	}
}

func (p *streamPump) submit() {
	it := &p.pending
	worker := int(it.Client % uint64(len(p.clients)))
	var ispec InteractionSpec
	if p.src.DApp() == "" {
		ispec = InteractionSpec{
			Kind:      InteractTransfer,
			Implicit:  true,
			FromIndex: it.Client,
			ToIndex:   it.To,
			Nonce:     it.Nonce,
			Amount:    it.Amount,
		}
	} else {
		ispec = InteractionSpec{
			Kind:      InteractInvoke,
			Implicit:  true,
			FromIndex: it.Client,
			Nonce:     it.Nonce,
			Contract:  p.contract,
			Function:  it.Func,
			Args:      it.Args[:it.NArgs],
		}
	}
	// Stream records grow the shared record slice past the traces' fixed
	// prefix; the record index rides along as the observation token just
	// like a trace submission's global index.
	idx := int32(len(p.res.Records))
	p.res.Records = append(p.res.Records, stats.TxRecord{Submit: p.sched.Now(), Commit: -1})
	p.res.SubmittedPerSec.Add(p.sched.Now())
	p.spec.Metrics.Submitted.Inc()
	e, err := p.clients[worker].Encode(ispec)
	if err != nil {
		p.res.Records[idx].Aborted = true
		p.res.AbortedExec++
		return
	}
	if err := p.clients[worker].Trigger(e, p.tokens.next(idx)); err != nil {
		p.res.Records[idx].Aborted = true
		p.res.AbortedExec++
	}
}

// streamDuration returns the longest stream's scheduled length.
func streamDuration(sources []stream.Source) time.Duration {
	var d time.Duration
	for _, src := range sources {
		if src.Duration() > d {
			d = src.Duration()
		}
	}
	return d
}
