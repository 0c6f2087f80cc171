// Package stream generates workloads for client populations far beyond
// what materialized wallets can hold: millions of clients exist only as
// indexed state (account key, nonce, balance) derived from seed+index by
// a splittable PRNG, and are materialized into real wallet accounts only
// when a transaction is actually encoded (see wallet.Lazy) or when retry
// state must be kept for an in-flight transaction.
//
// A Source emits a monotone, deterministic sequence of Intents; the
// engine pulls one intent at a time, so generator memory stays constant
// regardless of the client population or the run length. Client fairness
// without per-client state comes from an affine permutation over the
// population: the k-th intent of a round of N clients goes to client
// π(k) = (a·k + b) mod N with gcd(a, N) = 1, so every round touches every
// client exactly once and the per-client nonce is simply the completed
// round count — strict nonce sequencing without a nonce table.
//
// Sources snapshot their full cursor (SnapshotState), so
// checkpoint/resume over a streaming run stays byte-identical.
package stream

import (
	"time"

	"diablo/internal/snapshot"
)

// PRNG is a SplitMix64 generator: one uint64 of state, splittable, and
// identical on every platform (no library calls, only integer ops).
type PRNG struct {
	State uint64
}

// NewPRNG seeds a generator.
func NewPRNG(seed uint64) PRNG { return PRNG{State: seed} }

// Next returns the next 64 pseudo-random bits.
func (p *PRNG) Next() uint64 {
	p.State += 0x9e3779b97f4a7c15
	z := p.State
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Split derives an independent child generator; parent and child streams
// do not overlap for any practical draw count.
func (p *PRNG) Split() PRNG {
	return PRNG{State: p.Next() ^ 0x6a09e667f3bcc909}
}

// Intent is one generated interaction. Next fills the caller's Intent in
// place so steady-state generation allocates nothing.
type Intent struct {
	// At is the submission time, monotone non-decreasing across calls.
	At time.Duration
	// Client is the implicit sender index in [0, Clients).
	Client uint64
	// To is the implicit receiver index (native transfers).
	To uint64
	// Nonce is the sender's transaction sequence number, assigned by the
	// generator's round counter rather than a per-client table.
	Nonce uint64
	// Amount is the transferred value (native transfers).
	Amount uint64
	// Func selects the contract function (contract scenarios).
	Func string
	// Args holds the call arguments; Args[:NArgs] is the live slice.
	Args  [4]uint64
	NArgs int
}

// Source is a deterministic constant-memory intent generator.
type Source interface {
	// Name identifies the stream in results and traces.
	Name() string
	// DApp is the contract the stream drives ("" = native transfers).
	DApp() string
	// Clients is the implicit client population size.
	Clients() uint64
	// Duration is the stream's scheduled length (emission may end earlier
	// when a finite population is exhausted).
	Duration() time.Duration
	// Next fills it with the next intent and reports whether one exists.
	Next(it *Intent) bool
	// SnapshotState encodes the full generator cursor; a resumed run
	// re-captures and reconciles it (see internal/snapshot).
	SnapshotState(e *snapshot.Encoder)
}

// gen is the shared generator skeleton: per-second rate planning, even
// in-second spacing, and the affine-permutation client scan.
type gen struct {
	clients uint64
	mult    uint64 // permutation multiplier, gcd(mult, clients) = 1
	off     uint64 // permutation offset
	rng     PRNG
	dur     time.Duration
	maxTx   uint64 // 0 = unbounded

	emitted uint64 // intents emitted so far
	sec     uint64 // current second being drained
	inSec   uint64 // emitted within the current second
	nSec    uint64 // planned for the current second
	planned bool
}

func newGen(clients uint64, dur time.Duration, maxTx uint64, rng PRNG) gen {
	g := gen{clients: clients, rng: rng, dur: dur, maxTx: maxTx}
	if clients <= 1 {
		g.mult, g.off = 1, 0
		return g
	}
	g.off = g.rng.Next() % clients
	m := 1 + g.rng.Next()%(clients-1)
	for gcd(m, clients) != 1 {
		m++
		if m >= clients {
			m = 1
		}
	}
	g.mult = m
	return g
}

func gcd(a, b uint64) uint64 {
	for b != 0 {
		a, b = b, a%b
	}
	return a
}

// step emits the next intent's timing and client identity. plan is called
// exactly once per second, in increasing second order, and returns how
// many intents that second carries (letting scenarios advance their own
// rate state).
func (g *gen) step(it *Intent, plan func(sec uint64) uint64) bool {
	for {
		if g.maxTx > 0 && g.emitted >= g.maxTx {
			return false
		}
		if !g.planned {
			if time.Duration(g.sec)*time.Second >= g.dur {
				return false
			}
			n := plan(g.sec)
			if g.maxTx > 0 && g.emitted+n > g.maxTx {
				n = g.maxTx - g.emitted
			}
			g.nSec, g.inSec, g.planned = n, 0, true
		}
		if g.inSec < g.nSec {
			it.At = time.Duration(g.sec)*time.Second +
				time.Duration(g.inSec)*(time.Second/time.Duration(g.nSec))
			pos := g.emitted % g.clients
			it.Client = (g.mult*pos + g.off) % g.clients
			it.Nonce = g.emitted / g.clients
			g.emitted++
			g.inSec++
			return true
		}
		g.planned = false
		g.sec++
	}
}

// snapshotCursor encodes the skeleton's cursor fields.
func (g *gen) snapshotCursor(e *snapshot.Encoder) {
	e.U64("clients", g.clients)
	e.U64("mult", g.mult)
	e.U64("off", g.off)
	e.U64("rng", g.rng.State)
	e.Dur("dur", g.dur)
	e.U64("max_tx", g.maxTx)
	e.U64("emitted", g.emitted)
	e.U64("sec", g.sec)
	e.U64("in_sec", g.inSec)
	e.U64("n_sec", g.nSec)
	e.Bool("planned", g.planned)
}
