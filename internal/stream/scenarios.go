package stream

import (
	"fmt"
	"time"

	"diablo/internal/snapshot"
)

// Config describes one `stream:` entry of a workload specification. Which
// fields apply depends on the scenario:
//
//	flash-mint: Clients, Peak (arrival TPS), Decay (e-folding time), Duration
//	dex-arb:    Clients (bots), Rate (swaps/s), AmountMax, Duration
//	diurnal:    Clients, Base (floor TPS), Peak (midday TPS), Day, Days
type Config struct {
	Scenario  string
	Clients   uint64
	Duration  time.Duration
	Peak      float64
	Decay     time.Duration
	Rate      float64
	AmountMax uint64
	Base      float64
	Day       time.Duration
	Days      int
}

// maxClients bounds the population so permutation arithmetic cannot
// overflow (mult·pos < 2^62).
const maxClients = uint64(1) << 31

// Validate checks a configuration against its scenario's rules.
func (c Config) Validate() error {
	if c.Clients < 1 || c.Clients > maxClients {
		return fmt.Errorf("stream: clients must be in [1, %d], got %d", maxClients, c.Clients)
	}
	switch c.Scenario {
	case "flash-mint":
		if c.Peak <= 0 {
			return fmt.Errorf("stream: flash-mint needs a positive peak")
		}
		if c.Decay <= 0 {
			return fmt.Errorf("stream: flash-mint needs a positive decay")
		}
		if c.Duration <= 0 {
			return fmt.Errorf("stream: flash-mint needs a positive duration")
		}
	case "dex-arb":
		if c.Rate <= 0 {
			return fmt.Errorf("stream: dex-arb needs a positive rate")
		}
		if c.Duration <= 0 {
			return fmt.Errorf("stream: dex-arb needs a positive duration")
		}
	case "diurnal":
		if c.Clients < 2 {
			return fmt.Errorf("stream: diurnal needs at least 2 clients")
		}
		if c.Base < 0 || c.Peak < c.Base {
			return fmt.Errorf("stream: diurnal needs 0 <= base <= peak")
		}
		if c.Day <= 0 || c.Days < 1 {
			return fmt.Errorf("stream: diurnal needs a positive day and days")
		}
		if c.Duration != 0 {
			return fmt.Errorf("stream: diurnal duration is day*days; drop the duration key")
		}
	default:
		return fmt.Errorf("stream: unknown scenario %q", c.Scenario)
	}
	return nil
}

// Build constructs the configured source. The source's PRNG is split from
// seed, so equal (config, seed) pairs yield byte-identical streams.
func Build(c Config, seed int64) (Source, error) {
	if err := c.Validate(); err != nil {
		return nil, err
	}
	root := NewPRNG(uint64(seed) ^ 0xd1ab10_57e4a)
	rng := root.Split()
	switch c.Scenario {
	case "flash-mint":
		return &FlashMint{
			g:    newGen(c.Clients, c.Duration, c.Clients, rng),
			peak: c.Peak, decay: c.Decay, rate: c.Peak,
		}, nil
	case "dex-arb":
		amountMax := c.AmountMax
		if amountMax == 0 {
			amountMax = 1000
		}
		return &DEXArb{
			g:    newGen(c.Clients, c.Duration, 0, rng),
			rate: c.Rate, amountMax: amountMax,
		}, nil
	case "diurnal":
		return &Diurnal{
			g:    newGen(c.Clients, c.Day*time.Duration(c.Days), 0, rng),
			base: c.Base, peak: c.Peak, day: c.Day,
		}, nil
	}
	return nil, fmt.Errorf("stream: unknown scenario %q", c.Scenario)
}

// BuildAll constructs every configured source. Each source draws its PRNG
// from (seed, position), so streams are independent and order-stable.
func BuildAll(cfgs []Config, seed int64) ([]Source, error) {
	out := make([]Source, 0, len(cfgs))
	for i, c := range cfgs {
		src, err := Build(c, seed+int64(i)*0x9e37)
		if err != nil {
			return nil, fmt.Errorf("stream %d: %w", i, err)
		}
		out = append(out, src)
	}
	return out, nil
}

// Durations returns the longest configured stream duration.
func Durations(cfgs []Config) time.Duration {
	var d time.Duration
	for _, c := range cfgs {
		end := c.Duration
		if c.Scenario == "diurnal" {
			end = c.Day * time.Duration(c.Days)
		}
		if end > d {
			d = end
		}
	}
	return d
}

// FlashMint is a flash crowd: Clients distinct users arrive against one
// hot NFT contract, minting exactly once each. The arrival rate starts at
// Peak TPS and decays geometrically with e-folding time Decay (computed
// with plain float multiplication — no math library calls — so the curve
// is bit-identical on every platform).
type FlashMint struct {
	g     gen
	peak  float64
	decay time.Duration
	rate  float64 // current arrival rate, advanced once per second
}

// Name implements Source.
func (s *FlashMint) Name() string { return "flash-mint" }

// DApp implements Source.
func (s *FlashMint) DApp() string { return "nft" }

// Clients implements Source.
func (s *FlashMint) Clients() uint64 { return s.g.clients }

// Duration implements Source.
func (s *FlashMint) Duration() time.Duration { return s.g.dur }

// Next implements Source. Every client mints exactly once, so the round
// counter never advances and each intent carries nonce 0.
func (s *FlashMint) Next(it *Intent) bool {
	if !s.g.step(it, s.plan) {
		return false
	}
	it.Func = "mint"
	it.NArgs = 0
	it.To, it.Amount = 0, 0
	return true
}

func (s *FlashMint) plan(sec uint64) uint64 {
	n := uint64(s.rate + 0.5)
	factor := 1 - 1/s.decay.Seconds()
	if factor < 0 {
		factor = 0
	}
	s.rate *= factor
	return n
}

// SnapshotState implements Source.
func (s *FlashMint) SnapshotState(e *snapshot.Encoder) {
	e.Str("scenario", "flash-mint")
	s.g.snapshotCursor(e)
	e.F64("peak", s.peak)
	e.Dur("decay", s.decay)
	e.F64("rate", s.rate)
}

// DEXArb is a population of arbitrage bots hammering one shared DEX pool
// at a constant aggregate rate. Every swap touches the same two reserve
// cells.
type DEXArb struct {
	g         gen
	rate      float64
	amountMax uint64
}

// Name implements Source.
func (s *DEXArb) Name() string { return "dex-arb" }

// DApp implements Source.
func (s *DEXArb) DApp() string { return "dex" }

// Clients implements Source.
func (s *DEXArb) Clients() uint64 { return s.g.clients }

// Duration implements Source.
func (s *DEXArb) Duration() time.Duration { return s.g.dur }

// Next implements Source. Direction and size come from the stream's PRNG;
// the bot's nonce is its completed round count.
func (s *DEXArb) Next(it *Intent) bool {
	if !s.g.step(it, s.plan) {
		return false
	}
	draw := s.g.rng.Next()
	if draw&1 == 0 {
		it.Func = "swapAForB"
	} else {
		it.Func = "swapBForA"
	}
	it.Args[0] = 1 + (draw>>1)%s.amountMax
	it.NArgs = 1
	it.To, it.Amount = 0, 0
	return true
}

func (s *DEXArb) plan(sec uint64) uint64 { return uint64(s.rate + 0.5) }

// SnapshotState implements Source.
func (s *DEXArb) SnapshotState(e *snapshot.Encoder) {
	e.Str("scenario", "dex-arb")
	s.g.snapshotCursor(e)
	e.F64("rate", s.rate)
	e.U64("amount_max", s.amountMax)
}

// Diurnal is a multi-day load curve of native transfers: the rate follows
// a triangle wave from Base TPS at midnight to Peak TPS at midday over
// each compressed Day, repeated Days times.
type Diurnal struct {
	g    gen
	base float64
	peak float64
	day  time.Duration
}

// Name implements Source.
func (s *Diurnal) Name() string { return "diurnal" }

// DApp implements Source.
func (s *Diurnal) DApp() string { return "" }

// Clients implements Source.
func (s *Diurnal) Clients() uint64 { return s.g.clients }

// Duration implements Source.
func (s *Diurnal) Duration() time.Duration { return s.g.dur }

// Next implements Source. The receiver is a PRNG-drawn distinct client.
func (s *Diurnal) Next(it *Intent) bool {
	if !s.g.step(it, s.plan) {
		return false
	}
	n := s.g.clients
	it.To = (it.Client + 1 + s.g.rng.Next()%(n-1)) % n
	it.Amount = 1
	it.Func = ""
	it.NArgs = 0
	return true
}

func (s *Diurnal) plan(sec uint64) uint64 {
	daySecs := uint64(s.day / time.Second)
	if daySecs == 0 {
		daySecs = 1
	}
	phase := float64(sec%daySecs) / float64(daySecs) // 0 at midnight
	factor := 2 * phase
	if factor > 1 {
		factor = 2 - factor // triangle: 1 at midday, back to 0
	}
	return uint64(s.base + (s.peak-s.base)*factor + 0.5)
}

// SnapshotState implements Source.
func (s *Diurnal) SnapshotState(e *snapshot.Encoder) {
	e.Str("scenario", "diurnal")
	s.g.snapshotCursor(e)
	e.F64("base", s.base)
	e.F64("peak", s.peak)
	e.Dur("day", s.day)
}
