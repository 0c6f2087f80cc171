package main

import (
	"time"

	"diablo/internal/bench"
	"diablo/internal/configs"
	"diablo/internal/sim"
	"diablo/internal/simnet"
	"diablo/internal/workloads"
)

// stageConsensus times each engine with next to nothing to order: one
// transfer a second for 30 s, on the 10-node devnet and on the 200-node
// consortium. What remains is the engine's own rounds, votes and timers,
// per block produced. The registry is on so the message count can be read;
// it samples once a virtual second, 40 times in all.
func (s *stages) stageConsensus() error {
	dur := pick(s.quick, 30*time.Second, time.Second)
	for _, c := range devnetChains {
		for _, size := range []struct {
			suffix string
			cfg    *configs.Config
		}{{"n10", configs.Devnet}, {"n200", configs.Consortium}} {
			exp := bench.Experiment{
				Chain:   c,
				Config:  size.cfg,
				Traces:  []*workloads.Trace{workloads.NativeConstant(1, dur)},
				Tail:    pick(s.quick, 10*time.Second, time.Second),
				Seed:    s.seed,
				Metrics: true,
			}
			var out *bench.Outcome
			var err error
			d := s.spans.time("bench.Run idle "+c+" "+size.suffix, func() { out, err = bench.Run(exp) })
			if err != nil {
				return err
			}
			blocks := float64(max(out.Blocks, 1))
			prefix := "consensus." + engineOf[c]
			s.l.put(prefix+".host_us_per_block."+size.suffix, float64(d)/float64(time.Microsecond)/blocks)
			if size.suffix == "n200" {
				s.l.put(prefix+".msgs_per_block.n200", finalCount(out, "net.delivered")/blocks)
			}
		}
	}
	return nil
}

// sink is a delivery handler that does nothing.
func sink(simnet.Message) {}

// wan builds a WAN of n nodes spread evenly over the ten regions.
func wan(seed int64, n int) (*sim.Scheduler, *simnet.Network) {
	sched := sim.NewScheduler(seed)
	net := simnet.New(sched)
	for _, r := range simnet.PlaceEvenly(n, simnet.AllRegions()) {
		net.AddNode(r).SetHandler(sink)
	}
	return sched, net
}

// stageSimnet times the send-and-deliver cycle on a warm 50-node WAN, and a
// 200-node broadcast, the fan-out every vote of nodes-200 pays.
func (s *stages) stageSimnet() error {
	const nodes = 50
	sched, net := wan(s.seed, nodes)
	var payload any = "vote"
	send := func(msgs int) {
		for i := 0; i < msgs; i++ {
			net.Send(simnet.NodeID(i%nodes), simnet.NodeID((i+1)%nodes), 200, payload)
			if i%256 == 255 {
				sched.Run()
			}
		}
		sched.Run()
	}
	send(nodes * 256) // warm every link and the envelope pool
	msgs := s.n(1_000_000, 10_000)
	var allocs uint64
	d := s.spans.time("simnet.Send+deliver", func() { allocs = mallocs(func() { send(msgs) }) })
	s.l.put("simnet.send_ns_per_msg", perOp(d, msgs, time.Nanosecond))
	s.l.put("simnet.allocs_per_msg", ratio(float64(allocs), float64(msgs)))

	const big = 200
	sched, net = wan(s.seed, big)
	rounds := s.n(2000, 20)
	bcast := func(rounds int) {
		for i := 0; i < rounds; i++ {
			net.Broadcast(simnet.NodeID(i%big), 200, payload)
			sched.Run()
		}
	}
	bcast(big)
	d = s.spans.time("simnet.Broadcast n=200", func() { bcast(rounds) })
	s.l.put("simnet.bcast_ns_per_recipient.n200", perOp(d, rounds*(big-1), time.Nanosecond))
	return nil
}

// tick is a scheduler callback that does nothing.
type tick struct{}

func (tick) Run() {}

// stageSim times the scheduler alone: the schedule, run and cancel churn of
// a consensus timeout, and push and pop against a heap of 100k live events.
func (s *stages) stageSim() error {
	sched := sim.NewScheduler(s.seed)
	cycles := s.n(1_000_000, 10_000)
	churn := func(cycles int) {
		for i := 0; i < cycles; i++ {
			sched.AfterCall(time.Microsecond, tick{})
			timer := sched.AfterCall(time.Second, tick{})
			sched.Step()
			timer.Cancel()
		}
		sched.Run()
	}
	churn(1000)
	var allocs uint64
	before := sched.Executed()
	d := s.spans.time("sim churn", func() { allocs = mallocs(func() { churn(cycles) }) })
	events := int(sched.Executed() - before)
	s.l.put("sim.churn_ns_per_event", perOp(d, events, time.Nanosecond))
	s.l.put("sim.allocs_per_event", ratio(float64(allocs), float64(events)))

	sched = sim.NewScheduler(s.seed)
	// scattered spreads delays over a second without drawing random numbers
	// inside the timed loop.
	scattered := func(i int) time.Duration { return time.Duration(uint64(i) * 2654435761 % uint64(time.Second)) }
	live := s.n(100_000, 1000)
	for i := 0; i < live; i++ {
		sched.AfterCall(scattered(i), tick{})
	}
	steps := s.n(1_000_000, 10_000)
	d = s.spans.time("sim deep heap", func() {
		for i := 0; i < steps; i++ {
			sched.AfterCall(scattered(live+i), tick{})
			sched.Step()
		}
	})
	s.l.put("sim.deep_ns_per_event", perOp(d, steps, time.Nanosecond))
	return nil
}
