package main

// metricDef names one metric the benchmark emits. The tables below are the
// program's side of BENCHMARK.json; TestManifestMatchesProgram keeps the
// two equal.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// endToEnd are the host-cost metrics of an untraced run, the same five on
// every workload, all lower-is-better. Bound is the share of the parent's
// median a metric may worsen by before it counts as a regression.
var endToEnd = []metricDef{
	{"wall_s", "s", "lower", 0.10},
	{"allocs_per_tx", "allocs/tx", "lower", 0.01},
	{"bytes_per_tx", "B/tx", "lower", 0.02},
	{"peak_heap_mb", "MB", "lower", 0.15},
	{"setup_s", "s", "lower", 0.25},
}

// devnetChains are the eight chains of the chains-devnet and nodes-200
// workloads, in run order: the paper's six and the two extensions.
var devnetChains = []string{"algorand", "avalanche", "diem", "ethereum", "quorum", "solana", "quorum-raft", "redbelly"}

// engineOf maps a chain to the consensus package that orders its blocks.
var engineOf = map[string]string{
	"algorand": "ba", "avalanche": "snowball", "diem": "hotstuff", "ethereum": "clique",
	"quorum": "ibft", "solana": "poh", "quorum-raft": "raft", "redbelly": "dbft",
}

// perLayer are the metrics of a traced run: the cell trace of the selected
// workload first, then the layer stages, which time each layer's public
// functions on inputs shaped like the workload they mirror.
var perLayer = buildPerLayer()

func buildPerLayer() []metricDef {
	lower := func(unit string, names ...string) []metricDef {
		out := make([]metricDef, len(names))
		for i, n := range names {
			out[i] = metricDef{Name: n, Unit: unit, Better: "lower"}
		}
		return out
	}
	higher := func(unit string, names ...string) []metricDef {
		out := lower(unit, names...)
		for i := range out {
			out[i].Better = "higher"
		}
		return out
	}
	var m []metricDef
	add := func(defs []metricDef) { m = append(m, defs...) }

	// (a) Cell trace of the selected workload.
	add(lower("s", "core.submit_self_s", "chain.rpc_self_s", "consensus.step_self_s",
		"chain.exec_self_s", "simnet.deliver_self_s", "sim.other_self_s"))
	add(lower("ratio", "trace.overhead_ratio"))
	add(lower("count", "sim.events", "simnet.msgs"))
	add(lower("B", "simnet.bytes"))
	add(lower("count", "consensus.rounds", "consensus.viewchanges"))
	add(higher("count", "chain.blocks", "tx.submitted", "tx.admitted"))
	add(lower("count", "tx.rejected"))
	add(higher("count", "tx.included", "tx.decided"))
	add(lower("count", "tx.retries", "tx.timeouts", "mempool.depth_peak", "chain.executed"))
	add(higher("count", "chain.replayed"))
	add(higher("ratio", "chain.cache_hit_ratio"))
	add(lower("ns", "sim.host_ns_per_event"))
	add(lower("ev/tx", "sim.events_per_tx"))
	add(lower("count", "runtime.gc_cycles"))

	// (b) Layer stages.
	for _, c := range append(append([]string(nil), devnetChains...), "quorum-chaos") {
		add(lower("s", "cell."+c+".wall_s"))
	}
	add(lower("ns", "workloads.gen_ns_per_tx", "stream.next_ns_per_tx"))
	add(lower("ms", "wallet.new_ms"))
	add(lower("ns", "wallet.sign_ns_per_tx", "wallet.lazy_ns_per_account", "types.txid_ns"))
	add(lower("us", "types.block_hash_us"))
	add(lower("ns", "core.encode_ns_per_tx", "core.encode_implicit_ns_per_tx", "core.trigger_ns_per_tx"))
	add(lower("ns", "mempool.add_ns_per_tx.hot", "mempool.add_ns_per_tx.cold", "mempool.add_ns_per_tx.capped",
		"mempool.take_ns_per_tx.deep", "mempool.take_ns_per_tx.sequenced", "mempool.take_ns_per_tx.ttl"))
	add(lower("ms", "chain.deploy_ms.n20", "chain.deploy_ms.n200"))
	add(lower("us", "chain.assemble_us_per_block.deep"))
	add(lower("ns", "chain.apply_ns_per_tx.transfer", "chain.apply_ns_per_tx.replay"))
	add(lower("us", "chain.stateroot_us_per_block"))
	add(higher("x", "chain.apply_par_speedup"))
	add(lower("ns", "trie.put_ns_per_key"))
	add(lower("us", "trie.root_us.1k_dirty"))
	add(lower("us", "vm.uber_us_per_call", "vm.fifa_us_per_call", "avm.uber_us_per_call",
		"vmprofiles.movevm_uber_us_per_call", "vmprofiles.ebpf_uber_us_per_call"))
	add(lower("ms", "minisol.compile_ms"))
	for _, c := range devnetChains {
		e := "consensus." + engineOf[c]
		add(lower("us", e+".host_us_per_block.n10", e+".host_us_per_block.n200"))
		add(lower("msgs/block", e+".msgs_per_block.n200"))
	}
	add(lower("ns", "simnet.send_ns_per_msg", "simnet.bcast_ns_per_recipient.n200"))
	add(lower("allocs/msg", "simnet.allocs_per_msg"))
	add(lower("ns", "sim.churn_ns_per_event", "sim.deep_ns_per_event"))
	add(lower("allocs/ev", "sim.allocs_per_event"))
	add(lower("ns", "stats.summarize_ns_per_tx", "collect.report_ns_per_tx"))
	add(lower("ratio", "obs.trace_overhead_ratio", "span.record_overhead_ratio"))
	add(lower("ms", "snapshot.capture_ms"))
	add(lower("ratio", "invariant.overhead_ratio"))
	add(higher("x", "core.sweep_speedup"))
	return m
}

// value is one emitted metric.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// ledger collects per-layer metrics by name. A name outside the perLayer
// table, or put twice, is a bug in the benchmark and panics.
type ledger struct {
	vals  map[string]value
	units map[string]string
}

func newLedger() *ledger {
	l := &ledger{vals: map[string]value{}, units: map[string]string{}}
	for _, d := range perLayer {
		l.units[d.Name] = d.Unit
	}
	return l
}

func (l *ledger) put(name string, v float64) {
	unit, known := l.units[name]
	if !known {
		panic("benchmark: metric " + name + " is not in the per-layer table")
	}
	if _, dup := l.vals[name]; dup {
		panic("benchmark: metric " + name + " emitted twice")
	}
	l.vals[name] = value{Value: v, Unit: unit}
}
