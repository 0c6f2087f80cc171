package stream

import (
	"strings"
	"testing"
	"time"

	"diablo/internal/snapshot"
	"diablo/internal/yamlite"
)

func flashCfg(clients uint64) Config {
	return Config{Scenario: "flash-mint", Clients: clients, Peak: 500, Decay: 5 * time.Second, Duration: 30 * time.Second}
}

func dexCfg() Config {
	return Config{Scenario: "dex-arb", Clients: 16, Rate: 50, AmountMax: 100, Duration: 10 * time.Second}
}

func diurnalCfg() Config {
	return Config{Scenario: "diurnal", Clients: 1000, Base: 10, Peak: 40, Day: 20 * time.Second, Days: 2}
}

func drainDigest(t *testing.T, src Source) (uint64, int) {
	t.Helper()
	h := snapshot.NewHash()
	var it Intent
	n := 0
	last := time.Duration(-1)
	for src.Next(&it) {
		if it.At < last {
			t.Fatalf("intent %d time went backwards: %s after %s", n, it.At, last)
		}
		last = it.At
		h.U64(uint64(it.At))
		h.U64(it.Client)
		h.U64(it.To)
		h.U64(it.Nonce)
		h.U64(it.Amount)
		h.U64(uint64(len(it.Func)))
		for i := 0; i < it.NArgs; i++ {
			h.U64(it.Args[i])
		}
		n++
	}
	return h.Sum(), n
}

func TestSameSeedSameStream(t *testing.T) {
	for _, cfg := range []Config{flashCfg(2000), dexCfg(), diurnalCfg()} {
		a, err := Build(cfg, 7)
		if err != nil {
			t.Fatal(err)
		}
		b, err := Build(cfg, 7)
		if err != nil {
			t.Fatal(err)
		}
		da, na := drainDigest(t, a)
		db, nb := drainDigest(t, b)
		if da != db || na != nb {
			t.Fatalf("%s: same seed diverged: %016x/%d vs %016x/%d", cfg.Scenario, da, na, db, nb)
		}
		c, err := Build(cfg, 8)
		if err != nil {
			t.Fatal(err)
		}
		if dc, _ := drainDigest(t, c); dc == da {
			t.Fatalf("%s: different seeds produced identical streams", cfg.Scenario)
		}
	}
}

func TestFlashMintEveryClientMintsOnce(t *testing.T) {
	const n = 2000
	src, err := Build(flashCfg(n), 3)
	if err != nil {
		t.Fatal(err)
	}
	seen := make([]bool, n)
	var it Intent
	count := 0
	for src.Next(&it) {
		if it.Nonce != 0 {
			t.Fatalf("flash-mint intent carries nonce %d; every client mints once", it.Nonce)
		}
		if it.Func != "mint" {
			t.Fatalf("flash-mint called %q", it.Func)
		}
		if seen[it.Client] {
			t.Fatalf("client %d minted twice", it.Client)
		}
		seen[it.Client] = true
		count++
	}
	// Peak 500 with a 5s decay emits ~peak*decay ≈ 2500 > n intents, so
	// the population must be exhausted, each client exactly once.
	if count != n {
		t.Fatalf("emitted %d intents for %d clients", count, n)
	}
}

func TestDEXArbNoncesAreRounds(t *testing.T) {
	src, err := Build(dexCfg(), 3)
	if err != nil {
		t.Fatal(err)
	}
	last := make(map[uint64]int64)
	var it Intent
	for src.Next(&it) {
		prev, ok := last[it.Client]
		if !ok {
			prev = -1
		}
		if int64(it.Nonce) != prev+1 {
			t.Fatalf("client %d jumped nonce %d -> %d", it.Client, prev, it.Nonce)
		}
		last[it.Client] = int64(it.Nonce)
		if it.Func != "swapAForB" && it.Func != "swapBForA" {
			t.Fatalf("unexpected function %q", it.Func)
		}
		if it.NArgs != 1 || it.Args[0] < 1 || it.Args[0] > 100 {
			t.Fatalf("bad swap args %v", it.Args[:it.NArgs])
		}
	}
}

func TestDiurnalShape(t *testing.T) {
	src, err := Build(diurnalCfg(), 3)
	if err != nil {
		t.Fatal(err)
	}
	perSec := map[uint64]int{}
	var it Intent
	for src.Next(&it) {
		if it.To == it.Client {
			t.Fatal("self-transfer generated")
		}
		perSec[uint64(it.At/time.Second)]++
	}
	// Midday of day one (10s) must run at the peak, midnight at the base.
	if perSec[10] <= perSec[0] {
		t.Fatalf("no diurnal swing: midnight %d vs midday %d", perSec[0], perSec[10])
	}
	if perSec[39] >= perSec[30] {
		t.Fatalf("day two does not decay: %d at 30s vs %d at 39s", perSec[30], perSec[39])
	}
}

// TestGenerationAllocsAreConstant proves steady-state generation is O(1):
// Next allocates nothing, at any population size — the generator's memory
// is independent of the client count.
func TestGenerationAllocsAreConstant(t *testing.T) {
	for _, clients := range []uint64{1000, 100_000_000} {
		cfg := Config{Scenario: "dex-arb", Clients: clients, Rate: 1000, Duration: time.Hour}
		src, err := Build(cfg, 5)
		if err != nil {
			t.Fatal(err)
		}
		var it Intent
		// Warm up past the first second boundary.
		for i := 0; i < 2000; i++ {
			src.Next(&it)
		}
		allocs := testing.AllocsPerRun(5000, func() {
			if !src.Next(&it) {
				t.Fatal("source drained during alloc measurement")
			}
		})
		if allocs > 0 {
			t.Fatalf("%d clients: Next allocates %.1f/op; generation must be allocation-free", clients, allocs)
		}
	}
}

func TestSnapshotReconcile(t *testing.T) {
	for _, cfg := range []Config{flashCfg(2000), dexCfg(), diurnalCfg()} {
		a, err := Build(cfg, 11)
		if err != nil {
			t.Fatal(err)
		}
		var it Intent
		for i := 0; i < 500; i++ {
			a.Next(&it)
		}
		enc := snapshot.NewEncoder()
		a.SnapshotState(enc)

		// A fresh source fast-forwarded the same distance reconciles.
		b, err := Build(cfg, 11)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 500; i++ {
			b.Next(&it)
		}
		dec, err := snapshot.NewDecoder(enc.Payload())
		if err != nil {
			t.Fatal(err)
		}
		if err := snapshot.Reconcile(b, dec); err != nil {
			t.Fatalf("%s: reconcile failed: %v", cfg.Scenario, err)
		}

		// One extra step must be detected as divergence.
		b.Next(&it)
		dec, err = snapshot.NewDecoder(enc.Payload())
		if err != nil {
			t.Fatal(err)
		}
		if err := snapshot.Reconcile(b, dec); err == nil {
			t.Fatalf("%s: reconcile accepted a diverged cursor", cfg.Scenario)
		}
	}
}

func TestParseSection(t *testing.T) {
	doc := `
stream:
  - scenario: flash-mint
    clients: 1000
    peak: 100
    decay: 10s
    duration: 30s
  - scenario: dex-arb
    clients: 8
    rate: 20
    amount-max: 50
    duration: 10s
  - scenario: diurnal
    clients: 100
    base: 5
    peak: 20
    day: 30s
    days: 2
`
	root, err := yamlite.Parse(doc)
	if err != nil {
		t.Fatal(err)
	}
	sec, ok := root.Get("stream")
	if !ok {
		t.Fatal("no stream section")
	}
	cfgs, err := ParseSection(sec)
	if err != nil {
		t.Fatal(err)
	}
	if len(cfgs) != 3 {
		t.Fatalf("parsed %d entries", len(cfgs))
	}
	if cfgs[0].Scenario != "flash-mint" || cfgs[0].Clients != 1000 || cfgs[0].Decay != 10*time.Second {
		t.Fatalf("bad flash-mint config %+v", cfgs[0])
	}
	if cfgs[1].AmountMax != 50 || cfgs[1].Rate != 20 {
		t.Fatalf("bad dex-arb config %+v", cfgs[1])
	}
	if cfgs[2].Days != 2 || cfgs[2].Day != 30*time.Second {
		t.Fatalf("bad diurnal config %+v", cfgs[2])
	}
	if _, err := BuildAll(cfgs, 1); err != nil {
		t.Fatal(err)
	}
}

func TestParseSectionRejectsUnknownKey(t *testing.T) {
	doc := `
stream:
  - scenario: dex-arb
    clients: 8
    ratee: 20
    duration: 10s
`
	root, _ := yamlite.Parse(doc)
	sec, _ := root.Get("stream")
	_, err := ParseSection(sec)
	if err == nil {
		t.Fatal("unknown key accepted")
	}
	// The message is pinned: tooling and docs quote it verbatim.
	if !strings.Contains(err.Error(), `stream: unknown key "ratee"`) {
		t.Fatalf("wrong error: %v", err)
	}
}

func TestValidateErrors(t *testing.T) {
	cases := []Config{
		{Scenario: "nope", Clients: 10},
		{Scenario: "flash-mint", Clients: 0, Peak: 1, Decay: time.Second, Duration: time.Second},
		{Scenario: "flash-mint", Clients: 10, Peak: 0, Decay: time.Second, Duration: time.Second},
		{Scenario: "dex-arb", Clients: 10, Rate: 0, Duration: time.Second},
		{Scenario: "diurnal", Clients: 1, Base: 1, Peak: 2, Day: time.Second, Days: 1},
		{Scenario: "diurnal", Clients: 10, Base: 3, Peak: 2, Day: time.Second, Days: 1},
		{Scenario: "diurnal", Clients: 10, Base: 1, Peak: 2, Day: time.Second, Days: 1, Duration: time.Second},
	}
	for i, c := range cases {
		if err := c.Validate(); err == nil {
			t.Fatalf("case %d accepted: %+v", i, c)
		}
	}
}
