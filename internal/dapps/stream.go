package dapps

import "math/rand"

// The two contracts below back the streaming scenarios of internal/stream;
// they are additions over the paper's five DApps and therefore do not
// appear in Names().
//
// NftSource is the flash-crowd mint target: one hot contract whose mint
// function assigns sequential token ids to callers. Every mint touches the
// same counter cell, so a million-client flash crowd contends on a single
// piece of state — the adversarial case for throughput.
const NftSource = `
contract DecentralizedNft {
	uint minted;
	mapping(uint => uint) owner;

	event Minted(uint id);

	function init() public {
		minted = 0;
	}

	function mint() public returns (uint) {
		uint id = minted;
		minted = id + 1;
		owner[id] = msg.sender;
		emit Minted(id);
		return id;
	}

	function totalSupply() public returns (uint) {
		return minted;
	}

	function ownerOf(uint id) public returns (uint) {
		return owner[id];
	}
}`

// DexSource is the arbitrage-bot target: a constant-product pool whose
// every swap reads and writes both reserves, so swaps in either direction
// touch the same two storage slots.
const DexSource = `
contract DexPool {
	uint reserveA;
	uint reserveB;
	uint trades;

	event Swap(uint dir, uint out);

	function init() public {
		reserveA = 1000000000;
		reserveB = 1000000000;
		trades = 0;
	}

	function swapAForB(uint amt) public returns (uint) {
		require(amt > 0);
		uint k = reserveA * reserveB;
		uint newA = reserveA + amt;
		uint newB = k / newA;
		uint out = reserveB - newB;
		reserveA = newA;
		reserveB = newB;
		trades += 1;
		emit Swap(0, out);
		return out;
	}

	function swapBForA(uint amt) public returns (uint) {
		require(amt > 0);
		uint k = reserveA * reserveB;
		uint newB = reserveB + amt;
		uint newA = k / newB;
		uint out = reserveA - newA;
		reserveA = newA;
		reserveB = newB;
		trades += 1;
		emit Swap(1, out);
		return out;
	}

	function reserves() public returns (uint) {
		return reserveA + reserveB;
	}
}`

func init() {
	Registry["nft"] = &DApp{
		Name:         "nft",
		ContractName: "DecentralizedNft",
		Source:       NftSource,
		InitFunc:     "init",
		Functions:    []string{"mint"},
		ArgGen:       func(*rand.Rand, string) []uint64 { return nil },
	}
	Registry["dex"] = &DApp{
		Name:         "dex",
		ContractName: "DexPool",
		Source:       DexSource,
		InitFunc:     "init",
		Functions:    []string{"swapAForB", "swapBForA"},
		ArgGen: func(rng *rand.Rand, _ string) []uint64 {
			return []uint64{1 + uint64(rng.Intn(1000))}
		},
	}
}
