package chain

import "testing"

func TestQuorumAndNextLive(t *testing.T) {
	for _, c := range []struct{ n, q int }{{1, 1}, {4, 3}, {7, 5}, {10, 7}, {200, 134}} {
		if _, net := deployTest(t, testParams(), c.n); net.Quorum() != c.q {
			t.Errorf("Quorum() with %d nodes = %d, want %d", c.n, net.Quorum(), c.q)
		}
	}

	_, net := deployTest(t, testParams(), 5)
	for i := 0; i < 5; i++ {
		if got := net.NextLive(i); got != i {
			t.Errorf("all live: NextLive(%d) = %d", i, got)
		}
	}
	net.Nodes[1].Sim.Crash()
	net.Nodes[3].Sim.Crash()
	net.Nodes[4].Sim.Crash()
	for i, want := range []int{0, 2, 2, 0, 0} { // 3 and 4 wrap around to 0
		if got := net.NextLive(i); got != want {
			t.Errorf("NextLive(%d) = %d, want %d", i, got, want)
		}
	}
	for _, nd := range net.Nodes {
		nd.Sim.Crash()
	}
	for i := 0; i < 5; i++ {
		if got := net.NextLive(i); got != i {
			t.Errorf("all down: NextLive(%d) = %d, want %d", i, got, i)
		}
	}
}
