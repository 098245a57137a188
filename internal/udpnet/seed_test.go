package udpnet

import (
	"testing"
	"time"

	"onepipe/internal/netsim"
)

// TestSeedDeterminesLossRNG pins the Config.Seed contract: equal seeds give
// the switch's impairment identical drop-decision sequences (so a lossy live
// run can be replayed), different seeds give different ones, and a zero seed
// still yields a working RNG. The decisions are drawn under the switch lock,
// the same way the forwarding path consumes them.
func TestSeedDeterminesLossRNG(t *testing.T) {
	mk := func(seed int64) *Switch {
		s, err := newSwitch(Config{
			Hosts: 2, ProcsPerHost: 1, BeaconInterval: time.Hour, Seed: seed,
			Impair: &netsim.Impairment{Loss: 0.5},
		}, time.Now())
		if err != nil {
			t.Fatalf("newSwitch: %v", err)
		}
		return s
	}
	draw := func(s *Switch, k int) []bool {
		s.mu.Lock()
		defer s.mu.Unlock()
		out := make([]bool, k)
		for i := range out {
			out[i] = s.imp.Drop(0)
		}
		return out
	}

	a, b, c := mk(7), mk(7), mk(8)
	defer a.close()
	defer b.close()
	defer c.close()

	da, db, dc := draw(a, 64), draw(b, 64), draw(c, 64)
	for i := range da {
		if da[i] != db[i] {
			t.Fatalf("draw %d differs across switches seeded identically: %v vs %v", i, da[i], db[i])
		}
	}
	same := true
	for i := range da {
		if da[i] != dc[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("seeds 7 and 8 produced identical loss draw sequences")
	}

	z := mk(0)
	defer z.close()
	if got := draw(z, 1); len(got) != 1 {
		t.Fatal("zero seed produced no draws")
	}
}
