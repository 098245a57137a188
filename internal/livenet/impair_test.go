package livenet

import (
	"sync"
	"testing"
	"time"

	"onepipe/internal/core"
	"onepipe/internal/netsim"
	"onepipe/internal/sim"
)

// TestLiveReliableUnderImpairment exercises the impairment path on the
// in-process fabric: uniform loss of a quarter of data-plane packets, and
// Gilbert-Elliott burst loss plus jitter and an extra-delay class, at the
// switch must not break exactly-once delivery or timestamp order for
// reliable scatterings.
func TestLiveReliableUnderImpairment(t *testing.T) {
	cases := []struct {
		name   string
		seed   int64
		rounds int
		imp    netsim.Impairment
	}{
		{"uniform-loss", 7, 15, netsim.Impairment{Loss: 0.25}},
		{"burst-jitter-delay", 11, 12, netsim.Impairment{
			GE:         netsim.BurstLoss(0.15, 3),
			Jitter:     sim.Time(50 * time.Microsecond),
			ExtraDelay: sim.Time(100 * time.Microsecond),
		}},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			cfg := DefaultConfig(3, 1)
			cfg.Seed = tc.seed // deterministic drop pattern run to run
			cfg.Impair = &tc.imp
			n := New(cfg)
			defer n.Stop()

			var mu sync.Mutex
			counts := make(map[byte]int)
			logs := make([][]sim.Time, 3)
			n.Do(func() {
				for i := 1; i < 3; i++ {
					i := i
					n.Proc(i).OnDeliver = func(d core.Delivery) {
						mu.Lock()
						counts[d.Data.([]byte)[0]]++
						logs[i] = append(logs[i], d.TS)
						mu.Unlock()
					}
				}
			})

			for k := 0; k < tc.rounds; k++ {
				if err := n.Send(0, true, []core.Message{
					{Dst: 1, Data: []byte{byte(k)}, Size: 1},
					{Dst: 2, Data: []byte{byte(k)}, Size: 1},
				}); err != nil {
					t.Fatal(err)
				}
				time.Sleep(2 * time.Millisecond)
			}

			deadline := time.Now().Add(15 * time.Second)
			for time.Now().Before(deadline) {
				mu.Lock()
				done := len(counts) == tc.rounds
				if done {
					for _, c := range counts {
						if c != 2 {
							done = false
						}
					}
				}
				mu.Unlock()
				if done {
					break
				}
				time.Sleep(5 * time.Millisecond)
			}
			mu.Lock()
			defer mu.Unlock()
			for k := 0; k < tc.rounds; k++ {
				if counts[byte(k)] != 2 {
					t.Fatalf("round %d delivered %d of 2 members under impairment", k, counts[byte(k)])
				}
			}
			for i, log := range logs {
				for j := 1; j < len(log); j++ {
					if log[j] < log[j-1] {
						t.Fatalf("proc %d delivered out of timestamp order under impairment", i)
					}
				}
			}
		})
	}
}
