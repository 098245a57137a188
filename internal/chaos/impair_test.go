package chaos

import (
	"testing"

	"onepipe/internal/netsim"
	"onepipe/internal/sim"
	"onepipe/internal/topology"
)

// TestProfileExpressedKnobsFullEquivalence pins the full digest — delivery
// logs and callback logs both — of a crafted plan whose uniform loss and
// jitter are both nonzero (the golden seeds draw theirs, so either may be
// zero). The pinned value was recorded from the retired Config.LossRate/
// Config.Jitter knobs; the profile's uniform Loss/Jitter draw from the
// shard RNG at the same code points, so the profile-only run reproduces it.
func TestProfileExpressedKnobsFullEquivalence(t *testing.T) {
	const (
		wantFull       = "b597c67f6617ef56054ec0b95f8912b22ef16e64eaddb3b10f5e9e4345288401"
		wantDeliveries = 7532
	)
	p := craftedPlan(1311,
		Fault{At: 1500 * sim.Microsecond, Kind: FaultHostCrash, Host: 4})
	p.Impair = netsim.Uniform(netsim.Impairment{Loss: 0.008, Jitter: 400 * sim.Nanosecond})
	r := Run(p)
	if got := r.FullDigest(); got != wantFull {
		t.Errorf("full digest %s, want %s", got, wantFull)
	}
	if got := r.TotalDeliveries(); got != wantDeliveries {
		t.Errorf("%d deliveries, want %d", got, wantDeliveries)
	}
}

// TestScenarioBurstLossProfileUnderCrash runs a Gilbert-Elliott burst-loss
// profile (host links only) concurrently with a loss-burst fault and a host
// crash: the §5.2 failure path under correlated loss. runSeed replays the
// plan twice and demands full-digest equality — the per-link impairment RNG
// is part of the determinism contract — and the whole invariant catalog
// must hold on the result.
func TestScenarioBurstLossProfileUnderCrash(t *testing.T) {
	p := craftedPlan(2026,
		Fault{At: 1200 * sim.Microsecond, Kind: FaultLossBurst, Rate: 0.15, Dur: 400 * sim.Microsecond},
		Fault{At: 2000 * sim.Microsecond, Kind: FaultHostCrash, Host: 1})
	p.Impair = &netsim.Profile{
		Default: &netsim.Impairment{Jitter: 200 * sim.Nanosecond},
		ByKind: map[topology.LinkKind]*netsim.Impairment{
			topology.LinkHostUp:      {GE: netsim.BurstLoss(0.01, 6), Jitter: 200 * sim.Nanosecond},
			topology.LinkTorHostDown: {GE: netsim.BurstLoss(0.01, 6), Jitter: 200 * sim.Nanosecond},
		},
	}
	r := runSeed(t, p)
	if vios := Check(r); len(vios) > 0 {
		for _, v := range vios {
			t.Errorf("invariant violated: %v", v)
		}
	}
	if r.TotalDeliveries() == 0 {
		t.Fatal("no deliveries under burst-loss profile")
	}
}
