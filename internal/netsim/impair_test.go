package netsim

import (
	"math"
	"testing"

	"onepipe/internal/sim"
	"onepipe/internal/topology"
)

// TestGEStatistics drives the Gilbert-Elliott chain over many packets and
// checks the empirical average loss and mean burst length against the
// analytic values (avg = PGB/(PGB+PBG), mean burst = 1/PBG).
func TestGEStatistics(t *testing.T) {
	const (
		avgLoss   = 0.05
		meanBurst = 8.0
		packets   = 400000
	)
	st := NewImpairState(&Impairment{GE: BurstLoss(avgLoss, meanBurst)}, 42, 7)
	drops, bursts, cur := 0, 0, 0
	for i := 0; i < packets; i++ {
		if st.dropBurst(0) {
			drops++
			cur++
		} else if cur > 0 {
			bursts++
			cur = 0
		}
	}
	if cur > 0 {
		bursts++
	}
	emp := float64(drops) / packets
	if math.Abs(emp-avgLoss) > 0.2*avgLoss {
		t.Errorf("empirical loss %.4f, want %.4f ±20%%", emp, avgLoss)
	}
	empBurst := float64(drops) / float64(bursts)
	if math.Abs(empBurst-meanBurst) > 0.15*meanBurst {
		t.Errorf("empirical mean burst %.2f, want %.2f ±15%%", empBurst, meanBurst)
	}
}

// TestGEDrawsNothingWhenUnset: a link whose impairment has no stateful loss
// model must not consume the per-link RNG on the drop path (the determinism
// contract: enabling GE on one link never perturbs another link's stream).
func TestGEDrawsNothingWhenUnset(t *testing.T) {
	st := NewImpairState(&Impairment{ExtraDelay: sim.Microsecond}, 1, 3)
	before := st.rng.Int63()
	st2 := NewImpairState(&Impairment{ExtraDelay: sim.Microsecond}, 1, 3)
	for i := 0; i < 100; i++ {
		if st2.dropBurst(sim.Time(i)) {
			t.Fatal("unexpected drop")
		}
		if st2.reorderExtra() != 0 {
			t.Fatal("unexpected reorder")
		}
	}
	if got := st2.rng.Int63(); got != before {
		t.Errorf("drop/reorder path consumed RNG draws with no stateful model configured")
	}
}

// TestDutyCycleWindows: duty-cycle loss drops everything inside On windows
// and nothing outside them when Rate defaults to 1.
func TestDutyCycleWindows(t *testing.T) {
	st := NewImpairState(&Impairment{
		Duty: &DutyCycle{On: 10 * sim.Microsecond, Off: 90 * sim.Microsecond},
	}, 9, 1)
	period := 100 * sim.Microsecond
	for cycle := 0; cycle < 3; cycle++ {
		base := sim.Time(cycle) * period
		if !st.dropBurst(base + 5*sim.Microsecond) {
			t.Errorf("cycle %d: packet inside On window survived", cycle)
		}
		if st.dropBurst(base + 50*sim.Microsecond) {
			t.Errorf("cycle %d: packet inside Off window dropped", cycle)
		}
	}
}

// TestProfileResolution checks most-specific-wins: ByLink over ByKind over
// Default, and that a nil profile resolves to nil everywhere.
func TestProfileResolution(t *testing.T) {
	var nilP *Profile
	if nilP.For(1, topology.LinkHostUp) != nil {
		t.Fatal("nil profile must resolve nil")
	}
	def := &Impairment{Loss: 0.1}
	kind := &Impairment{Loss: 0.2}
	link := &Impairment{Loss: 0.3}
	p := &Profile{
		Default: def,
		ByKind:  map[topology.LinkKind]*Impairment{topology.LinkHostUp: kind},
		ByLink:  map[topology.LinkID]*Impairment{7: link},
	}
	if got := p.For(7, topology.LinkHostUp); got != link {
		t.Errorf("ByLink should win, got %+v", got)
	}
	if got := p.For(8, topology.LinkHostUp); got != kind {
		t.Errorf("ByKind should win, got %+v", got)
	}
	if got := p.For(8, topology.LinkLoopback); got != def {
		t.Errorf("Default should apply, got %+v", got)
	}
}

// TestBurstLossDerivation: the convenience constructor must hit the asked-for
// stationary loss rate and burst length analytically.
func TestBurstLossDerivation(t *testing.T) {
	ge := BurstLoss(0.02, 5)
	pi := ge.PGoodBad / (ge.PGoodBad + ge.PBadGood)
	if math.Abs(pi-0.02) > 1e-12 {
		t.Errorf("stationary bad prob %.6f, want 0.02", pi)
	}
	if math.Abs(1/ge.PBadGood-5) > 1e-12 {
		t.Errorf("mean burst %.3f, want 5", 1/ge.PBadGood)
	}
}

// TestUniformLossProfileMatchesLegacy pins the drop count of a small
// fabric workload under a uniform loss+jitter profile. The pinned value was
// recorded from the retired Config.LossRate/Config.Jitter knobs: the
// profile's uniform components draw from the shard RNG at the same code
// points, so the profile replays the legacy run draw for draw.
func TestUniformLossProfileMatchesLegacy(t *testing.T) {
	const legacyDrops = 99
	topo := topology.ClosConfig{Pods: 1, RacksPerPod: 2, HostsPerRack: 2, SpinesPerPod: 1, Cores: 1}
	cfg := DefaultConfig(topo, 1)
	cfg.Seed = 77
	cfg.Impair = Uniform(Impairment{Loss: 0.08, Jitter: 300 * sim.Nanosecond})
	n := New(cfg)
	for i := 0; i < 400; i++ {
		src := ProcID(i % 4)
		n.SendFromProc(src, &Packet{Kind: KindData, Src: src, Dst: ProcID((i + 1) % 4), Size: 256})
		n.Eng.RunFor(500 * sim.Nanosecond)
	}
	n.Eng.RunFor(100 * sim.Microsecond)
	if got := n.Stats.CorruptDrop; got != legacyDrops {
		t.Errorf("drops %d, want %d", got, legacyDrops)
	}
}

// lossFaultNet builds a network with no host beacons, so host uplinks
// carry only the data the test sends.
func lossFaultNet(imp *Profile) *Network {
	cfg := DefaultConfig(topology.ClosConfig{Pods: 1, RacksPerPod: 2, HostsPerRack: 2, SpinesPerPod: 1, Cores: 1}, 1)
	cfg.Seed = 13
	cfg.Impair = imp
	return New(cfg)
}

// sendData sends count data packets from host 0 to host 3 (across racks:
// host uplink, ToR-spine, spine-ToR and ToR-host links), one per 500 ns.
func sendData(n *Network, count int) {
	for i := 0; i < count; i++ {
		n.SendFromHost(0, &Packet{Kind: KindData, Src: 0, Dst: 3, Size: 128})
		n.Eng.RunFor(500 * sim.Nanosecond)
	}
	n.Eng.RunFor(20 * sim.Microsecond)
}

// TestLossFaultOverridesProfile: while armed, SetLossFault replaces the
// uniform loss of every link — the ByKind-profiled host uplink and the
// unprofiled fabric links alike; clearing it restores the profile's own
// Loss on the uplink and nothing elsewhere.
func TestLossFaultOverridesProfile(t *testing.T) {
	n := lossFaultNet(&Profile{ByKind: map[topology.LinkKind]*Impairment{
		topology.LinkHostUp: {Loss: 0.25},
	}})
	delivered := 0
	n.AttachHost(3, func(p *Packet) {
		if p.Kind == KindData {
			delivered++
		}
	})
	const sent = 400
	phase := func(name string, fault, lo, hi float64) {
		t.Helper()
		delivered = 0
		drop0 := n.Stats.CorruptDrop
		n.SetLossFault(fault)
		sendData(n, sent)
		drops := int(n.Stats.CorruptDrop - drop0)
		if delivered+drops != sent {
			t.Fatalf("%s: delivered %d + dropped %d != sent %d", name, delivered, drops, sent)
		}
		if rate := float64(delivered) / sent; rate < lo || rate > hi {
			t.Fatalf("%s: delivered fraction %.3f, want in [%.2f, %.2f]", name, rate, lo, hi)
		}
	}
	// 0.5 on each of four links survives 1/16 of the time; had the fault
	// reached only the profiled uplink, half would survive.
	phase("armed", 0.5, 0.02, 0.12)
	// Cleared: only the uplink's 0.25 remains.
	phase("cleared", 0, 0.65, 0.85)
}

// TestLossFaultDrawsNothingWithoutProfile: on an unprofiled fabric the hook
// at rate 0 must not consume the shard RNG — the stream after the run equals
// that of a run where the hook is never touched — while an armed window
// does consume it.
func TestLossFaultDrawsNothingWithoutProfile(t *testing.T) {
	run := func(faults ...float64) (next int64, drops uint64) {
		n := lossFaultNet(nil)
		for _, rate := range faults {
			n.SetLossFault(rate)
			sendData(n, 50)
		}
		n.SetLossFault(0)
		sendData(n, 50)
		return n.rng.Int63(), n.Stats.CorruptDrop
	}
	never, _ := run()
	cleared, drops := run(0, 0)
	if drops != 0 || cleared != never {
		t.Fatalf("unarmed hook changed the shard-RNG stream (%d drops)", drops)
	}
	armed, drops := run(0.3, 0)
	if drops == 0 || armed == never {
		t.Fatal("armed fault neither dropped nor drew: the comparison is vacuous")
	}
}
