package core

import (
	"testing"

	"onepipe/internal/sim"
)

// TestPendingExcludesStoppedCoreTimers: when the protocol stops an armed
// core timer — the RTO once a reliable send is ACKed, the best-effort fail
// timer once a best-effort send is ACKed, a doorbell whose held frame was
// flushed — the superseded firing stays in the engine heap as a tombstone,
// and Engine.Pending must not count it. Core timers that bypassed the
// engine's tombstone tally left Pending one high per stopped timer until
// the dead firing's deadline passed.
func TestPendingExcludesStoppedCoreTimers(t *testing.T) {
	cl := smallNet(t, 1, nil)
	for _, p := range cl.Procs {
		p.OnDeliver = func(Delivery) {}
	}
	eng := cl.Net.Eng
	h := cl.Hosts[0]
	// An idle fabric's live events are beacons, their hops and the
	// periodic scans; sampled a whole number of beacon intervals apart,
	// their count is a constant.
	beacon := h.Cfg.BeaconInterval
	cl.Run(50 * sim.Microsecond)
	base := eng.Pending()
	cl.Run(2 * beacon)
	if got := eng.Pending(); got != base {
		t.Fatalf("idle Pending drifted %d -> %d", base, got)
	}
	// Settle for four intervals: long enough for the ACKs, well inside
	// the 20us RTO and 100us fail timeout, so the stopped firings are
	// still queued when Pending is read.
	settle := 4 * beacon

	if err := cl.Proc(0).SendReliable([]Message{{Dst: 5, Size: 64}}); err != nil {
		t.Fatal(err)
	}
	cl.Run(beacon)
	c := h.conns[connKey{src: 0, dst: 5}]
	if c == nil || !c.rto.Armed() {
		t.Fatal("reliable send did not arm the RTO")
	}
	cl.Run(settle - beacon)
	if c.rto.Armed() {
		t.Fatal("RTO still armed after the ACK")
	}
	if got := eng.Pending(); got != base {
		t.Fatalf("Pending after the RTO was stopped = %d, want %d", got, base)
	}

	if err := cl.Proc(0).Send([]Message{{Dst: 6, Size: 64}}); err != nil {
		t.Fatal(err)
	}
	if n := len(h.outstanding); n != 0 {
		t.Fatalf("best-effort send left %d outstanding scatterings", n)
	}
	cl.Run(settle)
	if h.Stats.MsgsFailed != 0 {
		t.Fatalf("best-effort send failed: %d", h.Stats.MsgsFailed)
	}
	if got := eng.Pending(); got != base {
		t.Fatalf("Pending after the fail timer was stopped = %d, want %d", got, base)
	}

	c.doorbell.Reset(h.Cfg.BatchWindow)
	if got := eng.Pending(); got != base+1 {
		t.Fatalf("Pending with the doorbell armed = %d, want %d", got, base+1)
	}
	c.doorbell.Stop()
	if got := eng.Pending(); got != base {
		t.Fatalf("Pending after the doorbell was stopped = %d, want %d", got, base)
	}
	cl.Run(settle)
	if got := eng.Pending(); got != base {
		t.Fatalf("Pending after the doorbell tombstone ran = %d, want %d", got, base)
	}
}
