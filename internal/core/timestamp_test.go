package core

import (
	"testing"
	"testing/quick"

	"onepipe/internal/netsim"
	"onepipe/internal/sim"
)

// stubWire drives a Host without any network: sends are recorded, time is
// advanced manually.
type stubWire struct {
	now    sim.Time
	sent   []*netsim.Packet
	timers []stubTimer
}

type stubTimer struct {
	at sim.Time
	fn func()
}

func (w *stubWire) Send(p *netsim.Packet) { w.sent = append(w.sent, p) }
func (w *stubWire) Now() sim.Time         { return w.now }
func (w *stubWire) Timer(fn func()) *sim.Timer {
	return sim.NewWallTimer(func(d sim.Time, fire func()) {
		w.timers = append(w.timers, stubTimer{at: w.now + d, fn: fire})
	}, fn)
}

// advance runs due timers in order.
func (w *stubWire) advance(to sim.Time) {
	for {
		best := -1
		for i, t := range w.timers {
			if t.at <= to && (best < 0 || t.at < w.timers[best].at) {
				best = i
			}
		}
		if best < 0 {
			break
		}
		t := w.timers[best]
		w.timers = append(w.timers[:best], w.timers[best+1:]...)
		w.now = t.at
		t.fn()
	}
	w.now = to
}

func stubHost() (*Host, *stubWire) {
	w := &stubWire{}
	h := NewHost(0, w, DefaultConfig())
	h.AddProc(0)
	return h, w
}

// Property: timestamps assigned by nextTS are strictly increasing and
// strictly above every previously advertised commit floor, for any
// interleaving of clock advances and floor advertisements.
func TestTimestampAssignmentProperty(t *testing.T) {
	f := func(steps []uint8) bool {
		h, w := stubHost()
		lastTS := sim.Time(-1)
		maxAdvertised := sim.Time(-1)
		for _, s := range steps {
			switch s % 3 {
			case 0:
				w.now += sim.Time(s) * 10
			case 1:
				adv := h.commitAdvertise()
				if adv < maxAdvertised {
					return false // advertised floor regressed
				}
				maxAdvertised = adv
			case 2:
				ts := h.nextTS()
				if ts <= lastTS {
					return false
				}
				if ts <= maxAdvertised {
					return false // assignment at or below a promise
				}
				lastTS = ts
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestTsFloorCoversLastAssignment(t *testing.T) {
	h, w := stubHost()
	w.now = 100
	ts := h.nextTS()
	// Clock did not advance: the floor must still cover the assignment.
	if f := h.tsFloor(); f < ts {
		t.Fatalf("floor %v below last assigned %v", f, ts)
	}
	w.now = 200
	if f := h.tsFloor(); f != 200 {
		t.Fatalf("floor %v, want clock 200", f)
	}
}

func TestCommitFloorTracksOutstandingHead(t *testing.T) {
	h, w := stubHost()
	w.now = 1000
	if err := h.procs[0].SendReliable([]Message{{Dst: 1, Size: 16}}); err != nil {
		t.Fatal(err)
	}
	ts := h.outstanding[0].ts
	if f := h.commitFloor(); f != ts-1 {
		t.Fatalf("commit floor %v, want head ts-1 = %v", f, ts-1)
	}
	// Second scattering doesn't move the floor (head unchanged).
	w.now = 2000
	h.procs[0].SendReliable([]Message{{Dst: 1, Size: 16}})
	if f := h.commitFloor(); f != ts-1 {
		t.Fatalf("commit floor %v moved despite outstanding head", f)
	}
}

func TestEmitStampsMonotonicBarriers(t *testing.T) {
	h, w := stubHost()
	var lastBE, lastC sim.Time
	for i := 0; i < 100; i++ {
		w.now += sim.Time(i%7) * 100
		h.emit(&netsim.Packet{Kind: netsim.KindBeacon, Size: netsim.BeaconBytes})
		p := w.sent[len(w.sent)-1]
		if p.BarrierBE < lastBE || p.BarrierC < lastC {
			t.Fatalf("emitted barriers regressed at %d", i)
		}
		if p.BarrierC > p.BarrierBE {
			t.Fatalf("commit floor %v above BE floor %v", p.BarrierC, p.BarrierBE)
		}
		lastBE, lastC = p.BarrierBE, p.BarrierC
	}
}
