package main

import (
	"sync/atomic"
	"time"

	"onepipe/internal/core"
	"onepipe/internal/netsim"
	"onepipe/internal/sim"
)

// span accumulates the self time and call count of one wrapped boundary.
type span struct{ ns, calls atomic.Int64 }

func (s *span) add(d time.Duration) {
	s.ns.Add(int64(d))
	s.calls.Add(1)
}

func (s *span) perCall() float64 {
	if c := s.calls.Load(); c > 0 {
		return float64(s.ns.Load()) / float64(c)
	}
	return 0
}

// tracer holds what the traced run records at the layer boundaries the
// benchmark can wrap from outside the program: packet receive into a host
// (Host.HandlePacket, re-attached through netsim.AttachHost), application
// delivery callbacks, and Process.Send. A nil *tracer records nothing, so
// the untraced run pays one nil check per boundary.
type tracer struct {
	rx      span // HandlePacket minus the delivery callbacks it ran
	deliver span // delivery callbacks
	send    span // Process.Send
	// pendingMax is the deepest engine queue seen between run slices.
	pendingMax int
	// lateMaxUs is how late the open-loop generator sent, at worst.
	lateMaxUs float64
}

// wrapRx re-attaches h's receive path so each packet's HandlePacket time
// is recorded, minus the delivery callbacks nested inside it.
func (t *tracer) wrapRx(net *netsim.Network, h *core.Host) {
	if t == nil {
		return
	}
	net.AttachHost(h.ID, func(pkt *netsim.Packet) {
		nested := t.deliver.ns.Load()
		t0 := time.Now()
		h.HandlePacket(pkt)
		d := time.Since(t0) - time.Duration(t.deliver.ns.Load()-nested)
		t.rx.add(d)
	})
}

// begin starts a span; it reads no clock when not tracing.
func (t *tracer) begin() time.Time {
	if t == nil {
		return time.Time{}
	}
	return time.Now()
}

// endDeliver closes a delivery-callback span begun at t0.
func (t *tracer) endDeliver(t0 time.Time) {
	if t != nil {
		t.deliver.add(time.Since(t0))
	}
}

// endSend closes a Process.Send span begun at t0.
func (t *tracer) endSend(t0 time.Time) {
	if t != nil {
		t.send.add(time.Since(t0))
	}
}

// advance runs the simulation for d. Traced, it runs in slices and samples
// the engine queue depth between them; RunUntil executes every event up to
// its deadline, so slicing does not change the event order.
func (t *tracer) advance(run func(sim.Time), pending func() int, d sim.Time) {
	if t == nil {
		run(d)
		return
	}
	const slice = 5 * sim.Microsecond
	for d > 0 {
		s := min(d, slice)
		run(s)
		d -= s
		t.pendingMax = max(t.pendingMax, pending())
	}
}
