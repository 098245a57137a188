// Package core implements lib1pipe, the end-host runtime of 1Pipe (§6.1).
//
// A Host owns every 1Pipe process on one machine: it assigns monotonic
// message timestamps, runs the send buffer with scattering credits and
// DCTCP-style congestion control, fragments messages into UD-style packets,
// tracks end-to-end ACKs, computes the commit floor of reliable 1Pipe's two
// phase commit, generates beacons on the idle uplink, and reorders received
// messages in a priority queue for barrier-gated delivery.
//
// The package is substrate-independent: all I/O goes through the Wire
// interface, so the same state machines run on the deterministic network
// simulator (internal/netsim) and the real-time emulator (internal/livenet).
package core

import (
	"onepipe/internal/netsim"
	"onepipe/internal/sim"
)

// Wire abstracts the host's attachment to the network and to time. Now
// must return the host's synchronized, monotonically non-decreasing clock.
type Wire interface {
	// Send injects a packet from this host into the network.
	Send(pkt *netsim.Packet)
	// Now returns the host clock in nanoseconds.
	Now() sim.Time
	// Timer returns a disarmed timer on the host clock that runs fn when
	// it fires, serialized with the host's other work.
	Timer(fn func()) *sim.Timer
}

// Message is one element of a scattering: payload for one destination.
type Message struct {
	Dst  netsim.ProcID
	Data any
	// Size is the payload size in bytes used for fragmentation and
	// bandwidth accounting; zero is treated as 64.
	Size int
}

// Delivery is a message handed to the application, in (TS, Src) total
// order.
type Delivery struct {
	TS       sim.Time
	Src, Dst netsim.ProcID
	Data     any
	Reliable bool
	// Conflict is the sender-declared conflict key (DeliverConflictAware).
	// 0 = declared non-conflicting: delivered as soon as locally stable,
	// outside the cross-class total order.
	Conflict uint32
}

// SendFailure reports a message that will not be delivered: a best-effort
// message that was lost or NAKed, or a reliable message recalled because a
// receiver in its scattering failed (Table 1's send-fail callback).
type SendFailure struct {
	TS   sim.Time
	Dst  netsim.ProcID
	Data any
}

// DeliveryMode selects how the two reliability classes interleave at a
// receiver.
type DeliveryMode uint8

const (
	// DeliverSeparate treats best-effort and reliable 1Pipe as two
	// independent totally-ordered streams — the paper's default, giving
	// best-effort its 0.5 RTT + barrier-wait latency.
	DeliverSeparate DeliveryMode = iota
	// DeliverUnified gates every delivery on min(barrierBE, barrierC) so
	// the two classes form a single cross-class total order; best-effort
	// messages then pay commit-plane freshness when reliable traffic is
	// active.
	DeliverUnified
	// DeliverConflictAware relaxes DeliverUnified per Generic Multicast:
	// messages tagged with a nonzero SendOptions.ConflictKey keep the full
	// unified barrier wait (and are totally ordered against every other
	// tagged message, regardless of key value — a deliberately coarse
	// conflict relation, see DESIGN.md), while untagged (key 0) messages
	// deliver as soon as they are locally stable: best-effort immediately
	// on reassembly, reliable once the commit barrier covers them (so the
	// §5.2 recall window still protects atomicity). Untagged deliveries
	// never advance the total-order floors, so with every message tagged
	// the delivery log is byte-identical to DeliverUnified.
	DeliverConflictAware
)

// Config parameterizes lib1pipe on one host.
type Config struct {
	// MTU is the maximum payload bytes per packet.
	MTU int
	// RecvWindow is the per-connection receive buffer provision, in
	// packets; it caps the send window.
	RecvWindow int
	// InitCwnd and MaxCwnd bound the DCTCP congestion window (packets).
	InitCwnd, MaxCwnd float64
	// DCTCPGain is the g parameter of the DCTCP alpha EWMA.
	DCTCPGain float64
	// RTO is the reliable-service retransmission timeout.
	RTO sim.Time
	// MaxRetx bounds retransmissions before the sender escalates to the
	// controller (0 = unbounded).
	MaxRetx int
	// SendFailTimeout is how long a best-effort message may stay unACKed
	// before the send-failure callback fires (loss detection without
	// retransmission, §2.1).
	SendFailTimeout sim.Time
	// BeaconInterval is the host uplink beacon period (§4.2).
	BeaconInterval sim.Time
	// UseDataBarriers: with a programmable chip every received packet
	// carries valid barriers; with switch-CPU or host-delegate processing
	// only beacons do (§6.2.2).
	UseDataBarriers bool
	// Mode selects the delivery interleaving (see DeliveryMode).
	Mode DeliveryMode
	// DisableBEAck turns off best-effort ACK generation (halves packet
	// count when loss detection is not needed, e.g. throughput sweeps).
	DisableBEAck bool
	// AckFlush batches end-to-end ACKs: per sender, ACK PSNs accumulate
	// for up to AckFlush (or AckBatchMax entries) before one coalesced
	// ACK packet is emitted — the polling-thread batching that keeps ACK
	// packet rate off the NIC's critical path (§6.1). Zero disables
	// batching (one ACK per packet).
	AckFlush    sim.Time
	AckBatchMax int
	// DeliveryHoldback artificially lowers the effective barriers by the
	// given amount, inflating delivery latency and reorder-buffer
	// occupancy — the knob behind the paper's Fig. 11 overhead sweep.
	DeliveryHoldback sim.Time
	// BatchWindow is how long a partial multi-message frame waits for more
	// same-destination traffic before the doorbell flushes it (§6.1 send
	// batching). DisableBatching turns coalescing off entirely (one packet
	// per fragment, the pre-batching wire behavior).
	BatchWindow     sim.Time
	BatchBytes      int // frame payload budget; defaults to MTU
	DisableBatching bool
	// SendQueueCap bounds each connection's doorbell/send queue in
	// fragments; sends that would exceed it fail with ErrBackpressure.
	SendQueueCap int
	// DisablePiggyback restores unconditional beacon ticks instead of
	// suppressing beacons while data emissions already carry the floor.
	DisablePiggyback bool
	// ReorderHotCap bounds each delivery heap (per reliability plane) to
	// this many hot entries. Overflow spills to the per-host ordered cold
	// store and is refilled as the barriers advance, so hot reorder memory
	// stays O(cap) while delivery order is unchanged (hybrid buffering;
	// Almeida's bounded hot buffer + ordered spill). 0 = unbounded.
	ReorderHotCap int
	// ConnIdleEvict enables lazy connection lifecycle: per-peer send and
	// receive state idle for at least this long — and holding no in-flight,
	// queued, parked or partially reassembled data — is reclaimed, leaving
	// only a small PSN cursor behind so the connection re-establishes
	// safely mid-epoch on next use. 0 disables eviction (eager state for
	// the whole fabric, the historical behavior).
	ConnIdleEvict sim.Time
}

// DefaultConfig matches the paper's deployment parameters.
func DefaultConfig() Config {
	return Config{
		MTU:             1024,
		RecvWindow:      1024,
		InitCwnd:        64,
		MaxCwnd:         1024,
		DCTCPGain:       1.0 / 16.0,
		RTO:             20 * sim.Microsecond,
		MaxRetx:         64,
		SendFailTimeout: 100 * sim.Microsecond,
		BeaconInterval:  3 * sim.Microsecond,
		UseDataBarriers: true,
		Mode:            DeliverSeparate,
		AckFlush:        1 * sim.Microsecond,
		AckBatchMax:     32,
		BatchWindow:     1 * sim.Microsecond,
		BatchBytes:      1024,
		SendQueueCap:    65536,
	}
}

// SendOptions parameterizes one scattering; the zero value is a
// best-effort send with the host's default batching.
type SendOptions struct {
	// Reliable selects reliable 1Pipe (2PC, recall on failure) instead of
	// best-effort.
	Reliable bool
	// BatchWindow overrides Config.BatchWindow for this scattering when
	// positive.
	BatchWindow sim.Time
	// NoBatch exempts this scattering from frame coalescing.
	NoBatch bool
	// ConflictKey declares the scattering's conflict class for
	// DeliverConflictAware receivers. 0 (the default) declares it
	// non-conflicting; other modes ignore the key.
	ConflictKey uint32
}

func (c Config) withDefaults() Config {
	d := DefaultConfig()
	if c.MTU <= 0 {
		c.MTU = d.MTU
	}
	if c.RecvWindow <= 0 {
		c.RecvWindow = d.RecvWindow
	}
	if c.InitCwnd <= 0 {
		c.InitCwnd = d.InitCwnd
	}
	if c.MaxCwnd <= 0 {
		c.MaxCwnd = d.MaxCwnd
	}
	if c.DCTCPGain <= 0 {
		c.DCTCPGain = d.DCTCPGain
	}
	if c.RTO <= 0 {
		c.RTO = d.RTO
	}
	if c.SendFailTimeout <= 0 {
		c.SendFailTimeout = d.SendFailTimeout
	}
	if c.BeaconInterval <= 0 {
		c.BeaconInterval = d.BeaconInterval
	}
	if c.BatchWindow <= 0 {
		c.BatchWindow = d.BatchWindow
	}
	if c.BatchBytes <= 0 {
		c.BatchBytes = c.MTU
	}
	if c.SendQueueCap <= 0 {
		c.SendQueueCap = d.SendQueueCap
	}
	return c
}
