package core

import (
	"errors"
	"fmt"
	"sort"

	"onepipe/internal/netsim"
	"onepipe/internal/obs"
	"onepipe/internal/sim"
	"onepipe/internal/stats"
)

// ErrSendBufferFull is returned when the credit wait queue is at capacity;
// the application should back off and retry (§6.1: "If the send buffer is
// full, the send API returns fail").
var ErrSendBufferFull = errors.New("onepipe: send buffer full")

// ErrNoMessages is returned for an empty scattering.
var ErrNoMessages = errors.New("onepipe: empty scattering")

// ErrClosed is returned for sends on a stopped host or a closed fabric.
var ErrClosed = errors.New("onepipe: closed")

// ErrBackpressure is the sentinel matched by errors.Is for
// *BackpressureError returns.
var ErrBackpressure = errors.New("onepipe: backpressure")

// BackpressureError is returned when a destination's doorbell/send queue
// is at Config.SendQueueCap: instead of growing the queue without bound
// the send is refused, carrying the earliest time the queue is expected
// to have drained enough to retry.
type BackpressureError struct {
	// Dst is the congested destination.
	Dst netsim.ProcID
	// RetryAt is the earliest-drain estimate: the congested connection's
	// pending doorbell flush if one is armed, otherwise one RTO from now.
	RetryAt sim.Time
}

func (e *BackpressureError) Error() string {
	return fmt.Sprintf("onepipe: backpressure toward %d, retry at %v", e.Dst, e.RetryAt)
}

// Is makes errors.Is(err, ErrBackpressure) match.
func (e *BackpressureError) Is(target error) bool { return target == ErrBackpressure }

// sendBufCap bounds the number of credit-blocked scatterings per host.
const sendBufCap = 65536

// HostStats counts per-host protocol events.
type HostStats struct {
	MsgsSent          uint64
	MsgsDelivered     uint64
	MsgsFailed        uint64
	PktsSent          uint64
	PktsRetx          uint64
	Naks              uint64
	DupPkts           uint64
	Commits           uint64
	Beacons           uint64
	BeaconsSuppressed uint64 // beacon ticks elided because data carried the floor
	Recalled          uint64
	StuckReports      uint64 // MaxRetx exhaustions escalated, deduplicated per (dst, ts)
	FramesSent        uint64 // multi-message frames emitted (>= 2 live members)
	FrameMsgs         uint64 // messages carried inside multi-message frames
	Backpressure      uint64 // sends refused with ErrBackpressure
	DeliverBatches    uint64 // OnDeliverBatch invocations
	BufferedBytes     int64  // current reorder-buffer occupancy
	MaxBufferBytes    int64
	BufferedMsgs      int64
	// RelaxedDeliveries counts deliveries that bypassed the cross-class
	// total order: untagged messages under DeliverConflictAware.
	RelaxedDeliveries uint64
	// Hybrid reorder buffering and lazy connection lifecycle gauges.
	ReorderSpills   uint64 // entries that overflowed a hot heap into the cold store
	ReorderHotBytes int64  // current hot-heap occupancy across both planes, bytes
	ReorderHotMax   int64  // peak hot-heap occupancy of either plane, entries
	ConnsLive       int64  // current conn + rconn state objects
	ConnsEvicted    uint64 // idle conn/rconn evictions performed
}

// Host is the lib1pipe runtime for one machine (§6.1). All processes on
// the host share its clock, its uplink and its barrier state.
type Host struct {
	Cfg   Config
	ID    int
	Stats HostStats

	// Obs, if set, receives message-lifecycle span records (internal/obs).
	// Install it before traffic flows; a nil tracer costs the hot path one
	// predictable branch per record site.
	Obs *obs.Trace

	wire  Wire
	procs map[netsim.ProcID]*Proc

	// Timestamping.
	lastTS      sim.Time // last assigned message timestamp
	advertisedC sim.Time // commit floor most recently advertised
	// Send side.
	conns map[connKey]*conn
	waitQ []*scattering // credit-blocked, FIFO (held credits, §6.1)
	// holding maps connections with a doorbell-held partial frame to the
	// held head's timestamp; heldFloor caches the minimum so tsFloor can
	// clamp the advertised barrier below every held (already timestamped
	// but not yet emitted) message in O(1).
	holding   map[*conn]sim.Time
	heldFloor sim.Time
	// sendOcc / recvOcc record batch occupancy: messages per emitted
	// batchable unit and per delivery batch.
	sendOcc *stats.Histogram
	recvOcc *stats.Histogram
	// outstanding holds launched reliable scatterings in ascending ts
	// order until fully ACKed or aborted; its head bounds the commit
	// floor (§5.1 Commit phase).
	outstanding []*scattering
	// Receive side.
	rconns    map[connKey]*rconn
	barrierBE sim.Time
	barrierC  sim.Time
	// beQ/relQ order the two reliability planes; rlxQ holds untagged
	// reliable traffic under DeliverConflictAware, drained by the commit
	// barrier alone (outside the cross-class order).
	beQ, relQ, rlxQ reorderBuf
	deliveredBE     sim.Time
	deliveredC      sim.Time
	// Lazy connection lifecycle: evicted peers leave a tiny PSN cursor
	// behind (send-side next PSNs, receive-side consumed-prefix bases) so
	// the pair re-establishes mid-epoch without a handshake; evictTimer
	// drives the periodic idle sweep when Config.ConnIdleEvict is set.
	connMemo   map[connKey]connCursor
	rconnMemo  map[connKey][2]uint32
	evictTimer *sim.Timer
	// batchQ accumulates a contiguous run of below-barrier deliveries for
	// one process during drain; flushed through OnDeliverBatch. The slice
	// is reused across batches — receivers must not retain it.
	batchQ   []Delivery
	batchDst netsim.ProcID
	// Failure state.
	failedPeers map[netsim.ProcID]sim.Time // proc -> failure timestamp
	recallTomb  map[recallKey]bool
	recalls     map[recallKey]*recallState
	ackPending  map[ackKey]*ackPend
	failDone    func()
	failWait    int
	// stuckReported deduplicates OnStuck escalations: retransmission
	// exhaustion re-examines the same stall every RTO, and the data and
	// recall paths can stall on the same (dst, ts).
	stuckReported map[recallKey]bool

	// OnStuck, if set, is called when a reliable message or recall from
	// src exhausted MaxRetx retransmissions toward dst; the
	// controller-forwarding path (§5.2) hooks in here.
	OnStuck func(src, dst netsim.ProcID, ts sim.Time)

	beaconTimer    *sim.Timer
	lastUplinkSend sim.Time
	stopped        bool
	// draining refuses new sends while the window flushes — the first
	// phase of a graceful leave. Unlike stopped, timers keep running so
	// outstanding scatterings can complete and ACKs still flow.
	draining bool
	// reprProc identifies this host on substrates that key uplink barrier
	// registers by packet source (e.g. the UDP switch): beacons and
	// commit messages carry it as Src.
	reprProc netsim.ProcID
	hasRepr  bool
}

type recallKey struct {
	dst netsim.ProcID
	ts  sim.Time
}

type recallState struct {
	scat  *scattering
	timer *sim.Timer
	tries int
}

// NewHost creates the lib1pipe runtime for host id over the given wire.
// Call Start to begin beacon generation, then AddProc for each process.
func NewHost(id int, wire Wire, cfg Config) *Host {
	h := &Host{
		Cfg:           cfg.withDefaults(),
		ID:            id,
		wire:          wire,
		procs:         make(map[netsim.ProcID]*Proc),
		conns:         make(map[connKey]*conn),
		rconns:        make(map[connKey]*rconn),
		failedPeers:   make(map[netsim.ProcID]sim.Time),
		recallTomb:    make(map[recallKey]bool),
		recalls:       make(map[recallKey]*recallState),
		ackPending:    make(map[ackKey]*ackPend),
		stuckReported: make(map[recallKey]bool),
		connMemo:      make(map[connKey]connCursor),
		rconnMemo:     make(map[connKey][2]uint32),
		sendOcc:       new(stats.Histogram),
		recvOcc:       new(stats.Histogram),
	}
	h.beQ.cap = h.Cfg.ReorderHotCap
	h.relQ.cap = h.Cfg.ReorderHotCap
	h.rlxQ.cap = h.Cfg.ReorderHotCap
	return h
}

// SendOccupancy is the distribution of messages per emitted batchable
// unit (1 = a message that found no company within its batch window).
func (h *Host) SendOccupancy() *stats.Histogram { return h.sendOcc }

// RecvOccupancy is the distribution of deliveries per OnDeliverBatch
// invocation.
func (h *Host) RecvOccupancy() *stats.Histogram { return h.recvOcc }

// holdSet records that c is doorbell-holding a partial frame whose oldest
// member carries ts.
func (h *Host) holdSet(c *conn, ts sim.Time) {
	if h.holding == nil {
		h.holding = make(map[*conn]sim.Time)
	}
	if old, ok := h.holding[c]; ok && old == ts {
		return
	}
	h.holding[c] = ts
	h.recomputeHeldFloor()
}

// holdClear removes c from the held set.
func (h *Host) holdClear(c *conn) {
	if _, ok := h.holding[c]; !ok {
		return
	}
	delete(h.holding, c)
	h.recomputeHeldFloor()
}

func (h *Host) recomputeHeldFloor() {
	h.heldFloor = 0
	for _, ts := range h.holding {
		if h.heldFloor == 0 || ts < h.heldFloor {
			h.heldFloor = ts
		}
	}
}

// Start arms the host's uplink beacon generator (§4.2) and, when idle
// eviction is configured, the periodic connection sweep.
func (h *Host) Start() {
	if h.beaconTimer != nil {
		return
	}
	h.beaconTimer = h.wire.Timer(h.beaconTick)
	h.beaconTimer.Reset(h.Cfg.BeaconInterval)
	if h.Cfg.ConnIdleEvict > 0 {
		h.evictTimer = h.wire.Timer(h.evictTick)
		h.evictTimer.Reset(h.Cfg.ConnIdleEvict)
	}
}

func (h *Host) evictTick() {
	if h.stopped {
		return
	}
	h.evictIdle(h.wire.Now() - h.Cfg.ConnIdleEvict)
	h.evictTimer.Reset(h.Cfg.ConnIdleEvict)
}

// evictIdle reclaims per-peer state last used at or before deadline. A
// send-side conn is evictable only when nothing references it: no in-flight
// or parked packets, an empty send queue, no reserved credits, no held
// frame, and no credit-blocked scattering pointing at it. A receive-side
// rconn is evictable only when both planes' assembly buffers are idle (no
// buffered fragments, no reception holes). Eviction leaves a PSN cursor in
// the memo maps so getConn/getRconn re-establish the pair mid-epoch with
// sequence spaces intact. Iteration is over sorted keys: eviction order is
// part of the deterministic replay contract.
func (h *Host) evictIdle(deadline sim.Time) {
	var referenced map[*conn]bool
	if len(h.waitQ) > 0 {
		referenced = make(map[*conn]bool)
		for _, s := range h.waitQ {
			for i := range s.credits {
				referenced[s.credits[i].conn] = true
			}
		}
	}
	for _, k := range sortedConnKeys(h.conns) {
		c := h.conns[k]
		if c.lastUse > deadline || referenced[c] || c.holding {
			continue
		}
		if c.inflight != 0 || c.reserved != 0 || len(c.sendQ) != 0 ||
			len(c.unacked[0]) != 0 || len(c.unacked[1]) != 0 || len(c.stuckPkts) != 0 {
			continue
		}
		c.rto.Stop()
		c.doorbell.Stop()
		h.connMemo[k] = connCursor{nextPSN: c.nextPSN}
		delete(h.conns, k)
		h.Stats.ConnsEvicted++
	}
	for _, k := range sortedConnKeys(h.rconns) {
		rc := h.rconns[k]
		if rc.lastUse > deadline || !rc.bufs[0].idle() || !rc.bufs[1].idle() {
			continue
		}
		h.rconnMemo[k] = [2]uint32{rc.bufs[0].doneBase, rc.bufs[1].doneBase}
		delete(h.rconns, k)
		h.Stats.ConnsEvicted++
	}
	h.Stats.ConnsLive = int64(len(h.conns) + len(h.rconns))
}

// sortedConnKeys returns m's keys in (src, dst) order — the deterministic
// iteration order every map walk with observable side effects must use.
func sortedConnKeys[V any](m map[connKey]V) []connKey {
	keys := make([]connKey, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].src != keys[j].src {
			return keys[i].src < keys[j].src
		}
		return keys[i].dst < keys[j].dst
	})
	return keys
}

// SetFloor forces the host's timestamping state to at least t: the next
// message timestamp and the advertised commit floor both start above it.
// Live reconfiguration calls this on a joining host with the epoch T_join,
// honoring the promise its pre-seeded link registers already made — no
// message from this host may ever carry a timestamp at or below T_join.
func (h *Host) SetFloor(t sim.Time) {
	if t > h.lastTS {
		h.lastTS = t
	}
	if t > h.advertisedC {
		h.advertisedC = t
	}
}

// Drain begins a graceful leave: new sends are refused with ErrClosed, but
// beacons, retransmissions and ACKs keep running until every outstanding
// scattering, queued frame and recall has flushed. done fires once the
// window is empty; the caller then detaches the host from aggregation and
// calls Stop. Distinct from failure: no failure timestamp is assigned, no
// Recall is initiated and no OnStuck report is generated by the drain
// itself.
func (h *Host) Drain(done func()) {
	if h.stopped {
		done()
		return
	}
	h.draining = true
	var tm *sim.Timer
	poll := func() {
		if h.stopped {
			return
		}
		// Send-side state only: receiver duties (ACK coalescing, held
		// deliveries) are continuously refilled by peers still sending and
		// run until Stop; a scattering the departing host never finished
		// acknowledging is recalled at its sender, which is the same
		// outcome an ignored ACK would produce.
		if len(h.outstanding) == 0 && len(h.waitQ) == 0 && len(h.holding) == 0 &&
			len(h.recalls) == 0 {
			done()
			return
		}
		tm.Reset(h.Cfg.BeaconInterval)
	}
	tm = h.wire.Timer(poll)
	poll()
}

// Draining reports whether a graceful leave is in progress.
func (h *Host) Draining() bool { return h.draining }

// Stop halts beacon generation and timers; the host no longer participates.
func (h *Host) Stop() {
	h.stopped = true
	if h.beaconTimer != nil {
		h.beaconTimer.Stop()
	}
	if h.evictTimer != nil {
		h.evictTimer.Stop()
	}
	for _, c := range h.conns {
		if c.rto != nil {
			c.rto.Stop()
		}
		if c.doorbell != nil {
			c.doorbell.Stop()
		}
	}
	for _, r := range h.recalls {
		r.timer.Stop()
	}
	for _, p := range h.ackPending {
		p.timer.Stop()
	}
}

// beaconTick emits the host's periodic uplink beacon (§6.1: the polling
// thread generates periodic beacon packets). When the uplink carried any
// emission within the last interval, that emission already advertised a
// floor at least as fresh as this tick would, so the standalone beacon is
// suppressed (beacon piggybacking); the strict "deliver below barrier"
// rule stays intact because an idle interval always ends with a real
// beacon whose floor exceeds the last data timestamp.
func (h *Host) beaconTick() {
	if h.stopped {
		return
	}
	if !h.Cfg.DisablePiggyback && h.lastUplinkSend > 0 &&
		h.wire.Now()-h.lastUplinkSend < h.Cfg.BeaconInterval {
		h.Stats.BeaconsSuppressed++
	} else {
		h.sendBeacon()
	}
	h.beaconTimer.Reset(h.Cfg.BeaconInterval)
}

func (h *Host) sendBeacon() {
	h.Stats.Beacons++
	pkt := netsim.GetPacket()
	pkt.Kind, pkt.Src, pkt.Size = netsim.KindBeacon, h.reprProc, netsim.BeaconBytes
	h.emit(pkt)
}

// emit stamps the barrier fields every host packet carries and sends it.
func (h *Host) emit(pkt *netsim.Packet) {
	pkt.BarrierBE = h.tsFloor()
	pkt.BarrierC = h.commitAdvertise()
	h.lastUplinkSend = h.wire.Now()
	h.Stats.PktsSent++
	h.wire.Send(pkt)
}

// tsFloor is the host's best-effort barrier: no future message from this
// host will carry a timestamp below it. Doorbell-held messages are
// already timestamped but not yet on the wire, so while any connection
// holds a partial frame the floor is clamped below the oldest held
// timestamp — otherwise a beacon during the hold would break the barrier
// promise and the held messages would arrive "late" and be dropped.
func (h *Host) tsFloor() sim.Time {
	t := h.wire.Now()
	if h.lastTS > t {
		t = h.lastTS
	}
	if h.heldFloor > 0 && h.heldFloor-1 < t {
		t = h.heldFloor - 1
	}
	return t
}

// commitFloor is the largest T such that every reliable message from this
// host with timestamp <= T has been fully ACKed (§5.1).
func (h *Host) commitFloor() sim.Time {
	if len(h.outstanding) > 0 {
		return h.outstanding[0].ts - 1
	}
	return h.tsFloor()
}

// commitAdvertise returns the monotone commit floor and records it so that
// timestamp assignment stays strictly above it.
func (h *Host) commitAdvertise() sim.Time {
	if f := h.commitFloor(); f > h.advertisedC {
		h.advertisedC = f
	}
	return h.advertisedC
}

// nextTS assigns the timestamp for a scattering at egress time: the host
// clock, forced strictly increasing and strictly above the advertised
// commit floor (a receiver holding commit barrier T deliver everything
// <= T, so new messages must exceed T).
func (h *Host) nextTS() sim.Time {
	ts := h.wire.Now()
	if ts <= h.lastTS {
		ts = h.lastTS + 1
	}
	if ts <= h.advertisedC {
		ts = h.advertisedC + 1
	}
	h.lastTS = ts
	return ts
}

// Proc is one 1Pipe process endpoint (Table 1's API surface).
type Proc struct {
	ID   netsim.ProcID
	host *Host

	// OnDeliver receives messages in (timestamp, sender) total order.
	OnDeliver func(Delivery)
	// OnDeliverBatch, if set, takes precedence over OnDeliver and receives
	// contiguous below-barrier runs in one call — the delivery fast path.
	// The slice is reused by the runtime after the callback returns;
	// receivers that keep deliveries must copy them out.
	OnDeliverBatch func([]Delivery)
	// OnSendFail is the send-failure callback of Table 1.
	OnSendFail func(SendFailure)
	// OnProcFail is the process-failure callback of Table 1.
	OnProcFail func(proc netsim.ProcID, ts sim.Time)
	// OnRaw receives unordered raw RPCs sent with SendRaw.
	OnRaw func(src netsim.ProcID, data any)
}

// SendRaw transmits an unordered, unacknowledged message outside the 1Pipe
// total order — for RPC responses and other traffic that does not need
// ordering. Under loss it simply vanishes; callers needing reliability use
// their own timeouts.
func (p *Proc) SendRaw(dst netsim.ProcID, data any, size int) {
	if size <= 0 {
		size = 64
	}
	pkt := netsim.GetPacket()
	pkt.Kind, pkt.Src, pkt.Dst = netsim.KindCtrl, p.ID, dst
	pkt.Payload, pkt.Size = data, size+netsim.HeaderBytes
	p.host.emit(pkt)
}

// AddProc registers a process on this host.
func (h *Host) AddProc(id netsim.ProcID) *Proc {
	p := &Proc{ID: id, host: h}
	h.procs[id] = p
	if !h.hasRepr {
		h.reprProc = id
		h.hasRepr = true
	}
	return p
}

// Procs returns the number of local processes.
func (h *Host) Procs() int { return len(h.procs) }

// Timestamp returns the host's current 1Pipe timestamp
// (onepipe_get_timestamp).
func (p *Proc) Timestamp() sim.Time { return p.host.wire.Now() }

// Send issues a best-effort scattering (onepipe_unreliable_send): all
// messages share one timestamp; lost messages are reported through
// OnSendFail, never retransmitted.
func (p *Proc) Send(msgs []Message) error {
	return p.host.send(p, msgs, SendOptions{})
}

// SendReliable issues a reliable scattering (onepipe_reliable_send):
// delivery is guaranteed via 2PC unless a participant fails, in which case
// the whole scattering is recalled (restricted failure atomicity).
func (p *Proc) SendReliable(msgs []Message) error {
	return p.host.send(p, msgs, SendOptions{Reliable: true})
}

// SendOpts issues a scattering with explicit options — the unified send
// entry point behind the public API's Send(msgs, opts...).
func (p *Proc) SendOpts(msgs []Message, o SendOptions) error {
	return p.host.send(p, msgs, o)
}

// reportStuck escalates a stalled (dst, ts) through OnStuck exactly once:
// every further exhaustion of the same stall — data retransmissions on a
// later RTO, or the recall path stalling on the same scattering — is
// counted by the first report.
func (h *Host) reportStuck(src, dst netsim.ProcID, ts sim.Time) {
	rk := recallKey{dst: dst, ts: ts}
	if h.stuckReported[rk] {
		return
	}
	h.stuckReported[rk] = true
	h.Stats.StuckReports++
	if h.OnStuck != nil {
		h.OnStuck(src, dst, ts)
	}
}

func (h *Host) send(p *Proc, msgs []Message, o SendOptions) error {
	if len(msgs) == 0 {
		return ErrNoMessages
	}
	if h.stopped {
		return fmt.Errorf("onepipe: host %d stopped: %w", h.ID, ErrClosed)
	}
	if h.draining {
		return fmt.Errorf("onepipe: host %d draining: %w", h.ID, ErrClosed)
	}
	if len(h.waitQ) >= sendBufCap {
		return ErrSendBufferFull
	}
	s := newScattering(p, msgs, o.Reliable, h.Cfg.MTU)
	s.conflict = o.ConflictKey
	if win := h.batchWindow(o); win > 0 && s.totalPkts == len(s.msgs) &&
		(o.Reliable || !h.Cfg.DisableBEAck) {
		// Single-fragment messages with batching on: fragments may
		// coalesce into multi-message frames on their connections.
		s.batch = true
		s.batchWin = win
	}
	if h.Obs.On() {
		s.submitAt = h.wire.Now()
	}
	// Messages to processes already known failed cannot be sent.
	for i := range s.msgs {
		if _, dead := h.failedPeers[s.msgs[i].Dst]; dead {
			return fmt.Errorf("onepipe: destination %d failed", s.msgs[i].Dst)
		}
	}
	// Backpressure: refuse to grow a destination queue past SendQueueCap.
	// Checked before credits are acquired, so a refused send leaves no
	// state behind.
	for i := range s.credits {
		cr := &s.credits[i]
		if len(cr.conn.sendQ)+cr.needed > h.Cfg.SendQueueCap {
			h.Stats.Backpressure++
			retry := h.wire.Now() + h.Cfg.RTO
			if cr.conn.holding && cr.conn.doorbell.Armed() {
				retry = h.wire.Now() + h.Cfg.BatchWindow
			}
			return &BackpressureError{Dst: cr.conn.key.dst, RetryAt: retry}
		}
	}
	h.tryAcquire(s)
	if s.fullyReserved() {
		h.launch(s)
	} else {
		h.waitQ = append(h.waitQ, s)
	}
	return nil
}

// batchWindow resolves the effective doorbell window for one send.
func (h *Host) batchWindow(o SendOptions) sim.Time {
	if h.Cfg.DisableBatching || o.NoBatch {
		return 0
	}
	if o.BatchWindow > 0 {
		return o.BatchWindow
	}
	return h.Cfg.BatchWindow
}
