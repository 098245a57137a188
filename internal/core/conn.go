package core

import (
	"onepipe/internal/netsim"
	"onepipe/internal/obs"
	"onepipe/internal/sim"
)

type connKey struct {
	src, dst netsim.ProcID
}

// cls maps a reliability class to its PSN-space index: best-effort and
// reliable traffic use independent sequence spaces so a lost (never
// retransmitted) best-effort packet cannot wedge reliable reassembly.
func cls(reliable bool) int {
	if reliable {
		return 1
	}
	return 0
}

// outPkt is an in-flight packet awaiting its end-to-end ACK.
type outPkt struct {
	psn      uint32
	msgIdx   int // index into the scattering's message list
	frag     int // fragment index within the message
	endOfMsg bool
	size     int
	scat     *scattering
	retx     int
	// fnext links the members of a multi-message frame behind the head:
	// a frame occupies one window slot, one unacked entry (the head's PSN)
	// and one ACK, and member PSNs are consecutive from the head's. Chains
	// are immutable once emitted; aborted members stay linked (their PSN is
	// part of the frame's span) but are skipped when the wire packet is
	// rebuilt.
	fnext *outPkt
}

// connCursor is the residue of an evicted send-side connection: the next
// PSN of each plane, retained so a re-established conn continues the same
// sequence spaces the receiver's consumed-prefix tracking expects.
type connCursor struct {
	nextPSN [2]uint32
}

// conn is the send-side state for one (source process, destination process)
// pair: PSN spaces, in-flight accounting, DCTCP congestion control and the
// retransmission timer of reliable 1Pipe.
type conn struct {
	key     connKey
	host    *Host
	nextPSN [2]uint32
	// lastUse is the host clock at the last send-side activity (scattering
	// construction or ACK); the idle-eviction sweep compares it against
	// Config.ConnIdleEvict.
	lastUse sim.Time
	unacked [2]map[uint32]*outPkt
	// stuckPkts parks reliable packets that exhausted MaxRetx: their
	// window slots are freed and they are never retransmitted by the RTO,
	// but they stay visible to PendingTo so §5.2 Controller Forwarding can
	// still relay them, and a late (or controller-relayed) ACK completes
	// them via onAck.
	stuckPkts map[uint32]*outPkt
	// sendQ holds launched-but-untransmitted fragments: a scattering
	// larger than the window streams out as ACKs free space.
	sendQ []*outPkt
	// relOrder tracks reliable PSNs in transmission (= ascending PSN)
	// order, so the RTO retransmits in PSN order without sorting the
	// unacked map on every firing. Entries acked, dropped or parked out of
	// unacked[1] go stale in place and are compacted out lazily; relStale
	// counts them so compaction cost stays amortized O(1) per removal.
	relOrder []uint32
	relStale int
	// inflight + reserved are charged against min(cwnd, rwnd).
	inflight int
	reserved int
	rwnd     int
	// DCTCP state (§6.1: "Congestion control follows DCTCP").
	cwnd      float64
	alpha     float64
	ackTotal  int
	ackECN    int
	windowEnd [2]uint32
	rto       *sim.Timer
	// doorbell fires Config.BatchWindow after a partial frame started
	// waiting for more same-destination messages; holding is set while the
	// queue head is deliberately delayed (the host's barrier floor is
	// clamped below the held timestamp meanwhile), and flushAll forces
	// every queued batchable fragment out once the doorbell has rung, even
	// if emission is interleaved with window waits.
	doorbell *sim.Timer
	holding  bool
	flushAll bool
}

func (h *Host) getConn(src, dst netsim.ProcID) *conn {
	k := connKey{src, dst}
	c := h.conns[k]
	if c == nil {
		c = &conn{
			key:  k,
			host: h,
			rwnd: h.Cfg.RecvWindow,
			cwnd: h.Cfg.InitCwnd,
		}
		c.unacked[0] = make(map[uint32]*outPkt)
		c.unacked[1] = make(map[uint32]*outPkt)
		c.rto = h.wire.Timer(c.onRTO)
		c.doorbell = h.wire.Timer(c.onDoorbell)
		// Re-establishment after idle eviction: resume the evicted PSN
		// spaces so the receiver's duplicate detection stays coherent.
		if cur, ok := h.connMemo[k]; ok {
			c.nextPSN = cur.nextPSN
			c.windowEnd = cur.nextPSN
			delete(h.connMemo, k)
		}
		h.conns[k] = c
		h.Stats.ConnsLive = int64(len(h.conns) + len(h.rconns))
	}
	if h.Cfg.ConnIdleEvict > 0 {
		c.lastUse = h.wire.Now()
	}
	return c
}

// window is the send window: min(receive window, congestion window).
func (c *conn) window() int {
	w := int(c.cwnd)
	if c.rwnd < w {
		w = c.rwnd
	}
	return w
}

func (c *conn) available() int {
	a := c.window() - c.inflight - c.reserved
	if a < 0 {
		return 0
	}
	return a
}

// onAck processes one end-to-end ACK.
func (c *conn) onAck(reliable bool, psn uint32, ecn bool) {
	if c.host.Cfg.ConnIdleEvict > 0 {
		c.lastUse = c.host.wire.Now()
	}
	k := cls(reliable)
	op, ok := c.unacked[k][psn]
	if !ok {
		// A late or controller-relayed ACK can complete a packet that
		// exhausted MaxRetx; its window slot was freed when it was parked,
		// so only scattering completion accounting remains.
		if reliable {
			if op, stuck := c.stuckPkts[psn]; stuck {
				delete(c.stuckPkts, psn)
				for m := op; m != nil; m = m.fnext {
					c.host.onPacketAcked(m)
				}
				c.host.grantCredits()
			}
		}
		return // duplicate ACK
	}
	delete(c.unacked[k], psn)
	if k == 1 {
		c.relRemoved()
	}
	c.inflight--
	c.dctcpAck(k, psn, ecn)
	if len(c.unacked[1]) == 0 {
		c.rto.Stop()
	}
	// One ACK completes the whole frame: every chained member was carried
	// (or spanned) by the acknowledged packet.
	for m := op; m != nil; m = m.fnext {
		c.host.onPacketAcked(m)
	}
	c.pump()
	c.host.grantCredits()
}

// pump transmits queued fragments while window space is available,
// coalescing runs of adjacent batchable fragments into multi-message
// frames (§6.1 send batching).
func (c *conn) pump() { c.emitQueued(false) }

// maxFrameEntries bounds a frame's member count independently of
// Config.BatchBytes so the 16-bit span/offset fields cannot overflow.
const maxFrameEntries = 512

// emitQueued drains the send queue within the window. A run of batchable
// same-class fragments at the head either fills a frame (BatchBytes) and
// goes out immediately, or — unless force is set — stays queued with the
// doorbell timer armed, waiting up to the batch window for more
// same-destination traffic to coalesce with.
func (c *conn) emitQueued(force bool) {
	if c.flushAll {
		force = true
	}
	held := false
	for c.inflight < c.window() && len(c.sendQ) > 0 {
		op := c.sendQ[0]
		if op.scat.aborted {
			c.sendQ = c.sendQ[1:]
			continue
		}
		if !op.scat.batch {
			c.sendQ = c.sendQ[1:]
			c.emitRun(op)
			continue
		}
		n, full := c.collectRun()
		if !full && !force {
			held = true
			break
		}
		run := c.sendQ[:n]
		for i := 0; i < n-1; i++ {
			run[i].fnext = run[i+1]
		}
		c.sendQ = c.sendQ[n:]
		c.emitRun(op)
	}
	if len(c.sendQ) == 0 {
		c.flushAll = false
	}
	c.updateHold(held)
}

// collectRun measures the batchable run at the head of the send queue:
// how many fragments coalesce into the next frame, and whether the frame
// is full — by bytes, by entry count, or because a non-coalescible
// fragment follows it (waiting longer could not grow it).
func (c *conn) collectRun() (n int, full bool) {
	head := c.sendQ[0]
	k := cls(head.scat.reliable)
	budget := c.host.Cfg.BatchBytes
	bytes := head.size + netsim.FrameEntryBytes
	n = 1
	for n < len(c.sendQ) {
		op := c.sendQ[n]
		if !op.scat.batch || cls(op.scat.reliable) != k {
			return n, true
		}
		if n >= maxFrameEntries {
			return n, true
		}
		if op.scat.aborted {
			// Rides along inside the frame's PSN span without payload.
			n++
			continue
		}
		nb := bytes + op.size + netsim.FrameEntryBytes
		if nb > budget {
			return n, true
		}
		bytes = nb
		n++
	}
	return n, bytes >= budget || n >= maxFrameEntries
}

// emitRun transmits one window unit: a single fragment or a frame chain
// headed by head (fnext-linked). The head's PSN indexes the unacked map;
// the whole chain completes on its single ACK.
func (c *conn) emitRun(head *outPkt) {
	h := c.host
	k := cls(head.scat.reliable)
	c.unacked[k][head.psn] = head
	if k == 1 {
		c.relOrder = append(c.relOrder, head.psn)
	}
	c.inflight++
	if h.Obs.On() {
		now := h.wire.Now()
		for m := head; m != nil; m = m.fnext {
			if !m.scat.aborted {
				h.Obs.Rec(obs.SpanXmitWait, now-m.scat.ts)
			}
		}
	}
	if head.scat.batch {
		live := 0
		for m := head; m != nil; m = m.fnext {
			if !m.scat.aborted {
				live++
			}
		}
		h.sendOcc.Add(float64(live))
		if live > 1 {
			h.Stats.FramesSent++
			h.Stats.FrameMsgs += uint64(live)
		}
	}
	h.emit(c.buildUnit(head))
	if head.scat.reliable && !c.rto.Armed() {
		c.rto.Reset(h.Cfg.RTO)
	}
}

// onDoorbell flushes a held partial frame when the batch window expires.
// flushAll stays sticky until the queue drains so fragments blocked on
// window space go out as soon as slots free, instead of re-waiting.
func (c *conn) onDoorbell() {
	if c.host.stopped {
		return
	}
	c.flushAll = true
	c.emitQueued(true)
}

// updateHold reconciles the doorbell timer and the host's held-timestamp
// floor with whether the queue head is (still) deliberately delayed.
func (c *conn) updateHold(held bool) {
	h := c.host
	if held {
		head := c.sendQ[0]
		if !c.holding {
			c.holding = true
			c.doorbell.Reset(head.scat.batchWin)
		}
		h.holdSet(c, head.scat.ts)
	} else if c.holding {
		c.holding = false
		c.doorbell.Stop()
		h.holdClear(c)
	}
}

// dctcpAck runs the DCTCP window update: additive increase per ACK, and a
// multiplicative decrease by alpha/2 once per window where alpha is the
// EWMA of the ECN-marked fraction.
func (c *conn) dctcpAck(k int, psn uint32, ecn bool) {
	c.ackTotal++
	if ecn {
		c.ackECN++
	}
	if psn >= c.windowEnd[k] {
		frac := float64(c.ackECN) / float64(c.ackTotal)
		g := c.host.Cfg.DCTCPGain
		c.alpha = (1-g)*c.alpha + g*frac
		if c.ackECN > 0 {
			c.cwnd = c.cwnd * (1 - c.alpha/2)
			if c.cwnd < 1 {
				c.cwnd = 1
			}
		}
		c.ackTotal, c.ackECN = 0, 0
		c.windowEnd[0] = c.nextPSN[0]
		c.windowEnd[1] = c.nextPSN[1]
	}
	if c.cwnd < c.host.Cfg.MaxCwnd {
		c.cwnd += 1 / c.cwnd
	}
}

// onRTO retransmits every unACKed reliable packet (§5.1 Prepare phase loss
// recovery) in PSN order. Best-effort packets are never retransmitted;
// they expire via the send-failure timeout instead.
func (c *conn) onRTO() {
	h := c.host
	if h.stopped {
		return
	}
	// relOrder already lists the unACKed PSNs in ascending order (PSNs are
	// assigned and transmitted monotonically); the walk compacts stale
	// entries in place instead of rebuilding and sorting the key set.
	kept := c.relOrder[:0]
	rearm := false
	exhausted := false
	for _, psn := range c.relOrder {
		op, ok := c.unacked[1][psn]
		if !ok {
			continue // stale: acked, dropped or parked since queued
		}
		op.retx++
		if h.Cfg.MaxRetx > 0 && op.retx > h.Cfg.MaxRetx {
			// Retransmission budget exhausted: report the stall (once per
			// (dst, ts)), free the window slot, and park the packet where
			// Controller Forwarding can still find it. Leaving it in
			// unacked would charge its inflight slot forever — wedging the
			// window — and re-fire OnStuck on every later RTO. A frame
			// parks as a whole chain and stalls every live member.
			delete(c.unacked[1], psn)
			c.inflight--
			if c.stuckPkts == nil {
				c.stuckPkts = make(map[uint32]*outPkt)
			}
			c.stuckPkts[psn] = op
			for m := op; m != nil; m = m.fnext {
				if !m.scat.aborted {
					h.reportStuck(c.key.src, c.key.dst, m.scat.ts)
				}
			}
			exhausted = true
			continue
		}
		pkt := c.buildUnit(op)
		if pkt == nil {
			// Every frame member was aborted since the last transmission.
			delete(c.unacked[1], psn)
			c.inflight--
			exhausted = true
			continue
		}
		kept = append(kept, psn)
		h.Stats.PktsRetx++
		h.emit(pkt)
		rearm = true
	}
	c.relOrder = kept
	c.relStale = 0
	if rearm {
		c.rto.Reset(h.Cfg.RTO * sim.Time(1+min(4, c.minRetx())))
	}
	if exhausted {
		// The freed slots can admit queued fragments and credit-blocked
		// scatterings immediately.
		c.pump()
		h.grantCredits()
	}
}

func (c *conn) minRetx() int {
	m := 1 << 30
	for _, op := range c.unacked[1] {
		if op.retx < m {
			m = op.retx
		}
	}
	if m == 1<<30 {
		return 0
	}
	return m
}

// buildPacket materializes the wire packet for an in-flight entry; used for
// both first transmission and retransmission (barrier fields are stamped at
// emit time).
func (c *conn) buildPacket(op *outPkt, psn uint32) *netsim.Packet {
	s := op.scat
	m := &s.msgs[op.msgIdx]
	pkt := netsim.GetPacket()
	pkt.Kind = netsim.KindData
	pkt.Src = c.key.src
	pkt.Dst = c.key.dst
	pkt.MsgTS = s.ts
	pkt.Reliable = s.reliable
	pkt.ConflictKey = s.conflict
	pkt.PSN = psn
	pkt.FragIdx = uint16(op.frag)
	pkt.EndOfMsg = op.endOfMsg
	pkt.Size = op.size + netsim.HeaderBytes
	if op.endOfMsg {
		pkt.Payload = m.Data
	}
	return pkt
}

// buildUnit materializes the wire packet for a window unit: buildPacket
// for a single fragment, or a multi-message frame for a chain. Each
// transmission builds a fresh frame so aborted members drop out of the
// payload while their PSNs stay covered by the span. Returns nil when no
// live member remains.
func (c *conn) buildUnit(head *outPkt) *netsim.Packet {
	if head.fnext == nil {
		return c.buildPacket(head, head.psn)
	}
	f := netsim.GetFrame()
	last := head
	size := 0
	for m := head; m != nil; m = m.fnext {
		last = m
		if m.scat.aborted {
			continue
		}
		f.Entries = append(f.Entries, netsim.FrameEntry{
			TS:          m.scat.ts,
			PSNOff:      uint16(m.psn - head.psn),
			Size:        m.size,
			ConflictKey: m.scat.conflict,
			Data:        m.scat.msgs[m.msgIdx].Data,
		})
		size += m.size + netsim.FrameEntryBytes
	}
	if len(f.Entries) == 0 {
		netsim.PutFrame(f)
		return nil
	}
	f.Span = uint16(last.psn - head.psn + 1)
	pkt := netsim.GetPacket()
	pkt.Kind = netsim.KindData
	pkt.Src = c.key.src
	pkt.Dst = c.key.dst
	pkt.MsgTS = f.Entries[0].TS
	pkt.Reliable = head.scat.reliable
	pkt.ConflictKey = f.Entries[0].ConflictKey
	pkt.PSN = head.psn
	pkt.EndOfMsg = true
	pkt.Frame = true
	pkt.Payload = f
	pkt.Size = size + netsim.HeaderBytes
	return pkt
}

// dropInflight abandons an un-ACKed packet (destination failed, scattering
// aborted, or best-effort timeout), freeing its window slot.
func (c *conn) dropInflight(k int, psn uint32) {
	if _, ok := c.unacked[k][psn]; !ok {
		return
	}
	delete(c.unacked[k], psn)
	if k == 1 {
		c.relRemoved()
	}
	c.inflight--
	if len(c.unacked[1]) == 0 {
		c.rto.Stop()
	}
}

// relRemoved notes that a reliable PSN left unacked[1] outside the RTO walk
// and compacts relOrder once stale entries dominate it, keeping the slice
// bounded by the in-flight window between RTO firings.
func (c *conn) relRemoved() {
	c.relStale++
	if c.relStale > 64 && c.relStale*2 > len(c.relOrder) {
		kept := c.relOrder[:0]
		for _, psn := range c.relOrder {
			if _, ok := c.unacked[1][psn]; ok {
				kept = append(kept, psn)
			}
		}
		c.relOrder = kept
		c.relStale = 0
	}
}

// dropScattering abandons all of s's un-ACKed packets on this conn (its
// queued fragments are skipped by the pump via s.aborted) and refills the
// freed window from the send queue. A frame is dropped only once every
// chained member's scattering has aborted; until then it stays in flight
// carrying the surviving members.
func (c *conn) dropScattering(s *scattering) {
	for k := 0; k < 2; k++ {
		for psn, op := range c.unacked[k] {
			if chainDead(op, s) {
				c.dropInflight(k, psn)
			}
		}
	}
	// Parked (MaxRetx-exhausted) packets of an aborted scattering will
	// never be wanted again, not even by Controller Forwarding.
	for psn, op := range c.stuckPkts {
		if chainDead(op, s) {
			delete(c.stuckPkts, psn)
		}
	}
	c.pump()
}

// chainDead reports whether the unit headed by op involves s and no
// longer carries any live member (s is treated as aborted: callers drop
// it before or while marking it so).
func chainDead(op *outPkt, s *scattering) bool {
	touches := false
	for m := op; m != nil; m = m.fnext {
		if m.scat == s {
			touches = true
		} else if !m.scat.aborted {
			return false
		}
	}
	return touches
}

// scattering is a group of messages sharing one timestamp (§2.1).
type scattering struct {
	owner    *Proc
	reliable bool
	msgs     []Message
	ts       sim.Time
	// conflict is the sender-declared conflict key; every packet and frame
	// entry of the scattering carries it (DeliverConflictAware).
	conflict uint32
	launched bool
	aborted  bool
	done     bool
	// batch marks the scattering's fragments as coalescible into
	// multi-message frames (every message single-fragment, batching
	// enabled); batchWin is the doorbell window its fragments may wait for
	// company.
	batch    bool
	batchWin sim.Time
	// submitAt is the Send call time, recorded only while tracing; the
	// submit → launch gap is the credit wait (obs.SpanCreditWait).
	submitAt sim.Time

	// fragsPerMsg[i] is the packet count of msgs[i].
	fragsPerMsg []int
	totalPkts   int
	// Credit reservation state, per destination connection, in first-use
	// order (ordered for deterministic partial-credit acquisition).
	credits []credit
	// ACK tracking.
	unackedPkts int
	// failTimer drives best-effort loss detection.
	failTimer *sim.Timer
	// ackedMsg[i] counts ACKed packets of msgs[i] (for per-message
	// send-failure reporting).
	ackedMsg []int
	// recallsPending counts outstanding recall ACKs during abort.
	recallsPending int
}

// credit tracks one connection's share of a scattering's window demand.
type credit struct {
	conn     *conn
	needed   int
	reserved int
}

func newScattering(p *Proc, msgs []Message, reliable bool, mtu int) *scattering {
	s := &scattering{
		owner:       p,
		reliable:    reliable,
		msgs:        msgs,
		fragsPerMsg: make([]int, len(msgs)),
		ackedMsg:    make([]int, len(msgs)),
	}
	idx := make(map[*conn]int)
	for i := range msgs {
		size := msgs[i].Size
		if size <= 0 {
			size = 64
		}
		frags := (size + mtu - 1) / mtu
		s.fragsPerMsg[i] = frags
		s.totalPkts += frags
		c := p.host.getConn(p.ID, msgs[i].Dst)
		j, ok := idx[c]
		if !ok {
			j = len(s.credits)
			idx[c] = j
			s.credits = append(s.credits, credit{conn: c})
		}
		s.credits[j].needed += frags
	}
	s.unackedPkts = s.totalPkts
	return s
}

// needEff is the launch requirement on one connection: the full demand,
// capped at the window — a message larger than the window can never hold
// more credits than the window, so it launches once it owns a whole
// window's worth and streams the rest via the send queue.
func (cr *credit) needEff() int {
	w := cr.conn.window()
	if w < 1 {
		w = 1
	}
	if cr.needed < w {
		return cr.needed
	}
	return w
}

func (s *scattering) fullyReserved() bool {
	for i := range s.credits {
		if s.credits[i].reserved < s.credits[i].needEff() {
			return false
		}
	}
	return true
}

// tryAcquire reserves as many window credits as available for s, holding
// partial reservations (the paper's anti-livelock rule: a large scattering
// keeps its credits while waiting, §6.1).
func (h *Host) tryAcquire(s *scattering) {
	for i := range s.credits {
		cr := &s.credits[i]
		missing := cr.needEff() - cr.reserved
		if missing <= 0 {
			continue
		}
		take := cr.conn.available()
		if take > missing {
			take = missing
		}
		if take > 0 {
			cr.conn.reserved += take
			cr.reserved += take
		}
	}
}

// grantCredits re-scans the wait queue in FIFO order after window space was
// freed, launching scatterings that became fully reserved.
func (h *Host) grantCredits() {
	if len(h.waitQ) == 0 {
		return
	}
	remaining := h.waitQ[:0]
	for _, s := range h.waitQ {
		if s.aborted {
			h.releaseReservations(s)
			continue
		}
		h.tryAcquire(s)
		if s.fullyReserved() {
			h.launch(s)
		} else {
			remaining = append(remaining, s)
		}
	}
	h.waitQ = remaining
}

func (h *Host) releaseReservations(s *scattering) {
	for i := range s.credits {
		s.credits[i].conn.reserved -= s.credits[i].reserved
		s.credits[i].reserved = 0
	}
}

// launch stamps the scattering with the egress timestamp and transmits all
// fragments of all messages (§6.1: the timestamp is attached when the
// scattering leaves the send buffer, so the host clock remains a valid
// barrier floor).
func (h *Host) launch(s *scattering) {
	s.ts = h.nextTS()
	s.launched = true
	if s.submitAt > 0 {
		h.Obs.Rec(obs.SpanCreditWait, s.ts-s.submitAt)
	}
	h.releaseReservations(s)
	if s.reliable {
		// Joining the outstanding list MUST precede any emission: the
		// packets below carry the commit floor, and this scattering is
		// uncommitted until all its ACKs arrive.
		h.outstanding = append(h.outstanding, s)
	}
	k := cls(s.reliable)
	mtu := h.Cfg.MTU
	for i := range s.msgs {
		m := &s.msgs[i]
		c := h.getConn(s.owner.ID, m.Dst)
		size := m.Size
		if size <= 0 {
			size = 64
		}
		for f := 0; f < s.fragsPerMsg[i]; f++ {
			fragSize := mtu
			if f == s.fragsPerMsg[i]-1 {
				fragSize = size - f*mtu
			}
			psn := c.nextPSN[k]
			c.nextPSN[k]++
			op := &outPkt{
				psn: psn, msgIdx: i, frag: f,
				endOfMsg: f == s.fragsPerMsg[i]-1,
				size:     fragSize, scat: s,
			}
			track := s.reliable || !h.Cfg.DisableBEAck
			if track {
				// Queue; the pump transmits within the window, streaming
				// oversized scatterings as ACKs return.
				c.sendQ = append(c.sendQ, op)
			} else {
				s.unackedPkts-- // fire-and-forget
				h.emit(c.buildPacket(op, psn))
			}
		}
		h.Stats.MsgsSent++
	}
	for i := range s.credits {
		s.credits[i].conn.pump() // ordered: deterministic emission
	}
	if !s.reliable && !h.Cfg.DisableBEAck {
		s.failTimer = h.wire.Timer(func() { h.beSendTimeout(s) })
		s.failTimer.Reset(h.Cfg.SendFailTimeout)
	}
}

// onPacketAcked updates scattering completion state after an ACK.
func (h *Host) onPacketAcked(op *outPkt) {
	s := op.scat
	s.unackedPkts--
	s.ackedMsg[op.msgIdx]++
	if s.unackedPkts > 0 || s.done || s.aborted {
		return
	}
	s.done = true
	if h.Obs.On() {
		h.Obs.Rec(obs.SpanAckWait, h.wire.Now()-s.ts)
	}
	if s.reliable {
		h.reapOutstanding()
	} else if s.failTimer != nil {
		s.failTimer.Stop()
	}
}

// reapOutstanding pops completed scatterings off the head of the
// outstanding list and advertises the advanced commit floor with an
// explicit commit message to the neighbor switch (§5.1 Commit phase).
// Every host emission already carries the floor, so under load the
// explicit commit packet is elided: the next data packet or beacon
// propagates the advance within a fraction of the beacon interval.
func (h *Host) reapOutstanding() {
	advanced := false
	for len(h.outstanding) > 0 && h.outstanding[0].done {
		h.outstanding = h.outstanding[1:]
		advanced = true
	}
	if !advanced {
		return
	}
	if h.wire.Now()-h.lastUplinkSend < h.Cfg.BeaconInterval/4 {
		return // a very recent emission (or an imminent one) carries it
	}
	h.sendCommit()
}

func (h *Host) sendCommit() {
	h.Stats.Commits++
	pkt := netsim.GetPacket()
	pkt.Kind, pkt.Src, pkt.Size = netsim.KindCommit, h.reprProc, netsim.BeaconBytes
	h.emit(pkt)
}

// beSendTimeout fires the best-effort loss-detection timer: every message
// with un-ACKed packets is reported failed (§2.1: detection without
// retransmission).
func (h *Host) beSendTimeout(s *scattering) {
	if h.stopped || s.done || s.aborted {
		return
	}
	s.aborted = true
	for i := range s.msgs {
		if s.ackedMsg[i] < s.fragsPerMsg[i] {
			h.failMessage(s, i)
		}
	}
	// Free the window slots of the lost packets.
	for i := range s.credits {
		s.credits[i].conn.dropScattering(s)
	}
	h.grantCredits()
}

func (h *Host) failMessage(s *scattering, msgIdx int) {
	h.Stats.MsgsFailed++
	m := &s.msgs[msgIdx]
	if s.owner.OnSendFail != nil {
		s.owner.OnSendFail(SendFailure{TS: s.ts, Dst: m.Dst, Data: m.Data})
	}
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}
