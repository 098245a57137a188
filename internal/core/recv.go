package core

import (
	"container/heap"

	"onepipe/internal/netsim"
	"onepipe/internal/obs"
	"onepipe/internal/sim"
)

// pending is one complete message waiting in the reorder buffer.
type pending struct {
	ts       sim.Time
	src, dst netsim.ProcID
	psn      uint32 // PSN of the last fragment; tie-break within (ts, src)
	data     any
	size     int
	reliable bool
	// conflict is the sender-declared conflict key (DeliverConflictAware);
	// 0 = declared non-conflicting.
	conflict uint32
	// enqAt is the reassembly-complete time, recorded only while tracing;
	// the enqueue → deliver gap is the barrier wait (obs.SpanBarrierWait).
	enqAt sim.Time
}

// deliveryHeap orders messages by (timestamp, sender, PSN) — the total
// order of §2.1 with ties broken by sender ID.
type deliveryHeap []*pending

func (h deliveryHeap) Len() int { return len(h) }
func (h deliveryHeap) Less(i, j int) bool {
	a, b := h[i], h[j]
	if a.ts != b.ts {
		return a.ts < b.ts
	}
	if a.src != b.src {
		return a.src < b.src
	}
	return a.psn < b.psn
}
func (h deliveryHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *deliveryHeap) Push(x any)   { *h = append(*h, x.(*pending)) }
func (h *deliveryHeap) Pop() any {
	old := *h
	n := len(old)
	p := old[n-1]
	*h = old[:n-1]
	return p
}
func (h deliveryHeap) top() *pending { return h[0] }

// pendingLess is the (ts, src, psn) total-order key of §2.1 on two entries.
func pendingLess(a, b *pending) bool {
	if a.ts != b.ts {
		return a.ts < b.ts
	}
	if a.src != b.src {
		return a.src < b.src
	}
	return a.psn < b.psn
}

// coldRun is one sorted run of spilled entries, consumed from the head.
type coldRun struct {
	ents []*pending
	head int
}

// coldStore is the ordered spill half of hybrid reorder buffering: entries
// that overflow the hot heap are appended to sorted runs — O(1) while keys
// ascend, which is the common case since timestamps roughly increase — and
// the global minimum is found by scanning the run heads. Compared to the
// hot heap the cold store is flat slices with no per-entry heap movement,
// the stand-in for the paper-adjacent spill tier (Almeida's hybrid
// buffering): hot occupancy stays bounded by Config.ReorderHotCap while
// total buffering, and therefore delivery order, is unchanged.
type coldStore struct {
	runs []coldRun
	size int
}

func (c *coldStore) push(p *pending) {
	if n := len(c.runs); n > 0 {
		run := &c.runs[n-1]
		if !pendingLess(p, run.ents[len(run.ents)-1]) {
			run.ents = append(run.ents, p)
			c.size++
			return
		}
	}
	c.runs = append(c.runs, coldRun{ents: []*pending{p}})
	c.size++
}

// peekMin returns the smallest spilled entry, or nil when empty. Ties are
// impossible — (ts, src, psn) is unique per buffered message — so scanning
// run heads in index order is deterministic.
func (c *coldStore) peekMin() *pending {
	var best *pending
	for i := range c.runs {
		r := &c.runs[i]
		if e := r.ents[r.head]; best == nil || pendingLess(e, best) {
			best = e
		}
	}
	return best
}

func (c *coldStore) popMin() *pending {
	bi := -1
	var best *pending
	for i := range c.runs {
		r := &c.runs[i]
		if e := r.ents[r.head]; best == nil || pendingLess(e, best) {
			best, bi = e, i
		}
	}
	r := &c.runs[bi]
	r.ents[r.head] = nil
	r.head++
	c.size--
	if r.head == len(r.ents) {
		c.runs = append(c.runs[:bi], c.runs[bi+1:]...)
	}
	return best
}

// filter drops entries matching drop, preserving run order (a subsequence
// of a sorted run is sorted).
func (c *coldStore) filter(drop func(*pending) bool) {
	kept := c.runs[:0]
	c.size = 0
	for i := range c.runs {
		r := &c.runs[i]
		out := r.ents[:0]
		for _, e := range r.ents[r.head:] {
			if !drop(e) {
				out = append(out, e)
			}
		}
		if len(out) > 0 {
			kept = append(kept, coldRun{ents: out})
			c.size += len(out)
		}
	}
	c.runs = kept
}

// reorderBuf is one plane's reorder buffer: a hot delivery heap bounded by
// cap entries plus the ordered cold spill. The externally visible order —
// top/pop always yield the global (ts, src, psn) minimum — is identical to
// a single unbounded heap; only the residence of entries differs.
type reorderBuf struct {
	hot      deliveryHeap
	cold     coldStore
	cap      int // 0 = unbounded hot heap (no spill ever)
	hotBytes int64
}

// push buffers an entry, spilling when the hot heap is at cap. Reports
// whether the entry went cold (for the ReorderSpills counter).
func (b *reorderBuf) push(p *pending) bool {
	if b.cap > 0 && len(b.hot) >= b.cap {
		b.cold.push(p)
		return true
	}
	heap.Push(&b.hot, p)
	b.hotBytes += int64(p.size)
	return false
}

func (b *reorderBuf) Len() int { return len(b.hot) + b.cold.size }

// top returns the globally smallest buffered entry.
func (b *reorderBuf) top() *pending {
	var h *pending
	if len(b.hot) > 0 {
		h = b.hot.top()
	}
	c := b.cold.peekMin()
	if h == nil {
		return c
	}
	if c != nil && pendingLess(c, h) {
		return c
	}
	return h
}

// pop removes and returns the global minimum, then refills the hot heap
// from the cold store while capacity allows — the "refill as the barriers
// advance" half of hybrid buffering (pops happen only when a barrier
// advance uncovered the entry).
func (b *reorderBuf) pop() *pending {
	var p *pending
	c := b.cold.peekMin()
	if len(b.hot) == 0 || (c != nil && pendingLess(c, b.hot.top())) {
		p = b.cold.popMin()
	} else {
		p = heap.Pop(&b.hot).(*pending)
		b.hotBytes -= int64(p.size)
	}
	for b.cold.size > 0 && (b.cap == 0 || len(b.hot) < b.cap) {
		e := b.cold.popMin()
		heap.Push(&b.hot, e)
		b.hotBytes += int64(e.size)
	}
	return p
}

// filter drops buffered entries matching drop from both tiers (failure
// discard and recall tombstoning).
func (b *reorderBuf) filter(drop func(*pending) bool) {
	kept := b.hot[:0]
	for _, p := range b.hot {
		if drop(p) {
			b.hotBytes -= int64(p.size)
			continue
		}
		kept = append(kept, p)
	}
	b.hot = kept
	b.hot.reinit()
	b.cold.filter(drop)
}

// asmBuf reassembles one class's fragment stream for one (sender, local
// process) pair. Reassembly is keyed on (PSN - FragIdx), the message's
// first PSN, so holes left by lost best-effort packets never block later
// messages.
type asmBuf struct {
	doneBase uint32 // every PSN below this is consumed or skipped
	done     map[uint32]bool
	frags    map[uint32]*netsim.Packet
	capped   bool // best-effort: bound the done set by forcing doneBase forward
	// free, when set, releases consumed fragments back to the packet pool.
	// Production buffers (getRconn) wire it to netsim.PutPacket; unit tests
	// that drive the buffer with their own reusable packets leave it nil.
	free func(*netsim.Packet)
}

func newAsmBuf(capped bool) *asmBuf {
	return &asmBuf{done: make(map[uint32]bool), frags: make(map[uint32]*netsim.Packet), capped: capped}
}

// asmDoneCap bounds the done set of a best-effort assembly buffer: beyond
// it, permanently-lost PSN holes are forgotten (their late arrivals are
// treated as duplicates — acceptable for at-most-once traffic).
const asmDoneCap = 4096

func (a *asmBuf) isDup(psn uint32) bool {
	return psn < a.doneBase || a.done[psn] || a.frags[psn] != nil
}

func (a *asmBuf) markDone(psn uint32) {
	if psn < a.doneBase {
		return
	}
	a.done[psn] = true
	for a.done[a.doneBase] {
		delete(a.done, a.doneBase)
		a.doneBase++
	}
	if a.capped {
		for len(a.done) > asmDoneCap {
			// Force-advancing doneBase past a PSN that still holds a buffered
			// fragment would strand it forever: every later sibling arrival is
			// classified a duplicate, so the fragment is never consumed and
			// never returned to the pool. Drop and free it as the base passes.
			if f := a.frags[a.doneBase]; f != nil {
				delete(a.frags, a.doneBase)
				if a.free != nil {
					a.free(f)
				}
			}
			delete(a.done, a.doneBase)
			a.doneBase++
		}
	}
}

// idle reports whether the buffer holds no transient state — no buffered
// fragments and no reception holes — so its position is fully captured by
// doneBase alone and the buffer is safe to evict.
func (a *asmBuf) idle() bool { return len(a.frags) == 0 && len(a.done) == 0 }

// markDoneSpan consumes span consecutive PSNs starting at psn — a frame's
// whole sequence range, including members elided from the payload because
// their scattering aborted. Keeping the range contiguous is what lets
// doneBase advance without per-frame holes.
func (a *asmBuf) markDoneSpan(psn uint32, span uint16) {
	if span == 0 {
		span = 1
	}
	for i := uint32(0); i < uint32(span); i++ {
		a.markDone(psn + i)
	}
}

// add buffers a fragment and returns the carrier packet and total payload
// size when the fragment completed its message.
func (a *asmBuf) add(pkt *netsim.Packet) (last *netsim.Packet, size int, complete bool) {
	a.frags[pkt.PSN] = pkt
	start := pkt.PSN - uint32(pkt.FragIdx)
	j := start
	for {
		f, ok := a.frags[j]
		if !ok {
			return nil, 0, false
		}
		size += f.Size - netsim.HeaderBytes
		if f.EndOfMsg {
			last = f
			break
		}
		j++
	}
	for k := start; k <= j; k++ {
		f := a.frags[k]
		delete(a.frags, k)
		a.markDone(k)
		// Consumed non-final fragments are terminal here; the final fragment
		// is returned to the caller, which releases it after the payload
		// reference has been copied out.
		if a.free != nil && f != last {
			a.free(f)
		}
	}
	return last, size, true
}

// skip consumes a fragment position (and any buffered siblings of the same
// message) without delivering — used for ordering NAKs and recalls. The
// sweep must not stop at a reception hole below the skipped slot: a sibling
// buffered at or beyond the slot would otherwise survive its own
// consumption, linger unbounded, and let a late arrival in the hole
// "complete" a message whose slot was already skipped.
func (a *asmBuf) skip(pkt *netsim.Packet) {
	start := pkt.PSN - uint32(pkt.FragIdx)
	a.markDone(pkt.PSN)
	for j := start; ; j++ {
		f, ok := a.frags[j]
		if !ok {
			if j < pkt.PSN {
				continue // hole below the skipped slot: keep sweeping
			}
			break
		}
		delete(a.frags, j)
		a.markDone(j)
		if a.free != nil {
			a.free(f)
		}
		if f.EndOfMsg {
			break
		}
	}
}

// dropWhere removes buffered fragments matching pred (failure discard).
func (a *asmBuf) dropWhere(pred func(*netsim.Packet) bool) {
	for psn, f := range a.frags {
		if pred(f) {
			delete(a.frags, psn)
			a.markDone(psn)
			if a.free != nil {
				a.free(f)
			}
		}
	}
}

// rconn is receive-side state per (remote sender process, local process).
type rconn struct {
	key connKey
	// lastUse is the host clock at the last packet received on this pair;
	// the idle-eviction sweep reclaims receive state past Config.ConnIdleEvict.
	lastUse sim.Time
	bufs    [2]*asmBuf
}

func (h *Host) getRconn(src, dst netsim.ProcID) *rconn {
	k := connKey{src, dst}
	rc := h.rconns[k]
	if rc == nil {
		rc = &rconn{key: k}
		rc.bufs[0] = newAsmBuf(true)
		rc.bufs[1] = newAsmBuf(false)
		rc.bufs[0].free = netsim.PutPacket
		rc.bufs[1].free = netsim.PutPacket
		// Re-establishment after eviction: the retained PSN cursors restore
		// each plane's consumed-prefix position, so a retransmission of an
		// already-consumed packet is still classified duplicate and fresh
		// PSNs resume exactly where the evicted state left off.
		if cur, ok := h.rconnMemo[k]; ok {
			rc.bufs[0].doneBase = cur[0]
			rc.bufs[1].doneBase = cur[1]
			delete(h.rconnMemo, k)
		}
		h.rconns[k] = rc
		h.Stats.ConnsLive = int64(len(h.conns) + len(h.rconns))
	}
	if h.Cfg.ConnIdleEvict > 0 {
		rc.lastUse = h.wire.Now()
	}
	return rc
}

// HandlePacket is the host's network receive entry point; the substrate
// adapter (netsim or livenet) calls it for every packet delivered to the
// host, beacons included.
//
// HandlePacket takes ownership of pkt and releases it to the packet pool
// once consumed; data packets buffered for reassembly are released when the
// assembly buffer consumes them. Callers must not touch pkt afterwards.
func (h *Host) HandlePacket(pkt *netsim.Packet) {
	if h.stopped {
		netsim.PutPacket(pkt)
		return
	}
	switch pkt.Kind {
	case netsim.KindBeacon:
		h.updateBarriers(pkt.BarrierBE, pkt.BarrierC)
	case netsim.KindData:
		if h.Cfg.UseDataBarriers {
			h.updateBarriers(pkt.BarrierBE, pkt.BarrierC)
		}
		h.handleData(pkt) // takes ownership: pkt may be buffered
		return
	case netsim.KindAck:
		if h.Cfg.UseDataBarriers {
			h.updateBarriers(pkt.BarrierBE, pkt.BarrierC)
		}
		if c := h.conns[connKey{src: pkt.Dst, dst: pkt.Src}]; c != nil {
			if batch, ok := pkt.Payload.(ackBatch); ok {
				for i, psn := range batch.psns {
					c.onAck(pkt.Reliable, psn, batch.ecn[i])
				}
			} else {
				c.onAck(pkt.Reliable, pkt.PSN, pkt.ECN)
			}
		}
	case netsim.KindNak:
		h.handleNak(pkt)
	case netsim.KindRecall:
		h.handleRecall(pkt)
	case netsim.KindRecallAck:
		h.handleRecallAck(pkt)
	case netsim.KindCtrl:
		// Raw (unordered, unacknowledged) application RPC — the paper's
		// response messages that "do not need to be ordered by 1Pipe".
		if proc := h.procs[pkt.Dst]; proc != nil && proc.OnRaw != nil {
			proc.OnRaw(pkt.Src, pkt.Payload)
		}
	}
	netsim.PutPacket(pkt)
}

func (h *Host) updateBarriers(be, c sim.Time) {
	if hb := h.Cfg.DeliveryHoldback; hb > 0 {
		be -= hb
		c -= hb
	}
	changed := false
	if be > h.barrierBE {
		h.barrierBE = be
		changed = true
	}
	if c > h.barrierC {
		h.barrierC = c
		changed = true
	}
	if changed {
		h.drain()
	}
}

// Barriers exposes the host's current view of the two aggregated barriers.
func (h *Host) Barriers() (be, c sim.Time) { return h.barrierBE, h.barrierC }

func (h *Host) handleData(pkt *netsim.Packet) {
	if pkt.Frame {
		h.handleFrame(pkt)
		return
	}
	rc := h.getRconn(pkt.Src, pkt.Dst)
	buf := rc.bufs[cls(pkt.Reliable)]
	if buf.isDup(pkt.PSN) {
		h.Stats.DupPkts++
		h.ackPacket(pkt) // retransmission of a consumed packet: re-ACK
		netsim.PutPacket(pkt)
		return
	}
	// Ordering check: a best-effort packet whose message timestamp can no
	// longer be delivered in order is dropped with a NAK to the sender
	// (§4.1); a reliable packet at or below the delivered commit floor is
	// a duplicate of a committed message. Untagged conflict-aware traffic
	// is exempt from both: it delivers outside the total order, so it can
	// never be "too late", and the tagged-only delivered floors say nothing
	// about it (PSN dedup above already covers retransmissions).
	relaxed := h.relaxedKey(pkt.ConflictKey)
	if !relaxed && !pkt.Reliable && pkt.MsgTS < h.deliveredFloorBE() {
		h.Stats.Naks++
		nak := netsim.GetPacket()
		nak.Kind, nak.Src, nak.Dst = netsim.KindNak, pkt.Dst, pkt.Src
		nak.PSN, nak.MsgTS, nak.Size = pkt.PSN, pkt.MsgTS, netsim.BeaconBytes
		h.emit(nak)
		buf.skip(pkt)
		netsim.PutPacket(pkt)
		return
	}
	if !relaxed && pkt.Reliable && pkt.MsgTS <= h.deliveredC {
		h.Stats.DupPkts++
		h.ackPacket(pkt)
		buf.skip(pkt)
		netsim.PutPacket(pkt)
		return
	}
	h.ackPacket(pkt)
	last, size, complete := buf.add(pkt)
	if complete {
		// enqueueMsg copies the payload reference out of the final fragment;
		// the carrier packet itself is terminal here.
		h.enqueueMsg(last, size)
		netsim.PutPacket(last)
		h.drain()
	}
}

// handleFrame consumes a multi-message frame: one ACK, one dup check and
// one contiguous PSN-span consumption for the whole unit, then one reorder
// -buffer entry per live member with its own timestamp and reconstructed
// per-member PSN — so delivery order is identical to the unbatched wire.
func (h *Host) handleFrame(pkt *netsim.Packet) {
	f, ok := pkt.Payload.(*netsim.Frame)
	if !ok || len(f.Entries) == 0 {
		netsim.PutPacket(pkt)
		return
	}
	rc := h.getRconn(pkt.Src, pkt.Dst)
	buf := rc.bufs[cls(pkt.Reliable)]
	if buf.isDup(pkt.PSN) {
		h.Stats.DupPkts++
		h.ackPacket(pkt) // retransmission of a consumed frame: re-ACK
		netsim.PutPacket(pkt)
		return
	}
	// Ordering check (§4.1): entries ascend, so the frame's oldest member
	// decides whether the whole unit can still be delivered in order. The
	// sender fails every member of a NAKed frame. Under DeliverConflictAware
	// only tagged members are order-constrained, so the oldest *tagged*
	// member decides; untagged members share the frame's fate either way
	// (the same shared-fate rule a lost frame already imposes). With every
	// member tagged, the oldest tagged member IS Entries[0] — identical to
	// the unified decision.
	gate := 0
	if h.Cfg.Mode == DeliverConflictAware {
		gate = -1
		for i := range f.Entries {
			if f.Entries[i].ConflictKey != 0 {
				gate = i
				break
			}
		}
	}
	if !pkt.Reliable && gate >= 0 && f.Entries[gate].TS < h.deliveredFloorBE() {
		h.Stats.Naks++
		nak := netsim.GetPacket()
		nak.Kind, nak.Src, nak.Dst = netsim.KindNak, pkt.Dst, pkt.Src
		nak.PSN, nak.MsgTS, nak.Size = pkt.PSN, f.Entries[gate].TS, netsim.BeaconBytes
		h.emit(nak)
		buf.markDoneSpan(pkt.PSN, f.Span)
		netsim.PutPacket(pkt)
		return
	}
	h.ackPacket(pkt)
	buf.markDoneSpan(pkt.PSN, f.Span)
	enq := 0
	for i := range f.Entries {
		e := &f.Entries[i]
		if pkt.Reliable && e.TS <= h.deliveredC && !h.relaxedKey(e.ConflictKey) {
			h.Stats.DupPkts++ // retransmitted member of a committed frame
			continue
		}
		h.enqueuePending(e.TS, pkt.Src, pkt.Dst, pkt.PSN+uint32(e.PSNOff),
			e.Data, e.Size, pkt.Reliable, e.ConflictKey, pkt.QueueWait)
		enq++
	}
	netsim.PutPacket(pkt)
	if enq > 0 {
		h.drain()
	}
}

func (h *Host) deliveredFloorBE() sim.Time {
	if (h.Cfg.Mode == DeliverUnified || h.Cfg.Mode == DeliverConflictAware) &&
		h.deliveredC > h.deliveredBE {
		return h.deliveredC
	}
	return h.deliveredBE
}

// relaxedKey reports whether a message with the given conflict key is
// delivered outside the total order: DeliverConflictAware mode with an
// untagged (key 0) message. Tagged messages — and every message in the
// other modes — go through the ordinary ordered paths.
func (h *Host) relaxedKey(key uint32) bool {
	return h.Cfg.Mode == DeliverConflictAware && key == 0
}

// ackBatch is the payload of a coalesced ACK: per-PSN entries with their
// echoed ECN marks.
type ackBatch struct {
	psns []uint32
	ecn  []bool
}

// ackPend accumulates ACKs toward one sender/class until flushed.
type ackPend struct {
	batch ackBatch
	timer *sim.Timer
}

type ackKey struct {
	local, remote netsim.ProcID
	reliable      bool
}

func (h *Host) ackPacket(pkt *netsim.Packet) {
	if !pkt.Reliable && h.Cfg.DisableBEAck {
		return
	}
	if h.Cfg.AckFlush <= 0 {
		ack := netsim.GetPacket()
		ack.Kind, ack.Src, ack.Dst = netsim.KindAck, pkt.Dst, pkt.Src
		ack.PSN, ack.MsgTS, ack.ECN, ack.Reliable = pkt.PSN, pkt.MsgTS, pkt.ECN, pkt.Reliable
		ack.Size = netsim.BeaconBytes
		h.emit(ack)
		return
	}
	k := ackKey{local: pkt.Dst, remote: pkt.Src, reliable: pkt.Reliable}
	p := h.ackPending[k]
	if p == nil {
		p = &ackPend{}
		p.timer = h.wire.Timer(func() { h.flushAcks(k) })
		h.ackPending[k] = p
	}
	if len(p.batch.psns) == 0 {
		p.timer.Reset(h.Cfg.AckFlush)
	}
	p.batch.psns = append(p.batch.psns, pkt.PSN)
	p.batch.ecn = append(p.batch.ecn, pkt.ECN)
	if h.Cfg.AckBatchMax > 0 && len(p.batch.psns) >= h.Cfg.AckBatchMax {
		h.flushAcks(k)
	}
}

// flushAcks emits one coalesced ACK packet carrying every pending PSN.
func (h *Host) flushAcks(k ackKey) {
	p := h.ackPending[k]
	if p == nil || len(p.batch.psns) == 0 {
		return
	}
	batch := p.batch
	p.batch = ackBatch{}
	p.timer.Stop()
	ack := netsim.GetPacket()
	ack.Kind, ack.Src, ack.Dst = netsim.KindAck, k.local, k.remote
	ack.PSN, ack.Reliable = batch.psns[0], k.reliable
	ack.Payload = batch
	ack.Size = netsim.HeaderBytes + 5*len(batch.psns)
	h.emit(ack)
}

func (h *Host) enqueueMsg(pkt *netsim.Packet, size int) {
	h.enqueuePending(pkt.MsgTS, pkt.Src, pkt.Dst, pkt.PSN, pkt.Payload,
		size, pkt.Reliable, pkt.ConflictKey, pkt.QueueWait)
}

func (h *Host) enqueuePending(ts sim.Time, src, dst netsim.ProcID, psn uint32,
	data any, size int, reliable bool, conflict uint32, queueWait sim.Time) {
	// Discard semantics of failure handling (§5.2): messages from a
	// failed process beyond its failure timestamp are never delivered,
	// and recalled scattering members are tombstoned. These bind the
	// relaxed (untagged conflict-aware) classes too: atomicity is not
	// traded away by relaxing order.
	if failTS, dead := h.failedPeers[src]; dead && ts > failTS {
		return
	}
	if h.recallTomb[recallKey{dst: src, ts: ts}] {
		return
	}
	p := &pending{
		ts: ts, src: src, dst: dst, psn: psn,
		data: data, size: size, reliable: reliable, conflict: conflict,
	}
	if h.Obs.On() {
		p.enqAt = h.wire.Now()
		// ts is the sender's launch timestamp; transit is measured
		// against this (skew-bounded) receiver clock.
		h.Obs.Rec(obs.SpanNetTransit, p.enqAt-p.ts)
		h.Obs.Rec(obs.SpanSwitchQueue, queueWait)
	}
	var q *reorderBuf
	switch {
	case h.relaxedKey(conflict) && !reliable:
		// Untagged best-effort under DeliverConflictAware: locally stable
		// the moment reassembly completes — deliver immediately, no barrier
		// wait, outside the total order (0.5 RTT, the Generic Multicast
		// fast path).
		h.deliverNow(p)
		return
	case h.relaxedKey(conflict):
		// Untagged reliable: buffered until the commit barrier covers it,
		// so the §5.2 recall window still guards failure atomicity, but
		// outside the cross-class order (its own queue, no floor updates).
		q = &h.rlxQ
	case reliable:
		q = &h.relQ
	default:
		q = &h.beQ
	}
	if q.push(p) {
		h.Stats.ReorderSpills++
	}
	h.Stats.ReorderHotBytes = h.beQ.hotBytes + h.relQ.hotBytes + h.rlxQ.hotBytes
	if hot := int64(len(q.hot)); hot > h.Stats.ReorderHotMax {
		h.Stats.ReorderHotMax = hot
	}
	h.Stats.BufferedMsgs++
	h.Stats.BufferedBytes += int64(size)
	if h.Stats.BufferedBytes > h.Stats.MaxBufferBytes {
		h.Stats.MaxBufferBytes = h.Stats.BufferedBytes
	}
}

// drain delivers every buffered message the barriers cover, in (ts, src)
// order. Best-effort delivery requires ts < barrierBE (strictly: equal
// timestamps may still arrive); reliable delivery requires ts <= barrierC
// (§5.1). Unified mode gates both classes on both barriers to produce one
// cross-class total order. Contiguous runs for one process accumulate into
// a delivery batch flushed through OnDeliverBatch at the end of the drain.
func (h *Host) drain() {
	h.drainQueues()
	h.Stats.ReorderHotBytes = h.beQ.hotBytes + h.relQ.hotBytes + h.rlxQ.hotBytes
	h.flushDeliveries()
}

func (h *Host) drainQueues() {
	switch h.Cfg.Mode {
	case DeliverSeparate:
		for h.beQ.Len() > 0 && h.beQ.top().ts < h.barrierBE {
			h.deliver(h.beQ.pop())
		}
		for h.relQ.Len() > 0 && h.relQ.top().ts <= h.barrierC {
			h.deliver(h.relQ.pop())
		}
	case DeliverUnified:
		h.drainMerged()
	case DeliverConflictAware:
		// Tagged traffic is exactly the unified merged stream (the queues
		// hold only tagged entries in this mode); untagged reliable drains
		// from its own queue once the commit barrier covers it, outside
		// the cross-class order.
		h.drainMerged()
		for h.rlxQ.Len() > 0 && h.rlxQ.top().ts <= h.barrierC {
			h.deliverRelaxed(h.rlxQ.pop())
		}
	}
}

// drainMerged delivers the single cross-class total order of DeliverUnified:
// both queues gated on min(barrierBE-1, barrierC), merged on the full
// (ts, src, psn) key.
func (h *Host) drainMerged() {
	eff := h.barrierBE - 1
	if h.barrierC < eff {
		eff = h.barrierC
	}
	for {
		var q *reorderBuf
		switch {
		case h.beQ.Len() == 0 && h.relQ.Len() == 0:
			return
		case h.beQ.Len() == 0:
			q = &h.relQ
		case h.relQ.Len() == 0:
			q = &h.beQ
		default:
			// Cross-queue tie-break on the full (ts, src, psn) key: when a
			// best-effort and a reliable entry from the same sender share a
			// timestamp, the PSN decides — always preferring one queue here
			// would violate the documented total order.
			if a, b := h.beQ.top(), h.relQ.top(); !pendingLess(b, a) {
				q = &h.beQ
			} else {
				q = &h.relQ
			}
		}
		if q.top().ts > eff {
			return
		}
		h.deliver(q.pop())
	}
}

func (h *Host) deliver(p *pending) {
	if p.reliable {
		if p.ts > h.deliveredC {
			h.deliveredC = p.ts
		}
	} else if p.ts > h.deliveredBE {
		h.deliveredBE = p.ts
	}
	if h.Cfg.Mode == DeliverUnified || h.Cfg.Mode == DeliverConflictAware {
		// One merged order: both floors advance together. Under conflict-
		// aware delivery only tagged entries reach this path, so the floors
		// track the tagged order exactly as unified tracks everything.
		if p.ts > h.deliveredBE {
			h.deliveredBE = p.ts
		}
		if p.ts > h.deliveredC {
			h.deliveredC = p.ts
		}
	}
	h.Stats.BufferedMsgs--
	h.Stats.BufferedBytes -= int64(p.size)
	h.Stats.MsgsDelivered++
	h.recObs(p)
	h.dispatch(p)
}

// deliverNow surfaces an untagged best-effort message the moment its
// reassembly completes (DeliverConflictAware fast path): no barrier wait,
// no buffered-stat charge (it was never buffered), and — critically — no
// delivered-floor update, so relaxed traffic can never NAK or reorder the
// tagged total order.
func (h *Host) deliverNow(p *pending) {
	h.Stats.MsgsDelivered++
	h.Stats.RelaxedDeliveries++
	h.recObs(p)
	h.dispatch(p)
}

// deliverRelaxed surfaces an untagged reliable message once the commit
// barrier covers it; like deliverNow it leaves the total-order floors alone.
func (h *Host) deliverRelaxed(p *pending) {
	h.Stats.BufferedMsgs--
	h.Stats.BufferedBytes -= int64(p.size)
	h.Stats.MsgsDelivered++
	h.Stats.RelaxedDeliveries++
	h.recObs(p)
	h.dispatch(p)
}

func (h *Host) recObs(p *pending) {
	if p.enqAt > 0 && h.Obs.On() {
		now := h.wire.Now()
		h.Obs.Rec(obs.SpanBarrierWait, now-p.enqAt)
		h.Obs.Rec(obs.SpanE2E, now-p.ts)
	}
}

// dispatch hands a delivery to its process callback, preserving the
// cross-process callback order on this host: anything batched for another
// process flushes before a delivery for this one is surfaced.
func (h *Host) dispatch(p *pending) {
	proc := h.procs[p.dst]
	if proc == nil {
		return
	}
	if len(h.batchQ) > 0 && h.batchDst != p.dst {
		h.flushDeliveries()
	}
	d := Delivery{TS: p.ts, Src: p.src, Dst: p.dst, Data: p.data,
		Reliable: p.reliable, Conflict: p.conflict}
	if proc.OnDeliverBatch != nil {
		h.batchDst = p.dst
		h.batchQ = append(h.batchQ, d)
		return
	}
	if proc.OnDeliver == nil {
		return
	}
	proc.OnDeliver(d)
}

// flushDeliveries hands the accumulated contiguous run to its process's
// OnDeliverBatch. The batch slice is reused afterwards; the no-retention
// rule is documented on OnDeliverBatch.
func (h *Host) flushDeliveries() {
	if len(h.batchQ) == 0 {
		return
	}
	proc := h.procs[h.batchDst]
	h.recvOcc.Add(float64(len(h.batchQ)))
	h.Stats.DeliverBatches++
	if proc != nil && proc.OnDeliverBatch != nil {
		proc.OnDeliverBatch(h.batchQ)
	}
	h.batchQ = h.batchQ[:0]
}

// handleNak reports a best-effort loss (ordering drop) back to the
// application immediately instead of waiting for the send-fail timeout.
func (h *Host) handleNak(pkt *netsim.Packet) {
	c := h.conns[connKey{src: pkt.Dst, dst: pkt.Src}]
	if c == nil {
		return
	}
	op, ok := c.unacked[0][pkt.PSN]
	if !ok {
		return
	}
	c.dropInflight(0, pkt.PSN)
	// A NAKed frame fails every live member: the receiver skipped the
	// whole PSN span.
	for m := op; m != nil; m = m.fnext {
		if m.scat.aborted || m.scat.done {
			continue
		}
		h.failMessage(m.scat, m.msgIdx)
	}
	h.grantCredits()
}
