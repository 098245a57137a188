package core

import (
	"sort"

	"onepipe/internal/netsim"
	"onepipe/internal/sim"
)

// ApplyFailure executes the Discard, Recall and Callback steps of §5.2 on
// this host after the controller broadcast a failure notification: failed
// maps each failed process to its failure timestamp. done is invoked once
// every recall issued by this host has been acknowledged — the host's
// completion message back to the controller.
func (h *Host) ApplyFailure(failed map[netsim.ProcID]sim.Time, done func()) {
	for p, ts := range failed {
		if old, ok := h.failedPeers[p]; !ok || ts < old {
			h.failedPeers[p] = ts
		}
	}

	// Discard: drop received-but-undelivered messages from failed
	// processes with timestamps beyond their failure timestamp.
	h.discardFrom(failed)

	// Recall: abort in-flight scatterings with a failed destination. A
	// previous round's recalls may still be pending (sharded controllers
	// broadcast concurrently, §6.1): completions compose rather than
	// clobber, and failWait keeps counting the union — overwriting it
	// would drop the earlier round's completion and wedge that shard's
	// broadcast forever.
	if prev := h.failDone; prev != nil {
		h.failDone = func() { prev(); done() }
	} else {
		h.failDone = done
	}
	h.recallAffected(failed)

	// Callback: notify every local process of each failure. Both maps are
	// walked in sorted key order — an application that acts on the callback
	// makes its order part of the deterministic replay contract, and ranging
	// over the maps directly would let Go's map-iteration randomization leak
	// into the event stream on multi-process failures.
	for _, fp := range sortedProcIDs(failed) {
		fts := failed[fp]
		for _, pid := range sortedProcIDs(h.procs) {
			if proc := h.procs[pid]; proc.OnProcFail != nil {
				proc.OnProcFail(fp, fts)
			}
		}
	}
	h.checkFailDone()
}

// sortedProcIDs returns m's keys in ascending order (see ApplyFailure: map
// walks with observable side effects must be deterministic).
func sortedProcIDs[V any](m map[netsim.ProcID]V) []netsim.ProcID {
	ids := make([]netsim.ProcID, 0, len(m))
	for id := range m {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return ids
}

func (h *Host) discardFrom(failed map[netsim.ProcID]sim.Time) {
	drop := func(p *pending) bool {
		if fts, dead := failed[p.src]; dead && p.ts > fts {
			h.Stats.BufferedMsgs--
			h.Stats.BufferedBytes -= int64(p.size)
			return true
		}
		return false
	}
	h.beQ.filter(drop)
	h.relQ.filter(drop)
	h.rlxQ.filter(drop)
	h.Stats.ReorderHotBytes = h.beQ.hotBytes + h.relQ.hotBytes + h.rlxQ.hotBytes
	// Partial reassembly state from failed processes is dropped wholesale:
	// no further fragments will arrive.
	for key, rc := range h.rconns {
		fts, dead := failed[key.src]
		if !dead {
			continue
		}
		for _, buf := range rc.bufs {
			buf.dropWhere(func(p *netsim.Packet) bool { return p.MsgTS > fts })
		}
	}
}

func (dh *deliveryHeap) reinit() {
	// Restore heap order after in-place filtering.
	h := *dh
	for i := len(h)/2 - 1; i >= 0; i-- {
		siftDown(h, i)
	}
}

func siftDown(h deliveryHeap, i int) {
	for {
		l, r := 2*i+1, 2*i+2
		small := i
		if l < len(h) && h.Less(l, small) {
			small = l
		}
		if r < len(h) && h.Less(r, small) {
			small = r
		}
		if small == i {
			return
		}
		h.Swap(i, small)
		i = small
	}
}

// recallAffected aborts every launched-but-uncommitted reliable scattering
// that includes a failed destination: messages to correct receivers are
// recalled (all-or-nothing delivery, §5.2), messages to the failed
// destination are reported via the send-failure callback, and waiting
// best-effort traffic to failed destinations is failed eagerly.
func (h *Host) recallAffected(failed map[netsim.ProcID]sim.Time) {
	for _, s := range h.outstanding {
		if s.done || s.aborted {
			continue
		}
		hit := false
		for i := range s.msgs {
			if _, dead := failed[s.msgs[i].Dst]; dead {
				hit = true
				break
			}
		}
		if !hit {
			continue
		}
		h.abortScattering(s)
	}
	// Credit-blocked scatterings with failed destinations cannot launch.
	remaining := h.waitQ[:0]
	for _, s := range h.waitQ {
		hit := false
		for i := range s.msgs {
			if _, dead := failed[s.msgs[i].Dst]; dead {
				hit = true
				break
			}
		}
		if !hit {
			remaining = append(remaining, s)
			continue
		}
		s.aborted = true
		h.releaseReservations(s)
		for i := range s.msgs {
			h.failMessage(s, i)
		}
	}
	h.waitQ = remaining
	// Un-ACKed packets addressed to failed processes will never be ACKed:
	// free their window slots so unrelated traffic keeps flowing. Both the
	// conn map and each unacked map are walked in sorted order: the
	// failMessage calls below surface OnSendFail to the application, so
	// their order is part of the deterministic replay contract (the recall
	// -ACK path at the bottom of this file sorts for the same reason).
	for _, key := range sortedConnKeys(h.conns) {
		if _, dead := failed[key.dst]; !dead {
			continue
		}
		c := h.conns[key]
		for k := 0; k < 2; k++ {
			for _, psn := range sortedPSNs(c.unacked[k]) {
				op := c.unacked[k][psn]
				c.dropInflight(k, psn)
				// A frame chain carries several scatterings in one slot; each
				// live best-effort member fails individually.
				for m := op; m != nil; m = m.fnext {
					if !m.scat.reliable && !m.scat.aborted {
						m.scat.aborted = true
						for i := range m.scat.msgs {
							if m.scat.ackedMsg[i] < m.scat.fragsPerMsg[i] {
								h.failMessage(m.scat, i)
							}
						}
					}
				}
			}
		}
		// Parked (MaxRetx-exhausted) packets toward the failed process are
		// equally unACKable; their scatterings were aborted above.
		c.stuckPkts = nil
	}
	h.grantCredits()
}

func sortedPSNs(m map[uint32]*outPkt) []uint32 {
	psns := make([]uint32, 0, len(m))
	for psn := range m {
		psns = append(psns, psn)
	}
	sort.Slice(psns, func(i, j int) bool { return psns[i] < psns[j] })
	return psns
}

// abortScattering recalls a reliable scattering: correct receivers are told
// to discard it, and once all recall ACKs arrive the scattering stops
// blocking the commit floor.
func (h *Host) abortScattering(s *scattering) {
	h.abortScatteringExcept(s, netsim.ProcID(-1))
}

// abortScatteringExcept is abortScattering with one destination exempted
// from the recall round-trip: the controller resolving an unreachable
// receiver has already recorded its tombstone durably, so sending it a
// recall could only stall for another MaxRetx round.
func (h *Host) abortScatteringExcept(s *scattering, noRecall netsim.ProcID) {
	s.aborted = true
	h.Stats.Recalled++
	for i := range s.msgs {
		dst := s.msgs[i].Dst
		h.failMessage(s, i)
		if dst == noRecall {
			continue
		}
		if _, dead := h.failedPeers[dst]; dead {
			continue
		}
		rk := recallKey{dst: dst, ts: s.ts}
		if _, exists := h.recalls[rk]; exists {
			continue
		}
		s.recallsPending++
		h.failWait++
		rs := &recallState{scat: s}
		rs.timer = h.wire.Timer(func() { h.resendRecall(rk, rs) })
		h.recalls[rk] = rs
		h.sendRecall(s.owner.ID, rk)
		rs.timer.Reset(h.Cfg.RTO)
	}
	// Drop un-ACKed packets of this scattering to stop retransmission.
	for i := range s.credits {
		s.credits[i].conn.dropScattering(s)
	}
	if s.recallsPending == 0 {
		s.done = true
		h.reapOutstanding()
	}
}

func (h *Host) sendRecall(src netsim.ProcID, rk recallKey) {
	pkt := netsim.GetPacket()
	pkt.Kind, pkt.Src, pkt.Dst = netsim.KindRecall, src, rk.dst
	pkt.MsgTS, pkt.Size = rk.ts, netsim.BeaconBytes
	h.emit(pkt)
}

func (h *Host) resendRecall(rk recallKey, rs *recallState) {
	if h.stopped {
		return
	}
	rs.tries++
	if h.Cfg.MaxRetx > 0 && rs.tries > h.Cfg.MaxRetx {
		// Final report, then clean up as if resolved: leaving the recall
		// registered would hold recallsPending nonzero forever, so the
		// aborting scattering never goes done, reapOutstanding stalls the
		// commit floor, and ApplyFailure's completion never fires. The
		// escalation (durable recall record or forwarding) is the
		// controller's job once OnStuck has been reported.
		h.reportStuck(rs.scat.owner.ID, rk.dst, rk.ts)
		h.finishRecall(rk, rs)
		return
	}
	h.sendRecall(rs.scat.owner.ID, rk)
	rs.timer.Reset(h.Cfg.RTO)
}

// finishRecall resolves one outstanding recall — acknowledged, controller-
// resolved, or abandoned after MaxRetx — releasing the aborting scattering
// and the failure-completion wait.
func (h *Host) finishRecall(rk recallKey, rs *recallState) {
	rs.timer.Stop()
	delete(h.recalls, rk)
	rs.scat.recallsPending--
	if rs.scat.recallsPending == 0 {
		rs.scat.done = true
		h.reapOutstanding()
	}
	h.failWait--
	h.checkFailDone()
}

// handleRecall executes the receiver side of Recall: discard the scattering
// member identified by (sender, timestamp) and acknowledge.
func (h *Host) handleRecall(pkt *netsim.Packet) {
	h.ApplyRecallTombstone(pkt.Src, pkt.MsgTS)
	ack := netsim.GetPacket()
	ack.Kind, ack.Src, ack.Dst = netsim.KindRecallAck, pkt.Dst, pkt.Src
	ack.MsgTS, ack.Size = pkt.MsgTS, netsim.BeaconBytes
	h.emit(ack)
}

// ApplyRecallTombstone discards the scattering member (sender, ts) without
// acknowledging — used directly by the controller during receiver recovery.
func (h *Host) ApplyRecallTombstone(sender netsim.ProcID, ts sim.Time) {
	rk := recallKey{dst: sender, ts: ts}
	if !h.recallTomb[rk] {
		h.recallTomb[rk] = true
		h.removeBuffered(sender, ts)
	}
}

func (h *Host) removeBuffered(src netsim.ProcID, ts sim.Time) {
	drop := func(p *pending) bool {
		if p.src == src && p.ts == ts {
			h.Stats.BufferedMsgs--
			h.Stats.BufferedBytes -= int64(p.size)
			return true
		}
		return false
	}
	h.relQ.filter(drop)
	// Untagged reliable members of a recalled scattering sit in rlxQ under
	// DeliverConflictAware; the recall covers them too (§5.2 atomicity).
	h.rlxQ.filter(drop)
	h.Stats.ReorderHotBytes = h.beQ.hotBytes + h.relQ.hotBytes + h.rlxQ.hotBytes
	// Buffered fragments of the recalled message are consumed unseen.
	for key, rc := range h.rconns {
		if key.src != src {
			continue
		}
		rc.bufs[1].dropWhere(func(p *netsim.Packet) bool { return p.MsgTS == ts })
	}
}

// PendingTo rebuilds the wire packets of every un-ACKed reliable message
// from src to dst — the payload of §5.2's Controller Forwarding when the
// network path between the pair has failed but both remain controller-
// reachable.
func (h *Host) PendingTo(src, dst netsim.ProcID) []*netsim.Packet {
	c := h.conns[connKey{src: src, dst: dst}]
	if c == nil {
		return nil
	}
	var out []*netsim.Packet
	for _, op := range c.unacked[1] {
		if pkt := c.buildUnit(op); pkt != nil {
			out = append(out, pkt)
		}
	}
	// Packets parked after MaxRetx exhaustion are exactly the ones the
	// controller is being asked to forward. buildUnit skips aborted chain
	// members and returns nil for fully aborted chains.
	for _, op := range c.stuckPkts {
		if pkt := c.buildUnit(op); pkt != nil {
			out = append(out, pkt)
		}
	}
	for _, op := range c.sendQ {
		if op.scat.reliable && !op.scat.aborted {
			out = append(out, c.buildPacket(op, op.psn))
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].PSN < out[j].PSN })
	return out
}

// ResolveRecall completes a recall whose receiver is unreachable: the
// controller has durably recorded the undeliverable recall (so a recovered
// receiver will discard consistently) and releases the sender (§5.2
// Controller Forwarding).
func (h *Host) ResolveRecall(dst netsim.ProcID, ts sim.Time) {
	rk := recallKey{dst: dst, ts: ts}
	rs, ok := h.recalls[rk]
	if !ok {
		return
	}
	h.finishRecall(rk, rs)
}

// ResolveUnreachable releases the sender of a scattering stuck toward an
// unreachable — typically drained — destination after the controller has
// durably recorded the recall tombstone. If the stall had already
// escalated to an active recall this is ResolveRecall; otherwise the
// still-outstanding scattering is aborted here: every other receiver is
// recalled normally, no recall is sent to dst itself, and the sender
// observes the ordinary send-failure callbacks. Without this, a data
// packet that exhausted MaxRetx toward a departed host would park its
// scattering on the commit floor forever.
func (h *Host) ResolveUnreachable(dst netsim.ProcID, ts sim.Time) {
	rk := recallKey{dst: dst, ts: ts}
	if rs, ok := h.recalls[rk]; ok {
		h.finishRecall(rk, rs)
		return
	}
	for _, s := range h.outstanding {
		if s.ts != ts || s.done || s.aborted {
			continue
		}
		hit := false
		for i := range s.msgs {
			if s.msgs[i].Dst == dst {
				hit = true
				break
			}
		}
		if !hit {
			continue
		}
		h.abortScatteringExcept(s, dst)
		return
	}
}

func (h *Host) handleRecallAck(pkt *netsim.Packet) {
	rk := recallKey{dst: pkt.Src, ts: pkt.MsgTS}
	rs, ok := h.recalls[rk]
	if !ok {
		return
	}
	h.finishRecall(rk, rs)
}

func (h *Host) checkFailDone() {
	if h.failWait == 0 && h.failDone != nil {
		done := h.failDone
		h.failDone = nil
		done()
	}
}
