package netsim

import (
	"fmt"
	"math/rand"

	"onepipe/internal/clock"
	"onepipe/internal/obs"
	"onepipe/internal/sim"
	"onepipe/internal/topology"
)

// Stats counts network-level events for the overhead experiments.
type Stats struct {
	PktsByKind  [8]uint64
	BytesByKind [8]uint64
	CorruptDrop uint64
	QueueDrop   uint64
	DeadDrop    uint64 // dropped on dead links/nodes
	ECNMarks    uint64
	Delivered   uint64
}

// Add accumulates o into s (per-shard stats merging).
func (s *Stats) Add(o *Stats) {
	for i := range s.PktsByKind {
		s.PktsByKind[i] += o.PktsByKind[i]
		s.BytesByKind[i] += o.BytesByKind[i]
	}
	s.CorruptDrop += o.CorruptDrop
	s.QueueDrop += o.QueueDrop
	s.DeadDrop += o.DeadDrop
	s.ECNMarks += o.ECNMarks
	s.Delivered += o.Delivered
}

// BeaconBandwidthFraction returns the fraction of total bytes that were
// beacons (Fig. 13b).
func (s *Stats) BeaconBandwidthFraction() float64 {
	var total uint64
	for _, b := range s.BytesByKind {
		total += b
	}
	if total == 0 {
		return 0
	}
	return float64(s.BytesByKind[KindBeacon]) / float64(total)
}

type linkState struct {
	id   topology.LinkID
	kind topology.LinkKind
	from topology.NodeID
	to   topology.NodeID
	bpns float64 // bytes per nanosecond; 0 = infinite
	prop sim.Time
	// src owns the egress half of the link state (busy, lastTx*,
	// lastArrival, beacon relay fields): every transmit/beacon event for
	// this link runs on src's engine. dst owns the ingress half (reg*,
	// lastRx, alive*, drained): receive events run on dst's engine. The
	// only cross-shard handoff is the transmit->receive edge, whose delay
	// is at least the link propagation — which bounds the lookahead. With
	// one shard both point at the same state and nothing changes.
	src, dst *shardState
	busy     sim.Time // egress busy-until
	last     sim.Time // last transmit completion (idle detection)
	// imp is the resolved impairment state for this link (nil when the
	// profile leaves it clean). Egress-owned: only transmit touches it.
	imp *ImpairState
	// lastTxBE/C track the freshest barriers already carried on this link
	// (by stamped data in chip mode, or by earlier beacons), so a beacon
	// adding no information is suppressed — the §4.2 "beacons on idle
	// links" rule generalized to sporadically-busy links.
	lastTxBE sim.Time
	lastTxC  sim.Time
	// lastArrival enforces FIFO under jitter.
	lastArrival sim.Time
	// Beacon relay state for the egress side. pendBE/pendC hold the
	// barriers captured at relay-trigger time until the beacon fires
	// (beaconPending serializes the two-step relay per link).
	beaconPending bool
	lastBeaconTx  sim.Time
	pendBE        sim.Time
	pendC         sim.Time
	// Receiver-side per-input-link state (the switch registers of §4.1).
	regBE  sim.Time
	regC   sim.Time
	lastRx sim.Time
	// alive gates the best-effort plane: the decentralized dead-link
	// scanner clears it (§4.2). aliveC gates the commit plane: when the
	// commit plane is controller-managed, it stays true until the
	// controller's Resume step so that Discard/Recall complete before
	// commit barriers advance past the failure timestamp (§5.2).
	alive  bool
	aliveC bool
	// excludedC marks a link the controller has removed from commit
	// aggregation for good: packet arrivals must not resurrect it. Needed
	// for a failed-but-running host (e.g. dead downlink only) that keeps
	// transmitting — its parked commit floor would otherwise cap the
	// cluster-wide barrier forever (§5.2: a failed process's links leave
	// the aggregation tree).
	excludedC bool
	// drained marks a link gracefully removed from (or not yet admitted
	// to) aggregation by live reconfiguration. Unlike death, the dead-link
	// scanner must never report it, and straggler packet arrivals must not
	// resurrect it — a drain is a membership change, not a failure.
	drained bool
}

type nodeState struct {
	id  topology.NodeID
	in  []topology.LinkID
	out []topology.LinkID
	// outBE/outC are the node's monotonic barrier outputs; clamping them
	// non-decreasing implements the §4.2 rule that a switch suspends
	// updates when a (re)added link's barrier lags.
	outBE sim.Time
	outC  sim.Time
	// lastRelayBE/C record the barriers most recently relayed in beacons,
	// so a relay is scheduled only when aggregation actually advanced.
	lastRelayBE sim.Time
	lastRelayC  sim.Time
}

// shardState is the per-shard execution context: the shard's engine plus
// everything the per-packet hot path touches that must not be shared
// between concurrently executing shards. A single-engine network has
// exactly one, pointing at the Network's own Eng/Stats/rng — the classic
// code path, unchanged. In lockstep sharding all shardStates share one rng
// (the global event order makes the draws identical to a single engine);
// in parallel sharding each shard gets its own stream derived from the
// root seed.
type shardState struct {
	eng   *sim.Engine
	stats *Stats
	rng   *rand.Rand
	// hopsBuf is this shard's ECMP candidate scratch; it never escapes
	// one receive call.
	hopsBuf []topology.LinkID
	// ingress lists the links whose receive side this shard owns; the
	// per-shard dead-link scanner (parallel mode) walks it.
	ingress []*linkState
}

// Network is the simulated data center network.
type Network struct {
	Eng    *sim.Engine
	G      *topology.Graph
	Cfg    Config
	Clocks []*clock.Clock // one per host
	Stats  Stats

	// Sharded operation (Cfg.Shards > 1): sh drives the shard group,
	// shardMap is the pod cut, shards the per-shard contexts, and nodeSh
	// maps every node to its owner. With one shard sh is nil and shards
	// holds a single context aliasing Eng/Stats/rng.
	sh       *sim.ShardedEngine
	shardMap topology.ShardMap
	shards   []*shardState
	nodeSh   []*shardState

	// links and nodes hold pointers, not values: scheduled events and
	// beacon-ticker closures capture *linkState/*nodeState, and Grow
	// appends at runtime — a value slice would invalidate every captured
	// pointer on reallocation.
	links []*linkState
	nodes []*nodeState
	// hostRx receives every packet (including beacons) delivered to a host.
	hostRx []func(*Packet)
	rng    *rand.Rand
	// lossFault is the SetLossFault override; 0 when no fault is armed.
	lossFault float64

	// OnLinkDead, if set, is invoked when a switch's dead-link scanner
	// removes an input link — the controller's failure Detect signal.
	OnLinkDead func(l topology.Link, lastCommit sim.Time)

	// Obs, when armed by EnableObs, receives per-switch barrier-lag and
	// egress-queue-depth gauge samples.
	Obs *obs.Trace

	tickers []*sim.Ticker

	// Capture-free event callbacks for the per-packet hops, allocated once
	// so the hot path schedules through Engine.At2 without a closure per
	// packet.
	transmitFn     func(a, b any)
	receiveFn      func(a, b any)
	deliverFn      func(a, b any)
	relayTriggerFn func(a, b any)
	relayFireFn    func(a, b any)
}

// New builds the network, its clocks and its beacon machinery.
func New(cfg Config) *Network {
	if cfg.ProcsPerHost <= 0 {
		cfg.ProcsPerHost = 1
	}
	if cfg.Oversub < 1 {
		cfg.Oversub = 1
	}
	if cfg.Shards < 1 {
		cfg.Shards = 1
	}
	g := topology.NewClos(cfg.Topo)
	m := g.PodShards(cfg.Shards)
	if cfg.Shards > 1 {
		if _, ok := cfg.MinCrossShardLatency(g, m); !ok {
			// Degenerate cut (e.g. one pod): every node landed on shard 0,
			// so extra shards would idle. Fall back to a single engine.
			cfg.Shards = 1
			m = g.PodShards(1)
		}
	}
	n := &Network{G: g, Cfg: cfg, shardMap: m,
		rng:    rand.New(rand.NewSource(cfg.Seed + 7919)),
		hostRx: make([]func(*Packet), len(g.Hosts)),
	}
	if cfg.Shards == 1 {
		n.Eng = sim.NewEngine(cfg.Seed)
	} else {
		la, _ := cfg.MinCrossShardLatency(g, m)
		n.sh = sim.NewShardedEngine(cfg.Seed, cfg.Shards, la, cfg.Parallel)
		n.Eng = n.sh.Shard(0)
	}
	n.shards = make([]*shardState, cfg.Shards)
	for i := range n.shards {
		s := &shardState{rng: n.rng}
		if n.sh == nil {
			s.eng, s.stats = n.Eng, &n.Stats
		} else {
			s.eng = n.sh.Shard(i)
			s.stats = new(Stats)
			if cfg.Parallel {
				// Parallel shards draw loss/jitter/ECMP from their own
				// streams; lockstep shards share the root stream, whose
				// draws happen in single-engine order.
				s.rng = rand.New(rand.NewSource(shardSalt(cfg.Seed+7919, i)))
			}
		}
		n.shards[i] = s
	}
	n.nodeSh = make([]*shardState, len(g.Nodes))
	for i := range g.Nodes {
		n.nodeSh[i] = n.shards[m.Of(topology.NodeID(i))]
	}
	n.transmitFn = func(a, b any) { n.transmit(a.(*linkState), b.(*Packet)) }
	n.receiveFn = func(a, b any) { n.receive(a.(*linkState), b.(*Packet)) }
	n.deliverFn = func(a, b any) { a.(func(*Packet))(b.(*Packet)) }
	n.relayTriggerFn = func(a, b any) {
		node, ls := a.(*nodeState), b.(*linkState)
		ls.pendBE, ls.pendC = n.nodeBarriers(node)
		ls.src.eng.After2(n.beaconProcDelay(), n.relayFireFn, node, ls)
	}
	n.relayFireFn = func(a, b any) {
		ls := b.(*linkState)
		n.fireBeacon(a.(*nodeState), ls, ls.pendBE, ls.pendC)
	}
	for i := 0; i < len(g.Hosts); i++ {
		n.Clocks = append(n.Clocks, n.newHostClock(i))
	}
	n.links = make([]*linkState, len(g.Links))
	for i, l := range g.Links {
		ls := n.newLinkState(l)
		ls.alive = true
		ls.aliveC = true
		n.links[i] = ls
	}
	n.nodes = make([]*nodeState, len(g.Nodes))
	for i := range g.Nodes {
		n.nodes[i] = &nodeState{id: topology.NodeID(i), in: g.In[i], out: g.Out[i]}
	}
	if !cfg.DisableBeacons {
		n.startSwitchBeacons()
	}
	n.startDeadLinkScanner()
	return n
}

// shardSalt derives shard i's seed for an auxiliary stream.
func shardSalt(seed int64, i int) int64 {
	if i == 0 {
		return seed
	}
	return seed ^ int64(uint64(i)*0x9e3779b97f4a7c15)
}

// newHostClock builds host hi's clock on its owning shard's engine. The
// construction-time offset/drift draws always come from the root engine's
// stream — in that order they are identical at every shard count — and in
// parallel mode the clock is then re-seeded with a per-host stream so
// runtime resyncs stay off the shared source.
func (n *Network) newHostClock(hi int) *clock.Clock {
	sh := n.nodeSh[n.G.Host(hi)]
	c := clock.New(sh.eng, n.Eng.Rand(), n.Cfg.Clock)
	if n.sh != nil && n.Cfg.Parallel {
		c.Reseed(rand.New(rand.NewSource(shardSalt(n.Cfg.Seed+104729, hi+1))))
	}
	return c
}

func (n *Network) newLinkState(l topology.Link) *linkState {
	ls := &linkState{
		id: l.ID, kind: l.Kind, from: l.From, to: l.To,
		prop: n.propOf(l.Kind),
		bpns: n.bandwidthOf(l.Kind),
		src:  n.nodeSh[l.From],
		dst:  n.nodeSh[l.To],
	}
	if imp := n.Cfg.Impair.For(l.ID, l.Kind); imp != nil && *imp != (Impairment{}) {
		ls.imp = NewImpairState(imp, n.Cfg.Seed, l.ID)
	}
	ls.dst.ingress = append(ls.dst.ingress, ls)
	return ls
}

func (n *Network) propOf(k topology.LinkKind) sim.Time { return n.Cfg.PropOf(k) }

func (n *Network) bandwidthOf(k topology.LinkKind) float64 {
	const bytesPerNsPerGbps = 1.0 / 8.0
	topo := n.Cfg.Topo
	switch k {
	case topology.LinkHostUp, topology.LinkTorHostDown:
		return n.Cfg.HostGbps * bytesPerNsPerGbps
	case topology.LinkLoopback:
		return 0 // infinite: virtual link inside the chip
	case topology.LinkTorSpineUp, topology.LinkSpineTorDown:
		// Full-bisection trunk (§7.1: "no oversubscription"): each ToR's
		// aggregate uplink capacity equals its host-facing capacity,
		// split across the pod's spines. Oversub shrinks it.
		trunk := n.Cfg.FabricGbps * float64(topo.HostsPerRack) / float64(topo.SpinesPerPod)
		return trunk * bytesPerNsPerGbps / n.Cfg.Oversub
	default: // spine <-> core
		trunk := n.Cfg.FabricGbps * float64(topo.RacksPerPod*topo.HostsPerRack) / float64(topo.Cores)
		return trunk * bytesPerNsPerGbps / n.Cfg.Oversub
	}
}

// NumProcs returns the total number of processes.
func (n *Network) NumProcs() int { return len(n.G.Hosts) * n.Cfg.ProcsPerHost }

// HostOfProc maps a process to its host index.
func (n *Network) HostOfProc(p ProcID) int { return int(p) / n.Cfg.ProcsPerHost }

// ClockOfProc returns the host clock a process stamps messages with.
func (n *Network) ClockOfProc(p ProcID) *clock.Clock { return n.Clocks[n.HostOfProc(p)] }

// AttachHost registers the receive callback for a host. Every packet
// destined to any process on the host — including beacons arriving on its
// ToR downlink — is delivered to rx.
func (n *Network) AttachHost(host int, rx func(*Packet)) { n.hostRx[host] = rx }

// uplink returns the host's single uplink.
func (n *Network) uplink(host int) *linkState {
	out := n.G.Out[n.G.Host(host)]
	return n.links[out[0]]
}

// SendFromHost injects a packet from a host into the network, charging host
// processing delay then the uplink. Beacon and commit packets go to the ToR
// (Dst ignored); data goes toward Dst's host. In sharded operation the call
// must come from the host's own shard (HostEngine); the uplink's egress is
// on the same shard under the pod cut.
func (n *Network) SendFromHost(host int, pkt *Packet) {
	up := n.uplink(host)
	pkt.SentAt = up.src.eng.Now()
	up.src.eng.After2(n.Cfg.HostDelay, n.transmitFn, up, pkt)
}

// HostEngine returns the engine of the shard owning host hi. Workloads
// driving a sharded network must schedule each host's events here.
func (n *Network) HostEngine(hi int) *sim.Engine { return n.nodeSh[n.G.Host(hi)].eng }

// SendFromProc is SendFromHost keyed by source process.
func (n *Network) SendFromProc(p ProcID, pkt *Packet) {
	n.SendFromHost(n.HostOfProc(p), pkt)
}

// transmit places a packet on a link's egress queue. It always executes on
// the shard owning the link's egress (l.src); the scheduled arrival is the
// one cross-shard handoff of the packet's life at this hop.
func (n *Network) transmit(l *linkState, pkt *Packet) {
	sh := l.src
	if n.G.LinkDead(l.id) {
		sh.stats.DeadDrop++
		PutPacket(pkt)
		return
	}
	now := sh.eng.Now()
	start := now
	if l.busy > start {
		start = l.busy
	}
	qdelay := start - now
	if n.Cfg.QueueLimit > 0 && qdelay > n.Cfg.QueueLimit {
		sh.stats.QueueDrop++
		PutPacket(pkt)
		return
	}
	pkt.QueueWait += qdelay
	if n.Cfg.ECNThreshold > 0 && qdelay > n.Cfg.ECNThreshold {
		pkt.ECN = true
		sh.stats.ECNMarks++
	}
	ser := sim.Time(0)
	if l.bpns > 0 {
		ser = sim.Time(float64(pkt.Size) / l.bpns)
	}
	l.busy = start + ser
	l.last = l.busy
	if pkt.Kind == KindBeacon || pkt.Kind == KindCommit || n.Cfg.Mode == ModeChip {
		if pkt.BarrierBE > l.lastTxBE {
			l.lastTxBE = pkt.BarrierBE
		}
		if pkt.BarrierC > l.lastTxC {
			l.lastTxC = pkt.BarrierC
		}
	}
	sh.stats.PktsByKind[pkt.Kind]++
	sh.stats.BytesByKind[pkt.Kind] += uint64(pkt.Size)
	// Uniform corruption: the armed loss fault when set, otherwise the
	// link profile's Loss. Either way the draw comes from the shared shard
	// RNG at this exact point, so a fault window consumes the same stream
	// position the profile's uniform loss would.
	loss := n.lossFault
	if loss == 0 && l.imp != nil {
		loss = l.imp.Imp.Loss
	}
	if loss > 0 && sh.rng.Float64() < loss {
		sh.stats.CorruptDrop++
		PutPacket(pkt) // corrupted in flight; bandwidth already consumed
		return
	}
	// Stateful loss models (Gilbert-Elliott bursts, duty-cycle windows)
	// draw from the per-link RNG — and draw nothing when unconfigured.
	if l.imp != nil && l.imp.dropBurst(now) {
		sh.stats.CorruptDrop++
		PutPacket(pkt)
		return
	}
	arrive := l.busy + l.prop
	if l.imp != nil {
		if j := l.imp.Imp.Jitter; j > 0 {
			// Bursty delay variance: mostly a small wiggle, occasionally
			// a straggler several times the nominal jitter (transient
			// queueing behind a burst) — the delay asymmetry that makes
			// multi-path ordering hazards real (§2.2.1).
			extra := sim.Time(sh.rng.Int63n(int64(j)/3 + 1))
			if sh.rng.Intn(20) == 0 {
				extra += sim.Time(sh.rng.Int63n(int64(j) * 4))
			}
			arrive += extra
			// FIFO clamp: a jittered packet never overtakes its
			// predecessor on the same link (the barrier invariant rests
			// on this).
			if arrive < l.lastArrival {
				arrive = l.lastArrival
			}
			l.lastArrival = arrive
		}
		// ExtraDelay (RTT class) is constant per link and added after the
		// clamp: it shifts every arrival equally, preserving FIFO. The
		// reorder hold-back deliberately skips the clamp — it models a
		// non-FIFO link — and must not drag later packets via lastArrival.
		arrive += l.imp.Imp.ExtraDelay
		arrive += l.imp.reorderExtra()
	}
	// Ownership handoff: from here the packet belongs to the receive-side
	// shard. Cross-shard arrivals ride the window-barrier outbox; arrive is
	// at least l.prop >= lookahead in the future, which is what makes the
	// conservative window sound.
	sh.eng.At2On(l.dst.eng, arrive, n.receiveFn, l, pkt)
}

// receive handles packet arrival at the downstream end of a link. It
// executes on the shard owning the link's ingress (l.dst), which under the
// pod cut also owns the downstream node's registers, barriers and egress
// links — forwarding stays shard-local.
func (n *Network) receive(l *linkState, pkt *Packet) {
	sh := l.dst
	if n.G.NodeDead(l.to) {
		sh.stats.DeadDrop++
		PutPacket(pkt)
		return
	}
	now := sh.eng.Now()
	if !l.drained {
		l.lastRx = now
		l.alive = true
		if !l.excludedC {
			l.aliveC = true
		}
		// Update the per-input-link barrier registers (§4.1). With a
		// programmable chip every packet carries per-link-valid barriers
		// (rewritten each hop). With switch-CPU or host-delegate processing
		// the chip forwards data untouched, so data barriers are only valid
		// on the first (host) link — the host stamps every emission in
		// software, and with beacon piggybacking a busy uplink's standalone
		// beacons are suppressed in favor of exactly those stamps, so the
		// ToR must honor them or a continuously-loaded host's floor never
		// propagates and delivery stalls fabric-wide. Deeper links advance
		// from beacons and commit messages alone, matching §6.2.2. A
		// drained link skips all of this: straggler arrivals must not
		// re-admit it to aggregation, and its registers are pinned at
		// DrainedRegister.
		if pkt.Kind == KindBeacon || pkt.Kind == KindCommit || n.Cfg.Mode == ModeChip ||
			l.kind == topology.LinkHostUp {
			if pkt.BarrierBE > l.regBE {
				l.regBE = pkt.BarrierBE
			}
			if pkt.BarrierC > l.regC {
				l.regC = pkt.BarrierC
			}
		}
	}

	dst := n.G.Node(l.to)
	if dst.Kind == topology.KindHost {
		sh.stats.Delivered++
		host := n.G.HostIndex(l.to)
		if rx := n.hostRx[host]; rx != nil {
			// Ownership transfers to the host layer: core's receive path
			// releases the packet once it is terminally consumed.
			sh.eng.After2(n.Cfg.HostDelay, n.deliverFn, rx, pkt)
		} else {
			PutPacket(pkt)
		}
		return
	}

	// Aggregation advanced? Relay updated barriers downstream. With
	// synchronized beacon phases all inputs update near-simultaneously, so
	// this fires about once per interval per node and keeps the idle
	// barrier lag near one beacon interval end to end rather than one
	// interval per hop.
	node := n.nodes[l.to]
	be, c := n.nodeBarriers(node)
	if !n.Cfg.DisableBeacons && !n.Cfg.DisableEventRelay && (be > node.lastRelayBE || c > node.lastRelayC) {
		n.scheduleRelays(node)
	}

	switch pkt.Kind {
	case KindBeacon, KindCommit:
		// Hop-by-hop: consumed here; the barrier they carried now lives in
		// the input-link registers and will propagate via this switch's
		// own egress stamping and beacons.
		PutPacket(pkt)
		return
	}

	// Forward toward the destination host. The chip incarnation stamps
	// the aggregated barriers here, at the fixed-latency pipeline's entry:
	// every packet of this logical switch passes one uniform pipeline, so
	// stamp order equals wire order on every egress — the property the
	// per-link barrier promise rests on.
	if n.Cfg.Mode == ModeChip {
		pkt.BarrierBE, pkt.BarrierC = be, c
	}
	dstHost := n.G.Host(n.HostOfProc(pkt.Dst))
	sh.hopsBuf = n.G.AppendNextHops(sh.hopsBuf[:0], l.to, dstHost)
	hops := sh.hopsBuf
	if len(hops) == 0 {
		sh.stats.DeadDrop++
		PutPacket(pkt)
		return
	}
	var out topology.LinkID
	if len(hops) == 1 {
		out = hops[0]
	} else if n.Cfg.FlowECMP {
		h := uint32(pkt.Src)*2654435761 + uint32(pkt.Dst)*40503
		out = hops[h%uint32(len(hops))]
	} else {
		out = hops[sh.rng.Intn(len(hops))]
	}
	// A uniform pipeline latency per logical switch: a physical switch is
	// two logical halves (Fig. 3), each charging half the physical
	// forwarding delay. Uniformity — including for loopback-entered
	// packets — is load-bearing: different in-switch latencies would let
	// a later-stamped packet overtake an earlier one onto the same
	// egress, breaking barrier monotonicity on the link.
	fwd := n.Cfg.SwitchFwdDelay
	if n.Cfg.NonuniformPipeline && l.kind == topology.LinkLoopback {
		fwd = 0 // chaos-harness self-test: the pre-fix nonuniform pipeline
	}
	// The chosen egress leaves this node, whose shard we are on: the
	// forwarding hop never crosses shards.
	sh.eng.After2(fwd, n.transmitFn, n.links[out], pkt)
}

// nodeBarriers computes the per-plane min over live input links, clamped
// non-decreasing.
func (n *Network) nodeBarriers(node *nodeState) (be, c sim.Time) {
	firstBE, firstC := true, true
	var minBE, minC sim.Time
	for _, lid := range node.in {
		l := n.links[lid]
		// Best-effort plane: a link removed by the scanner or dead in the
		// topology stops contributing. Commit plane: the last register of
		// a dead link keeps gating the min until the controller's Resume
		// step clears aliveC — otherwise commit barriers could pass the
		// failure timestamp before Discard/Recall complete (§5.2).
		if l.alive && !n.G.LinkDead(lid) {
			if firstBE || l.regBE < minBE {
				minBE = l.regBE
				firstBE = false
			}
		}
		if l.aliveC {
			if firstC || l.regC < minC {
				minC = l.regC
				firstC = false
			}
		}
	}
	if !firstBE && minBE > node.outBE {
		node.outBE = minBE
	}
	if !firstC && minC > node.outC {
		node.outC = minC
	}
	return node.outBE, node.outC
}

// NodeBarriers exposes a switch's current aggregated barriers (used by the
// controller to read last-commit state during failure handling).
func (n *Network) NodeBarriers(id topology.NodeID) (be, c sim.Time) {
	return n.nodeBarriers(n.nodes[id])
}

// LinkRegisters exposes an input link's barrier registers.
func (n *Network) LinkRegisters(id topology.LinkID) (be, c sim.Time) {
	return n.links[id].regBE, n.links[id].regC
}

// beaconProcDelay is the per-hop cost of generating a barrier beacon in the
// current incarnation: a pipeline pass for the chip, CPU processing for the
// switch CPU, and a switch-host round trip plus host processing for the
// delegate (§6.2).
func (n *Network) beaconProcDelay() sim.Time {
	switch n.Cfg.Mode {
	case ModeSwitchCPU:
		return n.Cfg.CPUBeaconDelay
	case ModeHostDelegate:
		return n.Cfg.HostDelegateDelay
	default:
		return n.Cfg.SwitchFwdDelay
	}
}

// scheduleRelays arms a beacon on every egress link of a switch whose
// aggregated barrier advanced, rate-limited to one beacon per link per
// interval. Each relay is a two-step event: at trigger time the barrier
// stamp is captured — the same instant data packets passing through would
// be stamped — and the beacon enters the egress queue one processing delay
// later, so a beacon can never overtake a data packet whose timestamp its
// barrier does not cover. A rate-limit deferral moves the trigger itself,
// so the stamp is always fresh at capture.
func (n *Network) scheduleRelays(node *nodeState) {
	for _, lid := range node.out {
		n.armRelay(node, n.links[lid])
	}
}

func (n *Network) armRelay(node *nodeState, ls *linkState) {
	if ls.beaconPending || ls.drained || n.G.LinkDead(ls.id) {
		return
	}
	ls.beaconPending = true
	proc := n.beaconProcDelay()
	trigger := ls.src.eng.Now()
	if earliest := ls.lastBeaconTx + n.Cfg.BeaconInterval - proc; earliest > trigger {
		trigger = earliest
	}
	// Two allocation-free steps: the trigger captures the barrier stamp
	// into ls.pendBE/pendC (beaconPending serializes access), the fire
	// step emits it one processing delay later. Relays stay on the shard
	// owning the node (= the egress links' shard under the pod cut).
	ls.src.eng.At2(trigger, n.relayTriggerFn, node, ls)
}

// fireBeacon emits a beacon carrying barriers captured at trigger time on
// one egress link. In chip mode a link that recently carried stamped
// traffic needs no beacon (§4.2: beacons are for idle links only).
func (n *Network) fireBeacon(node *nodeState, ls *linkState, be, c sim.Time) {
	ls.beaconPending = false
	if ls.drained || n.G.LinkDead(ls.id) || n.G.NodeDead(node.id) {
		return
	}
	now := ls.src.eng.Now()
	if node.lastRelayBE < be {
		node.lastRelayBE = be
	}
	if node.lastRelayC < c {
		node.lastRelayC = c
	}
	if be <= ls.lastTxBE && c <= ls.lastTxC {
		return // traffic on this link already carried these barriers
	}
	ls.lastBeaconTx = now
	pkt := GetPacket()
	pkt.Kind, pkt.BarrierBE, pkt.BarrierC, pkt.Size = KindBeacon, be, c, BeaconBytes
	n.transmit(ls, pkt)
}

// startSwitchBeacons arms the fallback ticker per switch egress link: if no
// beacon (or, for the chip, no stamped traffic) was sent for a full
// interval, one is generated. The event-driven relay path above carries the
// common case; the ticker guarantees liveness after beacon loss or when
// upstream barriers stall.
func (n *Network) startSwitchBeacons() {
	for _, ls := range n.links {
		if n.G.Node(ls.from).Kind == topology.KindHost {
			continue // host beacons are generated by the attached 1Pipe endpoint
		}
		n.armSwitchBeaconTicker(ls)
	}
}

// armSwitchBeaconTicker arms the fallback beacon ticker of one switch
// egress link; Grow calls it for links appended at runtime.
func (n *Network) armSwitchBeaconTicker(ls *linkState) {
	node := n.nodes[ls.from]
	tk := sim.NewTicker(ls.src.eng, n.Cfg.BeaconInterval, 0, func() {
		if n.G.NodeDead(ls.from) {
			return
		}
		// Pure liveness fallback: stay out of the way of the
		// event-driven relay wave, which self-clocks at one beacon
		// per interval — competing with it would steal its
		// rate-limit slot and add a full interval of barrier lag.
		// (With event relays ablated away, the ticker IS the relay
		// and runs every interval, as the paper describes.)
		holdoff := 2 * n.Cfg.BeaconInterval
		if n.Cfg.DisableEventRelay {
			holdoff = n.Cfg.BeaconInterval
		}
		if ls.src.eng.Now()-ls.lastBeaconTx < holdoff {
			return
		}
		n.armRelay(node, ls)
	})
	n.tickers = append(n.tickers, tk)
}

// startDeadLinkScanner arms the per-switch input-link timeout (§4.2):
// after DeadLinkBeacons silent intervals an input link is removed from
// aggregation and the controller hook is notified once.
func (n *Network) startDeadLinkScanner() {
	if n.Cfg.DeadLinkBeacons <= 0 || n.Cfg.DisableBeacons {
		return
	}
	if n.sh != nil && n.Cfg.Parallel {
		// Parallel shards must not read other shards' ingress state: each
		// shard scans only the links it owns the receive side of. (The
		// single global scanner below would race; in lockstep it is kept
		// precisely because its one-event scan order matches the classic
		// engine event for event.)
		for _, sh := range n.shards {
			sh := sh
			tk := sim.NewTicker(sh.eng, n.Cfg.BeaconInterval, 0, func() {
				n.scanLinks(sh.eng.Now(), sh.ingress)
			})
			n.tickers = append(n.tickers, tk)
		}
		return
	}
	tk := sim.NewTicker(n.Eng, n.Cfg.BeaconInterval, 0, func() {
		n.scanLinks(n.Eng.Now(), n.links)
	})
	n.tickers = append(n.tickers, tk)
}

// scanLinks is one dead-link scan pass (§4.2): after DeadLinkBeacons silent
// intervals an input link is removed from aggregation and reported once.
func (n *Network) scanLinks(now sim.Time, links []*linkState) {
	timeout := sim.Time(n.Cfg.DeadLinkBeacons) * n.Cfg.BeaconInterval
	for _, l := range links {
		// Host-terminating links are scanned too: §4.2's detection runs
		// in lib1pipe's polling thread as much as in switches, and a
		// host whose downlink went silent must be reported so the
		// controller can fail it (it will never deliver again). A
		// drained link is silent by design — graceful departure must
		// never masquerade as a failure, so it is skipped before the
		// timeout check rather than relying on alive alone (a straggler
		// cannot resurrect it either; receive checks drained too).
		if l.drained || !l.alive {
			continue
		}
		if now-l.lastRx > timeout {
			l.alive = false
			if !n.Cfg.ControllerManagedCommit {
				l.aliveC = false
			}
			// Removing the slowest input usually advances the min:
			// relay the unblocked barrier immediately (§4.2).
			n.scheduleRelays(n.nodes[l.to])
			if n.OnLinkDead != nil {
				n.OnLinkDead(n.G.Link(l.id), l.regC)
			}
		}
	}
}

// EnableObs arms a sampler that records, every interval, how far each
// switch's aggregated barriers trail the true simulation clock
// (SpanSwitchLagBE/C — the in-network contribution to delivery latency)
// and the current queueing backlog of every switch egress link
// (SpanSwitchQDepth). Host nodes are skipped: their barrier state lives in
// the core endpoint, not in the fabric. Returns the trace for merging into
// experiment reports.
//
// The sampler reads every switch's state from one ticker, so it is only
// valid on single-engine and lockstep networks; it panics on a parallel
// one rather than race on cross-shard reads.
func (n *Network) EnableObs(interval sim.Time) *obs.Trace {
	if n.sh != nil && n.Cfg.Parallel {
		panic("netsim: EnableObs is not supported on a parallel sharded network")
	}
	if n.Obs != nil {
		return n.Obs
	}
	if interval <= 0 {
		interval = n.Cfg.BeaconInterval
	}
	n.Obs = obs.NewTrace()
	tk := sim.NewTicker(n.Eng, interval, 0, func() {
		now := n.Eng.Now()
		for _, node := range n.nodes {
			if n.G.Node(node.id).Kind == topology.KindHost || n.G.NodeDead(node.id) || n.G.NodeDrained(node.id) {
				continue
			}
			n.Obs.Rec(obs.SpanSwitchLagBE, now-node.outBE)
			n.Obs.Rec(obs.SpanSwitchLagC, now-node.outC)
			for _, lid := range node.out {
				l := n.links[lid]
				depth := l.busy - now
				if depth < 0 {
					depth = 0
				}
				n.Obs.Rec(obs.SpanSwitchQDepth, depth)
			}
		}
	})
	n.tickers = append(n.tickers, tk)
	return n.Obs
}

// CommitGatedLinks lists input links that the best-effort scanner has
// removed but that still gate the commit plane, awaiting the controller's
// Resume step.
func (n *Network) CommitGatedLinks() []topology.LinkID {
	var out []topology.LinkID
	for _, l := range n.links {
		if !l.alive && l.aliveC {
			out = append(out, l.id)
		}
	}
	return out
}

// SetLossFault arms a fabric-wide loss fault: while rate is nonzero it
// overrides every link's uniform Impairment.Loss (links without a profile
// included), drawing from the shard RNG at the same point the profile's
// Loss does. SetLossFault(0) clears it and restores each link's profile.
// It is the runtime fault-injection hook for loss, as G.KillLink is for
// link failure; chaos loss bursts arm and clear it.
func (n *Network) SetLossFault(rate float64) { n.lossFault = rate }

// ResumeCommitPlane removes a dead input link from commit-plane aggregation.
// The controller calls this in its Resume step, after every correct process
// has finished Discard, Recall and its failure callbacks (§5.2).
func (n *Network) ResumeCommitPlane(id topology.LinkID) {
	l := n.links[id]
	l.aliveC = false
	n.scheduleRelays(n.nodes[l.to])
}

// ExcludeCommitPlane permanently removes a link from commit-plane
// aggregation: unlike ResumeCommitPlane, later packet arrivals do not
// re-admit it. The controller calls this for the remaining live links of a
// process it has declared failed — a failed host that can still transmit
// (only its receive path died) would otherwise keep a parked commit floor
// in the aggregation and cap the cluster-wide barrier (§5.2).
func (n *Network) ExcludeCommitPlane(id topology.LinkID) {
	l := n.links[id]
	l.excludedC = true
	l.aliveC = false
	n.scheduleRelays(n.nodes[l.to])
}

// DrainedRegister is the sentinel the registers of a drained link are
// raised to: any aggregation that accidentally included it could only
// advance the minimum, never regress it. MaxBarrier skips it.
const DrainedRegister = sim.Time(1) << 62

// Grow extends the simulator's state to cover nodes and links appended to
// the topology since construction (or the previous Grow). New links start
// drained — invisible to aggregation, beacons and the dead-link scanner —
// until AdmitLink seeds their registers and admits them (two-phase
// prepare/activate). New hosts get a clock and an empty receive hook.
// Adjacency views of existing nodes are refreshed, since topology growth
// may have reallocated the underlying slices. Returns the new link IDs.
func (n *Network) Grow() []topology.LinkID {
	g := n.G
	now := n.Eng.Now()
	n.shardMap.Grow(g)
	for i := len(n.nodes); i < len(g.Nodes); i++ {
		n.nodes = append(n.nodes, &nodeState{id: topology.NodeID(i)})
		n.nodeSh = append(n.nodeSh, n.shards[n.shardMap.Of(topology.NodeID(i))])
	}
	for hi := len(n.Clocks); hi < len(g.Hosts); hi++ {
		n.Clocks = append(n.Clocks, n.newHostClock(hi))
		n.hostRx = append(n.hostRx, nil)
	}
	var added []topology.LinkID
	for i := len(n.links); i < len(g.Links); i++ {
		ls := n.newLinkState(g.Links[i])
		ls.drained = true
		ls.lastRx = now
		n.links = append(n.links, ls)
		added = append(added, ls.id)
	}
	for i, node := range n.nodes {
		node.in, node.out = g.In[i], g.Out[i]
	}
	// Ticker arming needs the refreshed adjacency in place.
	if !n.Cfg.DisableBeacons {
		for _, lid := range added {
			ls := n.links[lid]
			if g.Node(ls.from).Kind != topology.KindHost {
				n.armSwitchBeaconTicker(ls)
			}
		}
	}
	return added
}

// AdmitLink seeds an input link's §4.1 registers and admits it to barrier
// aggregation — the activate step of a two-phase join. Callers derive the
// seed from the join epoch T_join; AdmitLink additionally clamps it to the
// downstream node's current aggregated output, so admitting a link can
// never hold the minimum below where it already advanced.
func (n *Network) AdmitLink(id topology.LinkID, seedBE, seedC sim.Time) {
	l := n.links[id]
	node := n.nodes[l.to]
	if node.outBE > seedBE {
		seedBE = node.outBE
	}
	if node.outC > seedC {
		seedC = node.outC
	}
	if seedBE > l.regBE {
		l.regBE = seedBE
	}
	if seedC > l.regC {
		l.regC = seedC
	}
	l.drained = false
	l.excludedC = false
	l.alive = true
	l.aliveC = true
	l.lastRx = n.Eng.Now()
	if n.G.Node(l.to).Kind != topology.KindHost {
		n.scheduleRelays(node)
	}
}

// DrainLink gracefully removes an input link from aggregation: registers
// are raised to DrainedRegister and the drained flag keeps both the
// dead-link scanner and straggler packet arrivals from ever treating the
// ensuing silence as a failure — no OnLinkDead report, no failure
// timestamp, no Recall.
func (n *Network) DrainLink(id topology.LinkID) {
	l := n.links[id]
	l.drained = true
	l.alive = false
	l.aliveC = false
	l.excludedC = true
	l.regBE, l.regC = DrainedRegister, DrainedRegister
	if n.G.Node(l.to).Kind != topology.KindHost {
		// Removing an input can only advance the min: relay it.
		n.scheduleRelays(n.nodes[l.to])
	}
}

// LinkDrained reports whether a link is currently drained (or grown but
// not yet admitted).
func (n *Network) LinkDrained(id topology.LinkID) bool { return n.links[id].drained }

// MaxBarrier returns the largest barrier value present anywhere in the
// fabric — input-link registers, in-flight egress stamps and aggregated
// switch outputs on both planes, drained links excluded. Join epochs are
// chosen above it plus a skew bound covering ahead-running host clocks.
func (n *Network) MaxBarrier() sim.Time {
	var max sim.Time
	for _, l := range n.links {
		if l.drained {
			continue
		}
		for _, t := range [4]sim.Time{l.regBE, l.regC, l.lastTxBE, l.lastTxC} {
			if t > max {
				max = t
			}
		}
	}
	for _, node := range n.nodes {
		if node.outBE > max {
			max = node.outBE
		}
		if node.outC > max {
			max = node.outC
		}
	}
	return max
}

// Sharded reports the shard group driving the network, or nil for the
// classic single engine.
func (n *Network) Sharded() *sim.ShardedEngine { return n.sh }

// ShardCount returns the number of shard engines (1 for the classic
// single-engine network; may be lower than Cfg asked for if the cut was
// degenerate).
func (n *Network) ShardCount() int { return len(n.shards) }

// Now returns the completed virtual time of the simulation.
func (n *Network) Now() sim.Time {
	if n.sh != nil {
		return n.sh.Now()
	}
	return n.Eng.Now()
}

// RunFor advances the simulation by d, through the shard group when the
// network is sharded. Callers must use this (or RunUntil) instead of
// driving Eng directly so sharded networks execute all shards.
func (n *Network) RunFor(d sim.Time) {
	if n.sh != nil {
		n.sh.RunFor(d)
		return
	}
	n.Eng.RunFor(d)
}

// RunUntil advances the simulation to the absolute time deadline.
func (n *Network) RunUntil(deadline sim.Time) {
	if n.sh != nil {
		n.sh.RunUntil(deadline)
		return
	}
	n.Eng.RunUntil(deadline)
}

// TotalStats merges the per-shard network statistics. On a single-engine
// network it is exactly the Stats field.
func (n *Network) TotalStats() Stats {
	if n.sh == nil {
		return n.Stats
	}
	t := n.Stats
	for _, sh := range n.shards {
		t.Add(sh.stats)
	}
	return t
}

// ExecutedEvents returns the total number of events executed so far,
// summed over shards.
func (n *Network) ExecutedEvents() uint64 {
	if n.sh != nil {
		return n.sh.ExecutedTotal()
	}
	return n.Eng.Executed
}

// Stop halts all periodic activity so the event queue can drain.
func (n *Network) Stop() {
	for _, tk := range n.tickers {
		tk.Stop()
	}
	n.tickers = nil
}

// Close releases the shard worker goroutines of a parallel network. The
// network cannot run afterwards. A no-op for single-engine and lockstep
// networks.
func (n *Network) Close() {
	if n.sh != nil {
		n.sh.Close()
	}
}

// String summarizes the network for logs.
func (n *Network) String() string {
	return fmt.Sprintf("netsim{hosts=%d procs=%d mode=%s beacon=%v}",
		len(n.G.Hosts), n.NumProcs(), n.Cfg.Mode, n.Cfg.BeaconInterval)
}
