package udpnet

import (
	"bytes"
	"net"
	"sync"
	"time"

	"onepipe/internal/netsim"
	"onepipe/internal/sim"
	"onepipe/internal/wire"
)

// Switch is the software switch of the UDP fabric: one UDP socket that
// keeps a barrier register pair per registered host uplink, stamps
// forwarded packets with the aggregated minimum (eq. 4.1), relays beacons,
// and optionally injects loss.
type Switch struct {
	cfg   Config
	conn  *net.UDPConn
	epoch time.Time

	mu        sync.Mutex
	addrs     map[int]*net.UDPAddr // host id -> address
	blackhole map[int]bool         // host id -> data-plane partitioned
	// drained marks hosts that gracefully left: excluded from aggregation
	// and beacon relays, data toward them dropped, and their registration
	// never resurrected. Distinct from blackhole (a fault) — a drain is a
	// decision, so the parked register must not freeze the barrier.
	drained map[int]bool
	regBE   map[int]sim.Time
	regC    map[int]sim.Time
	// lastFwd records when each downlink last carried a forwarded data
	// packet; recently-active downlinks skip standalone beacons because the
	// forwarded packets already carry the restamped aggregate (§4.2).
	lastFwd map[int]time.Time
	outBE   sim.Time
	outC    sim.Time
	// imp applies Config.Impair from its own seeded RNG.
	imp     *netsim.ImpairState
	closed  bool
	stopped chan struct{}
	wg      sync.WaitGroup
	encBuf  []byte // reusable forward-path encode buffer; guarded by mu
	// regNotify is signalled (non-blocking, capacity 1) whenever a NEW host
	// registers, so Start can wait on registration instead of polling.
	regNotify chan struct{}

	// Forwarded / Dropped count data-plane packets; BeaconsSuppressed
	// counts downlink beacons skipped by piggybacking (statistics).
	Forwarded, Dropped, BeaconsSuppressed uint64
}

func newSwitch(cfg Config, epoch time.Time) (*Switch, error) {
	conn, err := net.ListenUDP("udp4", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		return nil, err
	}
	seed := cfg.Seed
	if seed == 0 {
		seed = time.Now().UnixNano()
	}
	s := &Switch{
		cfg: cfg, conn: conn, epoch: epoch,
		addrs:     make(map[int]*net.UDPAddr),
		blackhole: make(map[int]bool),
		drained:   make(map[int]bool),
		regBE:     make(map[int]sim.Time),
		regC:      make(map[int]sim.Time),
		lastFwd:   make(map[int]time.Time),
		stopped:   make(chan struct{}),
		regNotify: make(chan struct{}, 1),
	}
	if cfg.Impair != nil && *cfg.Impair != (netsim.Impairment{}) {
		imp := *cfg.Impair
		s.imp = netsim.NewImpairState(&imp, seed, 0)
	}
	s.wg.Add(2)
	go s.readLoop()
	go s.beaconLoop()
	return s, nil
}

// Addr returns the switch's UDP address.
func (s *Switch) Addr() *net.UDPAddr { return s.conn.LocalAddr().(*net.UDPAddr) }

// SetBlackhole installs or clears a grey failure on one host: the switch
// keeps consuming its beacons (control plane intact, so the global barrier
// keeps advancing) but drops every data-plane packet to or from it. This is
// the partition shape the UDP fabric can survive without a controller —
// a full cut would freeze the barrier aggregation at the parked register,
// which is exactly the §5.2 failure-handling territory the simulator's
// chaos harness covers.
func (s *Switch) SetBlackhole(host int, blocked bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.blackhole[host] = blocked
}

// SetDrained removes a gracefully departed host from aggregation and
// beacon relays for good.
func (s *Switch) SetDrained(host int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.drained[host] = true
}

// Drained reports whether a host has gracefully left.
func (s *Switch) Drained(host int) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.drained[host]
}

func (s *Switch) registered() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.addrs)
}

func (s *Switch) readLoop() {
	defer s.wg.Done()
	buf := make([]byte, 64*1024)
	// One packet struct serves every datagram: handle() forwards or drops
	// synchronously and never retains it.
	var pkt netsim.Packet
	for {
		n, from, err := s.conn.ReadFromUDP(buf)
		if err != nil {
			return
		}
		payload, derr := wire.DecodeInto(&pkt, buf[:n], sim.Time(time.Since(s.epoch)))
		if derr != nil {
			continue
		}
		s.handle(&pkt, payload, buf[:n], from)
	}
}

func (s *Switch) handle(pkt *netsim.Packet, payload, raw []byte, from *net.UDPAddr) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return
	}
	srcHost := int(pkt.Src) / s.cfg.ProcsPerHost

	// Registration heartbeat.
	if pkt.Kind == netsim.KindCtrl && bytes.Equal(payload, registerPayload) {
		if s.drained[srcHost] {
			return // departed hosts do not rejoin under the same id
		}
		_, known := s.addrs[srcHost]
		if !known {
			// Live join: seed the new uplink's registers at the current
			// aggregate before it joins the minimum. The host's clock
			// shares the fabric epoch, so everything it emits from now on
			// carries at least this barrier — admitting the link can
			// never regress the aggregate, only (briefly) hold it.
			be, c := s.aggregateLocked()
			if be > s.regBE[srcHost] {
				s.regBE[srcHost] = be
			}
			if c > s.regC[srcHost] {
				s.regC[srcHost] = c
			}
		}
		s.addrs[srcHost] = from
		if !known {
			select {
			case s.regNotify <- struct{}{}:
			default:
			}
		}
		return
	}

	if s.drained[srcHost] {
		return // straggler from a departed host: no register resurrection
	}
	// Update this uplink's registers (§4.1).
	if pkt.BarrierBE > s.regBE[srcHost] {
		s.regBE[srcHost] = pkt.BarrierBE
	}
	if pkt.BarrierC > s.regC[srcHost] {
		s.regC[srcHost] = pkt.BarrierC
	}
	switch pkt.Kind {
	case netsim.KindBeacon, netsim.KindCommit:
		return // consumed
	}

	dstHost := int(pkt.Dst) / s.cfg.ProcsPerHost
	if s.blackhole[srcHost] || s.blackhole[dstHost] || s.drained[dstHost] {
		s.Dropped++
		return
	}
	var extra time.Duration
	if s.imp != nil {
		now := sim.Time(time.Since(s.epoch))
		if s.imp.Drop(now) {
			s.Dropped++
			return
		}
		extra = time.Duration(s.imp.Delay(now))
	}
	be, c := s.aggregateLocked()
	dst := s.addrs[dstHost]
	if dst == nil {
		s.Dropped++
		return
	}
	// Restamp the barrier fields in the raw datagram (the chip path:
	// rewrite two header fields, forward the rest untouched). The encode
	// buffer is owned by the switch and reused under the lock.
	pkt.BarrierBE, pkt.BarrierC = be, c
	s.encBuf = wire.AppendEncode(s.encBuf[:0], pkt, payload)
	s.Forwarded++
	s.lastFwd[dstHost] = time.Now()
	if extra > 0 {
		// The encode buffer is reused on the next handle(); a delayed send
		// needs its own copy of the datagram.
		held := append([]byte(nil), s.encBuf...)
		time.AfterFunc(extra, func() { s.conn.WriteToUDP(held, dst) })
		return
	}
	s.conn.WriteToUDP(s.encBuf, dst)
}

func (s *Switch) aggregateLocked() (sim.Time, sim.Time) {
	first := true
	var minBE, minC sim.Time
	for h := range s.addrs {
		if s.drained[h] {
			continue
		}
		be, c := s.regBE[h], s.regC[h]
		if first {
			minBE, minC = be, c
			first = false
		} else {
			if be < minBE {
				minBE = be
			}
			if c < minC {
				minC = c
			}
		}
	}
	if !first {
		if minBE > s.outBE {
			s.outBE = minBE
		}
		if minC > s.outC {
			s.outC = minC
		}
	}
	return s.outBE, s.outC
}

func (s *Switch) beaconLoop() {
	defer s.wg.Done()
	tick := time.NewTicker(s.cfg.BeaconInterval)
	defer tick.Stop()
	for {
		select {
		case <-tick.C:
			s.mu.Lock()
			if s.closed {
				s.mu.Unlock()
				return
			}
			be, c := s.aggregateLocked()
			piggyback := s.cfg.Endpoint == nil || !s.cfg.Endpoint.DisablePiggyback
			b := wire.Encode(&netsim.Packet{Kind: netsim.KindBeacon, BarrierBE: be, BarrierC: c}, nil)
			now := time.Now()
			for h, addr := range s.addrs {
				if s.drained[h] {
					continue
				}
				if piggyback && now.Sub(s.lastFwd[h]) < s.cfg.BeaconInterval {
					s.BeaconsSuppressed++
					continue
				}
				s.conn.WriteToUDP(b, addr)
			}
			s.mu.Unlock()
		case <-s.stopped:
			return
		}
	}
}

func (s *Switch) close() {
	s.mu.Lock()
	if !s.closed {
		s.closed = true
		close(s.stopped)
	}
	s.mu.Unlock()
	s.conn.Close()
	s.wg.Wait()
}
