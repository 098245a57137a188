// Package livenet runs the same lib1pipe state machines as the simulator,
// but in real time: hosts hang off a software switch that performs barrier
// aggregation (§4.1) over in-process links, and all protocol state is
// driven by one event-loop goroutine fed by channels and wall-clock
// timers. It exists to demonstrate that internal/core is genuinely
// substrate-independent — the examples and cmd/onepipe-demo run on it with
// real elapsed microseconds.
//
// The fabric is a single-switch star: every host connects to one software
// switch that keeps a barrier register per host link and relays the
// aggregated minimum, which is exactly the one-rack slice of the Clos
// model (deeper hierarchies compose the same aggregation step).
package livenet

import (
	"fmt"
	"net/http"
	"sync"
	"time"

	"onepipe/internal/core"
	"onepipe/internal/netsim"
	"onepipe/internal/obs"
	"onepipe/internal/sim"
)

// Config parameterizes the live fabric.
type Config struct {
	Hosts        int
	ProcsPerHost int
	// LinkDelay is the emulated one-way host-switch latency.
	LinkDelay time.Duration
	// BeaconInterval is T_beacon in wall-clock time.
	BeaconInterval time.Duration
	// Seed seeds the impairment RNG; zero draws from the wall clock.
	Seed int64
	// Impair, when non-nil, degrades data-plane packets at the switch with
	// the full composable model (uniform loss, burst loss, jitter, extra
	// delay) — the live-fabric counterpart of netsim.Config.Impair. The
	// fabric has one switch, so one Impairment covers every path. The
	// in-process links never lose on their own, so this is how the
	// retransmission machinery is exercised, as in udpnet.
	Impair *netsim.Impairment
	// Endpoint overrides the lib1pipe configuration.
	Endpoint *core.Config
	// Trace installs a lifecycle tracer (internal/obs) on every host.
	Trace bool
	// DebugAddr, if non-empty, serves /debug/vars, /debug/pprof and the
	// live /debug/onepipe span breakdown on this address.
	DebugAddr string
}

// DefaultConfig returns a small fabric with millisecond-scale timing
// (coarse enough for wall-clock timers to be meaningful).
func DefaultConfig(hosts, procsPerHost int) Config {
	return Config{
		Hosts:          hosts,
		ProcsPerHost:   procsPerHost,
		LinkDelay:      200 * time.Microsecond,
		BeaconInterval: 1 * time.Millisecond,
	}
}

// Net is a running live fabric.
type Net struct {
	cfg   Config
	ecfg  core.Config // resolved endpoint config, reused by runtime joins
	loop  chan func()
	done  chan struct{}
	wg    sync.WaitGroup
	start time.Time

	hosts []*core.Host
	procs []*core.Proc
	// drained marks hosts that have gracefully left: their uplink register
	// is excluded from aggregation and the switch drops traffic toward
	// them. Touched only on the loop.
	drained []bool

	// Switch state: per-host-uplink barrier registers.
	regBE, regC []sim.Time
	outBE, outC sim.Time
	// imp applies Config.Impair (own RNG per the impairment determinism
	// contract; touched only on the loop).
	imp *netsim.ImpairState
	// lastFwd records, per downlink, when the switch last forwarded a data
	// packet: forwarded packets are restamped with the aggregated barrier,
	// so a recently-active downlink needs no standalone beacon (§4.2
	// piggybacking). Touched only on the loop.
	lastFwd []time.Time

	traces []*obs.Trace
	debug  *http.Server

	stopOnce sync.Once
}

// hostWire adapts one host to the loop: Now is wall-clock nanoseconds
// since fabric start (all hosts share one clock — perfectly synchronized,
// the degenerate case of the clock model).
type hostWire struct {
	n    *Net
	host int
}

func (w hostWire) Now() sim.Time { return sim.Time(time.Since(w.n.start)) }

// Timer backs a host timer with time.AfterFunc, posting each firing to
// the loop.
func (w hostWire) Timer(fn func()) *sim.Timer {
	n := w.n
	return sim.NewWallTimer(func(d sim.Time, fire func()) {
		time.AfterFunc(time.Duration(d), func() { n.post(fire) })
	}, fn)
}

func (w hostWire) Send(pkt *netsim.Packet) {
	// Host -> switch link with propagation delay.
	n := w.n
	host := w.host
	time.AfterFunc(n.cfg.LinkDelay, func() {
		n.post(func() { n.switchReceive(host, pkt) })
	})
}

// New starts the fabric: the loop goroutine, per-host lib1pipe runtimes,
// and the switch beacon ticker.
func New(cfg Config) *Net {
	if cfg.ProcsPerHost <= 0 {
		cfg.ProcsPerHost = 1
	}
	seed := cfg.Seed
	if seed == 0 {
		seed = time.Now().UnixNano()
	}
	n := &Net{
		cfg:   cfg,
		loop:  make(chan func(), 4096),
		done:  make(chan struct{}),
		start: time.Now(),
	}
	if cfg.Impair != nil && *cfg.Impair != (netsim.Impairment{}) {
		imp := *cfg.Impair
		n.imp = netsim.NewImpairState(&imp, seed, 0)
	}
	n.wg.Add(1)
	go n.run()

	ecfg := core.DefaultConfig()
	if cfg.Endpoint != nil {
		ecfg = *cfg.Endpoint
	}
	ecfg.BeaconInterval = sim.Time(cfg.BeaconInterval)
	ecfg.UseDataBarriers = true
	// Wall-clock timers are coarse: scale protocol timeouts with the link
	// delay.
	ecfg.RTO = 20 * sim.Time(cfg.LinkDelay)
	ecfg.SendFailTimeout = 100 * sim.Time(cfg.LinkDelay)

	n.ecfg = ecfg

	ready := make(chan struct{})
	n.post(func() {
		for h := 0; h < cfg.Hosts; h++ {
			n.addHost()
		}
		close(ready)
	})
	<-ready

	if cfg.DebugAddr != "" {
		if srv, err := obs.ServeDebug(cfg.DebugAddr, n.traceMap); err == nil {
			n.debug = srv
		}
	}

	// Switch beacon ticker: relay the aggregated barrier to every host.
	n.wg.Add(1)
	go func() {
		defer n.wg.Done()
		tick := time.NewTicker(cfg.BeaconInterval)
		defer tick.Stop()
		for {
			select {
			case <-tick.C:
				n.post(n.relayBeacons)
			case <-n.done:
				return
			}
		}
	}()
	return n
}

// run is the single goroutine that owns all protocol state.
func (n *Net) run() {
	defer n.wg.Done()
	for {
		select {
		case fn := <-n.loop:
			fn()
		case <-n.done:
			// Drain what is already queued, then exit.
			for {
				select {
				case fn := <-n.loop:
					fn()
				default:
					return
				}
			}
		}
	}
}

func (n *Net) post(fn func()) {
	select {
	case n.loop <- fn:
	case <-n.done:
	}
}

// addHost creates host len(n.hosts) on the loop: lib1pipe runtime, stuck
// hook, procs, and a fresh uplink register pair seeded at the current
// aggregate (everything a live host emits from now on carries at least
// that barrier, so admitting the link can never regress the minimum).
func (n *Net) addHost() *core.Host {
	hi := len(n.hosts)
	be, c := n.aggregate()
	eff := be
	if c > eff {
		eff = c
	}
	n.regBE = append(n.regBE, eff)
	n.regC = append(n.regC, eff)
	n.lastFwd = append(n.lastFwd, time.Time{})
	n.drained = append(n.drained, false)
	host := core.NewHost(hi, hostWire{n: n, host: hi}, n.ecfg)
	if n.cfg.Trace {
		host.Obs = obs.NewTrace()
		n.traces = append(n.traces, host.Obs)
	}
	// All hosts share the wall clock, so the floor force is trivially
	// satisfied; setting it keeps the register promise independent of
	// that reasoning. The stuck hook is the degenerate controller: a
	// scattering stuck toward a drained host resolves as send-failure.
	host.SetFloor(n.Now())
	host.OnStuck = func(src, dst netsim.ProcID, ts sim.Time) {
		n.post(func() {
			dh := int(dst) / n.cfg.ProcsPerHost
			if dh >= 0 && dh < len(n.drained) && n.drained[dh] {
				host.ResolveUnreachable(dst, ts)
			}
		})
	}
	n.hosts = append(n.hosts, host)
	host.Start()
	for p := 0; p < n.cfg.ProcsPerHost; p++ {
		id := netsim.ProcID(hi*n.cfg.ProcsPerHost + p)
		n.procs = append(n.procs, host.AddProc(id))
	}
	return host
}

// Join attaches a new host to the running fabric and returns its index.
// Its procs occupy the next ProcsPerHost process IDs.
func (n *Net) Join() int {
	var hi int
	n.Do(func() { hi = len(n.hosts); n.addHost() })
	return hi
}

// Drain gracefully removes a host: sends are refused immediately, the
// send window flushes, then the host leaves aggregation and stops.
// Blocks until the drain completes. Peers' stuck sends toward the
// departed host resolve via send-failure.
func (n *Net) Drain(host int) error {
	errc := make(chan error, 1)
	fin := make(chan struct{})
	n.post(func() {
		if host < 0 || host >= len(n.hosts) {
			errc <- fmt.Errorf("livenet: no such host %d", host)
			close(fin)
			return
		}
		if n.drained[host] {
			errc <- fmt.Errorf("livenet: host %d already drained", host)
			close(fin)
			return
		}
		h := n.hosts[host]
		errc <- nil
		h.Drain(func() {
			n.drained[host] = true
			h.Stop()
			close(fin)
		})
	})
	if err := <-errc; err != nil {
		return err
	}
	select {
	case <-fin:
	case <-n.done:
	}
	return nil
}

// Drained reports whether a host has gracefully left.
func (n *Net) Drained(host int) bool {
	var d bool
	n.Do(func() { d = host >= 0 && host < len(n.drained) && n.drained[host] })
	return d
}

// switchReceive executes eq. 4.1 for a packet arriving on a host uplink
// and forwards it toward its destination host.
func (n *Net) switchReceive(fromHost int, pkt *netsim.Packet) {
	if n.drained[fromHost] {
		netsim.PutPacket(pkt) // straggler from a departed host
		return
	}
	if pkt.BarrierBE > n.regBE[fromHost] {
		n.regBE[fromHost] = pkt.BarrierBE
	}
	if pkt.BarrierC > n.regC[fromHost] {
		n.regC[fromHost] = pkt.BarrierC
	}
	switch pkt.Kind {
	case netsim.KindBeacon, netsim.KindCommit:
		netsim.PutPacket(pkt)
		return // consumed: registers updated
	}
	delay := n.cfg.LinkDelay
	if n.imp != nil {
		now := sim.Time(time.Since(n.start))
		if n.imp.Drop(now) {
			netsim.PutPacket(pkt)
			return // impairment loss: registers updated, packet gone
		}
		delay += time.Duration(n.imp.Delay(now))
	}
	be, c := n.aggregate()
	pkt.BarrierBE, pkt.BarrierC = be, c
	dstHost := int(pkt.Dst) / n.cfg.ProcsPerHost
	if dstHost < 0 || dstHost >= len(n.hosts) || n.drained[dstHost] {
		netsim.PutPacket(pkt)
		return
	}
	n.lastFwd[dstHost] = time.Now()
	time.AfterFunc(delay, func() {
		n.post(func() { n.hosts[dstHost].HandlePacket(pkt) })
	})
}

func (n *Net) aggregate() (be, c sim.Time) {
	first := true
	var minBE, minC sim.Time
	for i := 0; i < len(n.regBE); i++ {
		if n.drained[i] {
			continue // departed for good: its parked register must not cap the minimum
		}
		if first {
			minBE, minC = n.regBE[i], n.regC[i]
			first = false
			continue
		}
		if n.regBE[i] < minBE {
			minBE = n.regBE[i]
		}
		if n.regC[i] < minC {
			minC = n.regC[i]
		}
	}
	if !first {
		if minBE > n.outBE {
			n.outBE = minBE
		}
		if minC > n.outC {
			n.outC = minC
		}
	}
	return n.outBE, n.outC
}

// relayBeacons pushes the aggregated barrier to every host downlink whose
// recent traffic has not already carried it (beacon piggybacking, §4.2).
func (n *Net) relayBeacons() {
	be, c := n.aggregate()
	for h := range n.hosts {
		h := h
		if n.drained[h] {
			continue
		}
		if !n.hosts[h].Cfg.DisablePiggyback &&
			time.Since(n.lastFwd[h]) < n.cfg.BeaconInterval {
			continue
		}
		pkt := netsim.GetPacket()
		pkt.Kind, pkt.BarrierBE, pkt.BarrierC, pkt.Size = netsim.KindBeacon, be, c, netsim.BeaconBytes
		time.AfterFunc(n.cfg.LinkDelay, func() {
			n.post(func() { n.hosts[h].HandlePacket(pkt) })
		})
	}
}

// NumProcs returns the process count.
func (n *Net) NumProcs() int { return len(n.procs) }

// Now returns the fabric clock: wall-clock nanoseconds since start.
func (n *Net) Now() sim.Time { return sim.Time(time.Since(n.start)) }

// Traces returns the per-host lifecycle tracers (empty unless Config.Trace);
// feed them to obs.Merge for the fabric-wide breakdown.
func (n *Net) Traces() []*obs.Trace { return n.traces }

// DebugAddr returns the bound debug-server address, or "" when disabled.
func (n *Net) DebugAddr() string {
	if n.debug == nil {
		return ""
	}
	return n.debug.Addr
}

func (n *Net) traceMap() map[string]*obs.Trace {
	out := make(map[string]*obs.Trace)
	for i, t := range n.traces {
		out[fmt.Sprintf("host%d", i)] = t
	}
	return out
}

// Do runs fn on the fabric's event loop and waits for it — the only safe
// way to touch endpoint state from outside.
func (n *Net) Do(fn func()) {
	done := make(chan struct{})
	n.post(func() {
		fn()
		close(done)
	})
	select {
	case <-done:
	case <-n.done:
	}
}

// Proc returns process p's endpoint. Interact with it via Do, or from
// delivery callbacks (which already run on the loop).
func (n *Net) Proc(p int) *core.Proc { return n.procs[p] }

// Send issues a scattering from process p on the loop.
func (n *Net) Send(p int, reliable bool, msgs []core.Message) error {
	return n.SendOpts(p, msgs, core.SendOptions{Reliable: reliable})
}

// SendOpts issues a scattering with explicit options on the loop. Sends
// racing Stop return an error wrapping core.ErrClosed; a send that loses
// the race after its closure was already queued may conservatively report
// ErrClosed even though the (stopped) endpoint saw it.
func (n *Net) SendOpts(p int, msgs []core.Message, o core.SendOptions) error {
	res := make(chan error, 1)
	n.post(func() { res <- n.procs[p].SendOpts(msgs, o) })
	select {
	case err := <-res:
		return err
	case <-n.done:
		select {
		case err := <-res:
			return err
		default:
			return fmt.Errorf("livenet: fabric stopped: %w", core.ErrClosed)
		}
	}
}

// Stop shuts the fabric down.
func (n *Net) Stop() {
	n.stopOnce.Do(func() {
		if n.debug != nil {
			n.debug.Close()
		}
		n.Do(func() {
			for _, h := range n.hosts {
				h.Stop()
			}
		})
		close(n.done)
	})
	n.wg.Wait()
}
