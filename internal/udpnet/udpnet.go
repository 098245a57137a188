// Package udpnet deploys 1Pipe over real UDP sockets: every host is a UDP
// endpoint running the unmodified lib1pipe state machines
// (internal/core), and a software switch — another UDP socket — performs
// the §4.1 barrier aggregation and forwards packets between hosts, exactly
// like the host-delegate incarnation of §6.2.3. Packets travel in the
// 48-bit-timestamp wire format of internal/wire, so PAWS wraparound
// handling is exercised on a real network path.
//
// All sockets bind to the loopback interface and are launched by one
// Start call. Nothing in the protocol requires co-residence — hosts and
// switch share only the wire format and a clock epoch — so splitting the
// endpoints across OS processes (disciplined by the system clock) is a
// mechanical extension; the in-process launcher keeps the tests hermetic.
package udpnet

import (
	"fmt"
	"net"
	"net/http"
	"sync"
	"time"

	"onepipe/internal/core"
	"onepipe/internal/netsim"
	"onepipe/internal/obs"
	"onepipe/internal/sim"
	"onepipe/internal/wire"
)

// Config parameterizes the UDP fabric.
type Config struct {
	Hosts          int
	ProcsPerHost   int
	BeaconInterval time.Duration
	// Seed seeds the switch's impairment RNG so lossy runs are
	// reproducible; zero draws from the wall clock.
	Seed int64
	// Impair, when non-nil, degrades data-plane packets at the switch with
	// the composable model (uniform loss, burst loss, jitter, extra delay).
	// One switch serves the fabric, so one Impairment covers every path.
	// Loopback never loses, so this is how the reliability machinery is
	// exercised.
	Impair *netsim.Impairment
	// Endpoint overrides lib1pipe configuration.
	Endpoint *core.Config
	// RegisterTimeout bounds Start's wait for all hosts to register at the
	// switch; zero means 5s.
	RegisterTimeout time.Duration
	// Trace installs a lifecycle tracer (internal/obs) on every host.
	Trace bool
	// DebugAddr, if non-empty, serves /debug/vars, /debug/pprof and the
	// live /debug/onepipe span breakdown on this address (use "127.0.0.1:0"
	// for an ephemeral port).
	DebugAddr string
}

// DefaultConfig returns a loopback fabric with millisecond beacons.
func DefaultConfig(hosts, procsPerHost int) Config {
	return Config{Hosts: hosts, ProcsPerHost: procsPerHost, BeaconInterval: time.Millisecond}
}

// registerPayload marks a control datagram announcing a host's address.
var registerPayload = []byte("1PIPE-REGISTER")

// Cluster is a running UDP deployment.
type Cluster struct {
	Switch *Switch
	Hosts  []*HostNode
	cfg    Config
	epoch  time.Time
	debug  *http.Server
}

// Start binds the switch and every host on loopback and registers them.
func Start(cfg Config) (*Cluster, error) {
	if cfg.ProcsPerHost <= 0 {
		cfg.ProcsPerHost = 1
	}
	epoch := time.Now()
	sw, err := newSwitch(cfg, epoch)
	if err != nil {
		return nil, err
	}
	c := &Cluster{Switch: sw, cfg: cfg, epoch: epoch}
	for h := 0; h < cfg.Hosts; h++ {
		hn, err := newHostNode(h, cfg, sw.Addr(), epoch, 0)
		if err != nil {
			c.Close()
			return nil, err
		}
		c.Hosts = append(c.Hosts, hn)
		c.installStuckHook(hn)
	}
	// Wait for every host to be registered at the switch: the switch
	// signals regNotify on each new registration, so no polling.
	timeout := cfg.RegisterTimeout
	if timeout <= 0 {
		timeout = 5 * time.Second
	}
	deadline := time.NewTimer(timeout)
	defer deadline.Stop()
	for sw.registered() < cfg.Hosts {
		select {
		case <-sw.regNotify:
		case <-deadline.C:
			n := sw.registered()
			c.Close()
			return nil, fmt.Errorf("udpnet: only %d/%d hosts registered", n, cfg.Hosts)
		}
	}
	if cfg.DebugAddr != "" {
		srv, err := obs.ServeDebug(cfg.DebugAddr, c.traceMap)
		if err != nil {
			c.Close()
			return nil, err
		}
		c.debug = srv
	}
	return c, nil
}

// DebugAddr returns the bound address of the debug HTTP server, or "" when
// Config.DebugAddr was unset.
func (c *Cluster) DebugAddr() string {
	if c.debug == nil {
		return ""
	}
	return c.debug.Addr
}

// Traces returns the per-host lifecycle tracers (nil entries when
// Config.Trace was off); feed them to obs.Merge for the cluster view.
func (c *Cluster) Traces() []*obs.Trace {
	out := make([]*obs.Trace, len(c.Hosts))
	for i, h := range c.Hosts {
		out[i] = h.Trace()
	}
	return out
}

func (c *Cluster) traceMap() map[string]*obs.Trace {
	out := make(map[string]*obs.Trace)
	for i, h := range c.Hosts {
		if t := h.Trace(); t != nil {
			out[fmt.Sprintf("host%d", i)] = t
		}
	}
	return out
}

// installStuckHook wires the degenerate-controller escalation: a
// scattering stuck toward a drained (departed) host resolves as a
// send-failure at its sender instead of parking the commit floor.
func (c *Cluster) installStuckHook(hn *HostNode) {
	pph := c.cfg.ProcsPerHost
	hn.mu.Lock()
	hn.core.OnStuck = func(src, dst netsim.ProcID, ts sim.Time) {
		dh := int(dst) / pph
		// Hand off: OnStuck fires inside the endpoint with its lock held.
		time.AfterFunc(0, func() {
			if !c.Switch.Drained(dh) {
				return
			}
			hn.mu.Lock()
			if !hn.closed {
				hn.core.ResolveUnreachable(dst, ts)
			}
			hn.mu.Unlock()
		})
	}
	hn.mu.Unlock()
}

// Join attaches a new host to the running fabric and returns its index.
// The switch seeds the new uplink's registers at its current aggregate on
// registration, and the host's timestamp floor is forced to the shared
// clock first, so the join can never regress the barrier. Blocks until
// the switch has registered the host.
func (c *Cluster) Join() (int, error) {
	hi := len(c.Hosts)
	before := c.Switch.registered()
	hn, err := newHostNode(hi, c.cfg, c.Switch.Addr(), c.epoch, c.Now())
	if err != nil {
		return -1, err
	}
	timeout := c.cfg.RegisterTimeout
	if timeout <= 0 {
		timeout = 5 * time.Second
	}
	deadline := time.NewTimer(timeout)
	defer deadline.Stop()
	for c.Switch.registered() <= before {
		select {
		case <-c.Switch.regNotify:
		case <-deadline.C:
			hn.close()
			return -1, fmt.Errorf("udpnet: joining host %d never registered", hi)
		}
	}
	c.Hosts = append(c.Hosts, hn)
	c.installStuckHook(hn)
	return hi, nil
}

// Drain gracefully removes a host: sends are refused immediately, the
// send window flushes, then the switch detaches the uplink from
// aggregation and the endpoint closes. Blocks until complete. Peers'
// stuck sends toward the departed host resolve via send-failure.
func (c *Cluster) Drain(host int) error {
	if host < 0 || host >= len(c.Hosts) {
		return fmt.Errorf("udpnet: no such host %d", host)
	}
	if c.Switch.Drained(host) {
		return fmt.Errorf("udpnet: host %d already drained", host)
	}
	hn := c.Hosts[host]
	fin := make(chan struct{})
	hn.mu.Lock()
	if hn.closed {
		hn.mu.Unlock()
		return fmt.Errorf("udpnet: host %d closed: %w", host, core.ErrClosed)
	}
	hn.core.Drain(func() { close(fin) })
	hn.mu.Unlock()
	<-fin
	c.Switch.SetDrained(host)
	hn.close()
	return nil
}

// Proc returns a process handle.
func (c *Cluster) Proc(p int) *ProcHandle {
	pph := c.Hosts[0].cfg.ProcsPerHost
	return &ProcHandle{host: c.Hosts[p/pph], id: netsim.ProcID(p)}
}

// NumProcs returns the total process count.
func (c *Cluster) NumProcs() int { return len(c.Hosts) * c.Hosts[0].cfg.ProcsPerHost }

// Now returns the fabric clock: nanoseconds since the shared epoch.
func (c *Cluster) Now() sim.Time { return sim.Time(time.Since(c.epoch)) }

// Close shuts the fabric down.
func (c *Cluster) Close() {
	if c.debug != nil {
		c.debug.Close()
		c.debug = nil
	}
	for _, h := range c.Hosts {
		h.close()
	}
	if c.Switch != nil {
		c.Switch.close()
	}
}

// ProcHandle exposes one process's API with the host's lock held.
type ProcHandle struct {
	host *HostNode
	id   netsim.ProcID
}

// OnDeliver installs the delivery callback (invoked with the host lock
// held; keep it short or hand off).
func (p *ProcHandle) OnDeliver(fn func(core.Delivery)) {
	p.host.mu.Lock()
	defer p.host.mu.Unlock()
	p.host.procs[p.id].OnDeliver = fn
}

// OnDeliverBatch installs the batched delivery callback (takes precedence
// over OnDeliver; the slice is reused after the callback returns).
func (p *ProcHandle) OnDeliverBatch(fn func([]core.Delivery)) {
	p.host.mu.Lock()
	defer p.host.mu.Unlock()
	p.host.procs[p.id].OnDeliverBatch = fn
}

// OnSendFail installs the send-failure callback.
func (p *ProcHandle) OnSendFail(fn func(core.SendFailure)) {
	p.host.mu.Lock()
	defer p.host.mu.Unlock()
	p.host.procs[p.id].OnSendFail = fn
}

// OnProcFail installs the process-failure callback.
func (p *ProcHandle) OnProcFail(fn func(netsim.ProcID, sim.Time)) {
	p.host.mu.Lock()
	defer p.host.mu.Unlock()
	p.host.procs[p.id].OnProcFail = fn
}

// Send issues a best-effort scattering; message Data must be []byte (it
// crosses a real socket).
func (p *ProcHandle) Send(msgs []core.Message) error {
	return p.host.send(p.id, msgs, core.SendOptions{})
}

// SendReliable issues a reliable scattering.
func (p *ProcHandle) SendReliable(msgs []core.Message) error {
	return p.host.send(p.id, msgs, core.SendOptions{Reliable: true})
}

// SendOpts issues a scattering with explicit options.
func (p *ProcHandle) SendOpts(msgs []core.Message, o core.SendOptions) error {
	return p.host.send(p.id, msgs, o)
}

// HostNode is one UDP host endpoint.
type HostNode struct {
	cfg    Config
	id     int
	conn   *net.UDPConn
	swAddr *net.UDPAddr
	epoch  time.Time

	mu     sync.Mutex
	core   *core.Host
	procs  map[netsim.ProcID]*core.Proc
	closed bool
	wg     sync.WaitGroup
}

// udpWire adapts the socket to core.Wire. Now() is nanoseconds since the
// shared epoch.
type udpWire struct{ h *HostNode }

func (w udpWire) Now() sim.Time { return sim.Time(time.Since(w.h.epoch)) }

// Timer backs a host timer with time.AfterFunc; each firing runs under
// the host lock and is dropped once the host is closed.
func (w udpWire) Timer(fn func()) *sim.Timer {
	h := w.h
	return sim.NewWallTimer(func(d sim.Time, fire func()) {
		time.AfterFunc(time.Duration(d), func() {
			h.mu.Lock()
			defer h.mu.Unlock()
			if !h.closed {
				fire()
			}
		})
	}, fn)
}

// sendBufPool recycles encode buffers across Send calls; each is large
// enough for a max-size datagram so AppendEncode never grows it.
var sendBufPool = sync.Pool{
	New: func() any {
		b := make([]byte, 0, 64*1024)
		return &b
	},
}

func (w udpWire) Send(pkt *netsim.Packet) {
	var payload []byte
	if b, ok := pkt.Payload.([]byte); ok && pkt.EndOfMsg {
		payload = b
	}
	bp := sendBufPool.Get().(*[]byte)
	buf := wire.AppendEncode((*bp)[:0], pkt, payload)
	// Fire-and-forget datagram to the switch; UDP send errors surface as
	// loss, which the protocol already tolerates.
	w.h.conn.WriteToUDP(buf, w.h.swAddr)
	*bp = buf[:0]
	sendBufPool.Put(bp)
	netsim.PutPacket(pkt) // the wire owns the packet once sent
}

// newHostNode binds one host endpoint; a nonzero floor forces its
// timestamping state above it before the first emission (live join).
func newHostNode(id int, cfg Config, swAddr *net.UDPAddr, epoch time.Time, floor sim.Time) (*HostNode, error) {
	conn, err := net.ListenUDP("udp4", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		return nil, err
	}
	h := &HostNode{cfg: cfg, id: id, conn: conn, swAddr: swAddr, epoch: epoch,
		procs: make(map[netsim.ProcID]*core.Proc)}
	ecfg := core.DefaultConfig()
	if cfg.Endpoint != nil {
		ecfg = *cfg.Endpoint
	}
	ecfg.BeaconInterval = sim.Time(cfg.BeaconInterval)
	ecfg.UseDataBarriers = true
	ecfg.RTO = sim.Time(20 * cfg.BeaconInterval)
	ecfg.SendFailTimeout = sim.Time(100 * cfg.BeaconInterval)
	h.mu.Lock()
	h.core = core.NewHost(id, udpWire{h: h}, ecfg)
	if floor > 0 {
		h.core.SetFloor(floor)
	}
	if cfg.Trace {
		h.core.Obs = obs.NewTrace()
	}
	for p := 0; p < cfg.ProcsPerHost; p++ {
		pid := netsim.ProcID(id*cfg.ProcsPerHost + p)
		h.procs[pid] = h.core.AddProc(pid)
	}
	h.core.Start()
	h.mu.Unlock()
	// Announce ourselves to the switch.
	hello := wire.Encode(&netsim.Packet{Kind: netsim.KindCtrl,
		Src: netsim.ProcID(id * cfg.ProcsPerHost)}, registerPayload)
	conn.WriteToUDP(hello, swAddr)
	h.wg.Add(1)
	go h.readLoop()
	return h, nil
}

func (h *HostNode) readLoop() {
	defer h.wg.Done()
	buf := make([]byte, 64*1024)
	for {
		n, _, err := h.conn.ReadFromUDP(buf)
		if err != nil {
			return // socket closed
		}
		pkt := netsim.GetPacket()
		payload, derr := wire.DecodeInto(pkt, buf[:n], sim.Time(time.Since(h.epoch)))
		if derr != nil {
			netsim.PutPacket(pkt)
			continue
		}
		if len(payload) > 0 {
			// The payload aliases the read buffer; copy before the next read.
			cp := append([]byte(nil), payload...)
			if pkt.Frame {
				f, ferr := wire.ParseFramePayload(cp, sim.Time(time.Since(h.epoch)))
				if ferr != nil {
					netsim.PutPacket(pkt)
					continue
				}
				pkt.Payload = f // entry Data aliases cp, which outlives the frame
			} else {
				pkt.Payload = cp
			}
		}
		h.mu.Lock()
		if !h.closed {
			h.core.HandlePacket(pkt) // consumes pkt
		} else {
			netsim.PutPacket(pkt)
		}
		h.mu.Unlock()
	}
}

// Trace returns the host's lifecycle tracer (nil unless Config.Trace).
func (h *HostNode) Trace() *obs.Trace {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.core.Obs
}

func (h *HostNode) send(src netsim.ProcID, msgs []core.Message, o core.SendOptions) error {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.closed {
		return fmt.Errorf("udpnet: host %d closed: %w", h.id, core.ErrClosed)
	}
	p := h.procs[src]
	if p == nil {
		return fmt.Errorf("udpnet: proc %d not on host %d", src, h.id)
	}
	return p.SendOpts(msgs, o)
}

func (h *HostNode) close() {
	h.mu.Lock()
	if !h.closed {
		h.closed = true
		h.core.Stop()
	}
	h.mu.Unlock()
	h.conn.Close()
	h.wg.Wait()
}
