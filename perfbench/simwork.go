package main

import (
	"bytes"
	"fmt"
	"math/rand"
	"strconv"
	"time"

	"onepipe"
	"onepipe/internal/core"
	"onepipe/internal/netsim"
	"onepipe/internal/serve"
	"onepipe/internal/sim"
	"onepipe/internal/stats"
	"onepipe/internal/topology"
	"onepipe/internal/workload"
)

// simCounters is a snapshot of the public counters of the simulated
// layers; deltas between two snapshots give a window's per-layer work.
type simCounters struct {
	events    uint64
	net       netsim.Stats
	deadLinks int
	core      core.HostStats // summed over hosts
	hotMax    int64          // peak hot reorder-heap entries, any host
	bufMax    int64          // peak reorder-buffer bytes, any host
}

// simProbe reads a simulated fabric's counters. It also counts the links
// the dead-link scanner removes from barrier aggregation (§4.2), which
// the fabric reports only through its OnLinkDead hook.
type simProbe struct {
	net       *netsim.Network
	cc        *core.Cluster // nil on raw netsim
	deadLinks int
}

func newSimProbe(net *netsim.Network, cc *core.Cluster) *simProbe {
	p := &simProbe{net: net, cc: cc}
	prev := net.OnLinkDead
	net.OnLinkDead = func(l topology.Link, c sim.Time) {
		p.deadLinks++
		if prev != nil {
			prev(l, c)
		}
	}
	return p
}

func (p *simProbe) read() simCounters {
	s := simCounters{events: p.net.ExecutedEvents(), net: p.net.TotalStats(), deadLinks: p.deadLinks}
	if p.cc == nil {
		return s
	}
	for _, h := range p.cc.Hosts {
		st := &h.Stats
		c := &s.core
		c.MsgsSent += st.MsgsSent
		c.MsgsDelivered += st.MsgsDelivered
		c.PktsSent += st.PktsSent
		c.PktsRetx += st.PktsRetx
		c.Naks += st.Naks
		c.Beacons += st.Beacons
		c.BeaconsSuppressed += st.BeaconsSuppressed
		c.FramesSent += st.FramesSent
		c.FrameMsgs += st.FrameMsgs
		c.Backpressure += st.Backpressure
		c.DeliverBatches += st.DeliverBatches
		s.hotMax = max(s.hotMax, st.ReorderHotMax)
		s.bufMax = max(s.bufMax, st.MaxBufferBytes)
	}
	return s
}

// wrapDeliveries interposes on every process's delivery callback, after
// the application registered it: each delivery is order-checked and, when
// traced, timed as a delivery-callback span.
func wrapDeliveries(cc *core.Cluster, ck *checker, tr *tracer) {
	for _, p := range cc.Procs {
		fn, rcv := p.OnDeliver, int(p.ID)
		p.OnDeliver = func(d core.Delivery) {
			ck.order(rcv, d.Reliable, int64(d.TS), int(d.Src))
			t0 := tr.begin()
			fn(d)
			tr.endDeliver(t0)
		}
	}
}

// --- serve-kv ---

// serveClients is the top point of the -fig serve KV client sweep on the
// 64-process testbed: the kv/64 p99 knee.
const serveClients = 131072

// serveKV runs the closed-loop KV tier: 131072 sessions on the testbed at
// two processes per host, serve.DefaultConfig otherwise. At seed 1 with
// the quick scale (150 us warmup, 400 us window) it is the kv/64@131072 row
// of -fig serve.
func serveKV(seed int64, m *meter, tr *tracer, warmup, window sim.Time) (serve.Result, error) {
	r := m.r
	cl := onepipe.NewCluster(onepipe.Config{Topology: onepipe.Testbed(), ProcsPerHost: 2, Seed: seed})
	cfg := serve.DefaultConfig()
	cfg.Clients = serveClients
	cfg.Seed = seed
	// The completion log is the only public per-request latency record;
	// it costs one formatted line per completed request.
	cfg.RecordLog = true
	tier := serve.New(cl, cfg)
	net, cc := cl.Network(), cl.Core()
	probe := newSimProbe(net, cc)
	ck := newChecker()
	wrapDeliveries(cc, ck, tr)
	for _, h := range cc.Hosts {
		tr.wrapRx(net, h)
	}
	tier.Start()
	cl.Run(warmup)
	m.setupDone()

	a := probe.read()
	from := cl.Now()
	tier.StartMeasure()
	tr.advance(cl.Run, net.Eng.Pending, window)
	res := tier.StopMeasure()
	to := cl.Now()
	m.windowDone()
	b := probe.read()

	lat, err := logLatencies(tier.Log(), from, to)
	if err != nil {
		return res, err
	}
	if len(lat) != res.Delivered {
		return res, fmt.Errorf("serve-kv: completion log has %d requests in the window, tier counted %d", len(lat), res.Delivered)
	}
	r.ops, r.attempted, r.lat = res.Delivered, res.Issued, lat
	r.sim = fmt.Sprintf("delivered=%d issued=%d events=%d %s", res.Delivered, res.Issued, b.events-a.events, summarize(append([]float64(nil), lat...)))
	if tr != nil {
		r.layer = simLayers(r, a, b)
		r.layer["serve.issued"] = float64(res.Issued)
		r.layer["serve.done_per_issued"] = float64(res.Delivered) / float64(res.Issued)
	}
	return res, ck.finish()
}

// logLatencies extracts client-observed latencies (us) of requests
// completed in (from, to] from the tier's completion log, whose lines read
// "s=<sess> q=<seq> at=<ns> lat=<ns> n=<ops>".
func logLatencies(log []byte, from, to sim.Time) ([]float64, error) {
	var out []float64
	for len(log) > 0 {
		line := log
		if i := bytes.IndexByte(log, '\n'); i >= 0 {
			line, log = log[:i], log[i+1:]
		} else {
			log = nil
		}
		at, err1 := logField(line, " at=")
		lat, err2 := logField(line, " lat=")
		if err1 != nil || err2 != nil {
			return nil, fmt.Errorf("serve-kv: bad completion log line %q", line)
		}
		if t := sim.Time(at); t > from && t <= to {
			out = append(out, float64(lat)/1e3)
		}
	}
	return out, nil
}

func logField(line []byte, key string) (int64, error) {
	i := bytes.Index(line, []byte(key))
	if i < 0 {
		return 0, fmt.Errorf("no %q", key)
	}
	v := line[i+len(key):]
	if j := bytes.IndexByte(v, ' '); j >= 0 {
		v = v[:j]
	}
	return strconv.ParseInt(string(v), 10, 64)
}

// --- trace-slo ---

const (
	sloProcs = 64
	// sloQuiesce lets in-flight scatterings finish after the trace ends;
	// deliveries in it still count, as in -fig slo.
	sloQuiesce = 200 * sim.Microsecond
	// sloDrainMax bounds the extra run after the window that must settle
	// every reliable message before the exactly-once check.
	sloDrainMax = 5 * sim.Millisecond
)

// sloSeed maps the benchmark seed onto the synthetic trace seed; seed 1 is
// the trace -fig slo records.
func sloSeed(seed int64) int64 { return 20260808 + (seed-1)*7919 }

// sloSource is the -fig slo reference load: Zipf destinations, ETC sizes,
// 30% reliable, a diurnal rate, merged with periodic 6-way incasts.
func sloSource(seed int64, until sim.Time) workload.Source {
	base := workload.NewSynthetic(workload.SyntheticConfig{
		Procs:        sloProcs,
		MeanGap:      300 * sim.Nanosecond,
		Fanout:       2,
		Size:         workload.ETCSize,
		ZipfTheta:    0.99,
		ReliableFrac: 0.3,
		Rate:         workload.Diurnal(until, 0.6, 1.8),
		Stop:         until,
		Seed:         sloSeed(seed),
	})
	incast := workload.NewIncast(sloProcs, 0, 6, 25*sim.Microsecond, 256, 0, until)
	return workload.Merge(base, incast)
}

// sloProfile is the -fig slo impairment profile: jitter everywhere,
// Gilbert-Elliott burst loss on host access links, a WAN class on the core
// tier.
func sloProfile() *netsim.Profile {
	jit := 150 * sim.Nanosecond
	access := &netsim.Impairment{Jitter: jit, GE: netsim.BurstLoss(0.002, 6)}
	wan := &netsim.Impairment{Jitter: jit, ExtraDelay: 1 * sim.Microsecond}
	return &netsim.Profile{
		Default: &netsim.Impairment{Jitter: jit},
		ByKind: map[topology.LinkKind]*netsim.Impairment{
			topology.LinkHostUp:        access,
			topology.LinkTorHostDown:   access,
			topology.LinkSpineCoreUp:   wan,
			topology.LinkCoreSpineDown: wan,
		},
	}
}

// recordTrace drains a source through the text trace recorder and parses
// the bytes back, as an on-disk trace would be replayed.
func recordTrace(src workload.Source) ([]workload.Intent, error) {
	var buf bytes.Buffer
	tw := workload.NewTraceWriter(&buf)
	rec := workload.Record(src, tw)
	for {
		if _, ok := rec.Next(); !ok {
			break
		}
	}
	if err := tw.Flush(); err != nil {
		return nil, fmt.Errorf("record trace: %w", err)
	}
	return workload.ParseTrace(&buf)
}

// sloResult is what the -fig slo batched row reports.
type sloResult struct {
	delivered int
	hist      stats.Histogram // ns, as -fig slo keeps it
}

// traceSLO replays the recorded trace through the root Fabric API on the
// testbed under the reference impairment profile. At seed 1 with the quick
// scale and managedCommit unset it is the batched row of -fig slo.
//
// managedCommit keeps a link the dead-link scanner removes inside commit
// aggregation (netsim.Config.ControllerManagedCommit), as a reliable-1Pipe
// deployment configures the fabric. -fig slo leaves it unset; there a
// burst on an access link that outlasts the scan timeout lets the commit
// barrier pass un-ACKed reliable messages, whose retransmissions the
// receivers then drop as already committed.
func traceSLO(seed int64, m *meter, tr *tracer, warmup, window sim.Time, managedCommit bool) (*sloResult, error) {
	r := m.r
	until := warmup + window
	g0 := time.Now()
	trace, err := recordTrace(sloSource(seed, until))
	if err != nil {
		return nil, err
	}
	genS := time.Since(g0).Seconds()

	ncfg := netsim.DefaultConfig(topology.Testbed(), sloProcs/topology.Testbed().NumHosts())
	ncfg.Impair = sloProfile()
	ncfg.ControllerManagedCommit = managedCommit
	ncfg.Seed = seed
	cl := onepipe.NewCluster(onepipe.Config{Net: &ncfg})
	net, cc := cl.Network(), cl.Core()
	eng := net.Eng
	probe := newSimProbe(net, cc)

	ck := newChecker()
	var sentAt []sim.Time // by message id
	res := &sloResult{}
	measuring := false
	var lat []float64
	lostBE, failedRel := 0, 0
	for p := 0; p < cl.NumProcesses(); p++ {
		proc := cl.Process(p)
		proc.OnDeliver(func(d onepipe.Delivery) {
			id := d.Data.(uint32)
			ck.delivered(id)
			if measuring {
				res.delivered++
				l := eng.Now() - sentAt[id]
				res.hist.Add(float64(l))
				lat = append(lat, float64(l)/1e3)
			}
		})
		proc.OnSendFail(func(f onepipe.SendFailure) {
			if ck.reliable[f.Data.(uint32)] {
				failedRel++
			} else {
				lostBE++
			}
		})
	}
	wrapDeliveries(cc, ck, tr)
	for _, h := range cc.Hosts {
		tr.wrapRx(net, h)
	}

	// The pump keeps one pending event: each intent's send schedules the
	// next, so the replay adds no queue depth of its own.
	refused := 0
	next := 0
	var step func()
	pull := func() {
		if next >= len(trace) {
			return
		}
		eng.At(max(trace[next].At, eng.Now()), step)
	}
	step = func() {
		it := trace[next]
		next++
		n := cl.NumProcesses()
		msgs := make([]onepipe.Message, 0, len(it.Dsts))
		first := len(sentAt)
		for _, d := range it.Dsts {
			msgs = append(msgs, onepipe.Message{Dst: onepipe.ProcID(d % n), Size: it.Size, Data: ck.expect(it.Opts.Reliable)})
			sentAt = append(sentAt, eng.Now())
		}
		var opts []onepipe.SendOption
		if it.Opts.Reliable {
			opts = append(opts, onepipe.Reliable())
		}
		if it.Opts.Unbatched {
			opts = append(opts, onepipe.Unbatched())
		}
		if it.Opts.ConflictKey != 0 {
			opts = append(opts, onepipe.Conflicts(it.Opts.ConflictKey))
		}
		t0 := tr.begin()
		err := cl.Process(it.Src%n).Send(msgs, opts...)
		tr.endSend(t0)
		if err != nil {
			for id := first; id < len(sentAt); id++ {
				ck.reliable[id] = false // refused: not expected anywhere
			}
			refused += len(msgs)
		}
		pull()
	}
	pull()
	cl.Run(warmup)
	m.setupDone()

	a := probe.read()
	measuring = true
	tr.advance(cl.Run, eng.Pending, window+sloQuiesce)
	measuring = false
	m.windowDone()
	b := probe.read()

	for t := sim.Time(0); ck.undelivered() > 0 && t < sloDrainMax; t += 100 * sim.Microsecond {
		cl.Run(100 * sim.Microsecond)
	}
	undelivered := ck.undelivered()
	r.ops, r.lat = res.delivered, lat
	r.attempted = len(sentAt)
	r.failed = refused + failedRel + undelivered
	r.sim = fmt.Sprintf("delivered=%d sent=%d lost_be=%d events=%d %s", res.delivered, len(sentAt), lostBE, b.events-a.events, summarize(append([]float64(nil), lat...)))
	if tr != nil {
		r.layer = simLayers(r, a, b)
		r.layer["workload.intents"] = float64(len(trace))
		r.layer["workload.gen_s"] = genS
	}
	if err := ck.finish(); err != nil {
		return res, fmt.Errorf("trace-slo: %w (links declared dead: %d)", err, probe.deadLinks)
	}
	if refused+failedRel > 0 {
		return res, fmt.Errorf("trace-slo: %d sends refused, %d reliable send failures", refused, failedRel)
	}
	return res, nil
}

// --- fabric-1024 ---

// fabricTopo is the 8x8x16 fat tree of -fig scale.
var fabricTopo = topology.ClosConfig{Pods: 8, RacksPerPod: 8, HostsPerRack: 16, SpinesPerPod: 4, Cores: 8}

const (
	fabricInterval = 2 * sim.Microsecond
	fabricPayload  = 512
	fabricWarmup   = 20 * sim.Microsecond
	fabricWindow   = 100 * sim.Microsecond
	// fabricDrain stops the senders and lets the last packets land, so
	// every packet sent in the window must have been delivered.
	fabricDrain  = 20 * sim.Microsecond
	fabricJitter = 1 * sim.Microsecond
)

// fabric1024 drives raw netsim with no 1Pipe endpoint: every host sends a
// 512 B data packet every 2 us to a seeded random peer, with flow ECMP, on
// the single engine. A FIFO-clamped switch jitter makes latency depend on
// the seed without reordering any flow.
func fabric1024(seed int64, m *meter, tr *tracer) error {
	r := m.r
	cfg := netsim.DefaultConfig(fabricTopo, 1)
	cfg.FlowECMP = true
	cfg.Seed = seed
	cfg.Impair = &netsim.Profile{Default: &netsim.Impairment{Jitter: fabricJitter}}
	net := netsim.New(cfg)
	defer net.Close()
	eng := net.Eng
	hosts := len(net.G.Hosts)
	rng := rand.New(rand.NewSource(seed))
	probe := newSimProbe(net, nil)

	ck := newChecker()
	var (
		sentAt     []sim.Time // by packet id
		measured   []bool     // sent inside the window
		lastOnFlow = make([]int64, hosts*hosts)
		lat        []float64
		sending    = true
		measuring  = false
	)
	for i := range lastOnFlow {
		lastOnFlow[i] = -1
	}
	for hi := 0; hi < hosts; hi++ {
		hi := hi
		net.AttachHost(hi, func(pkt *netsim.Packet) {
			t0 := tr.begin()
			if pkt.Kind == netsim.KindData {
				id := pkt.PSN
				ck.delivered(id)
				flow := int(pkt.Src)*hosts + hi
				if int64(id) < lastOnFlow[flow] {
					ck.fault("flow %d->%d: packet %d after %d", pkt.Src, hi, id, lastOnFlow[flow])
				}
				lastOnFlow[flow] = int64(id)
				if measured[id] {
					lat = append(lat, float64(eng.Now()-sentAt[id])/1e3)
				}
			}
			netsim.PutPacket(pkt)
			tr.endDeliver(t0)
		})
	}
	for hi := 0; hi < hosts; hi++ {
		hi := hi
		var send func()
		send = func() {
			if !sending {
				return
			}
			dst := (hi + 1 + rng.Intn(hosts-1)) % hosts
			pkt := netsim.GetPacket()
			pkt.Kind = netsim.KindData
			pkt.Src, pkt.Dst = netsim.ProcID(hi), netsim.ProcID(dst)
			pkt.MsgTS = net.Clocks[hi].Now()
			pkt.PSN = ck.expect(true)
			pkt.EndOfMsg = true
			pkt.Size = fabricPayload + netsim.HeaderBytes
			sentAt = append(sentAt, eng.Now())
			measured = append(measured, measuring)
			net.SendFromHost(hi, pkt)
			eng.After(fabricInterval, send)
		}
		eng.After(sim.Time(rng.Intn(2000)), send)
	}
	net.RunFor(fabricWarmup)
	m.setupDone()

	a := probe.read()
	measuring = true
	tr.advance(net.RunFor, eng.Pending, fabricWindow)
	measuring, sending = false, false
	tr.advance(net.RunFor, eng.Pending, fabricDrain)
	m.windowDone()
	b := probe.read()

	drops := b.net.CorruptDrop + b.net.QueueDrop + b.net.DeadDrop
	r.ops, r.lat = len(lat), lat
	for _, w := range measured {
		if w {
			r.attempted++
		}
	}
	r.failed = r.attempted - r.ops
	r.sim = fmt.Sprintf("delivered=%d sent=%d drops=%d events=%d %s", r.ops, r.attempted, drops, b.events-a.events, summarize(append([]float64(nil), lat...)))
	if tr != nil {
		r.layer = simLayers(r, a, b)
	}
	if err := ck.finish(); err != nil {
		return err
	}
	if r.failed > 0 || drops > 0 {
		return fmt.Errorf("fabric-1024: %d of %d window packets undelivered, %d drops", r.failed, r.attempted, drops)
	}
	return nil
}
