package main

import (
	"bytes"
	"fmt"
	"math"
	"runtime"
	"sort"
	"time"

	"onepipe/internal/chaos"
	"onepipe/internal/netsim"
	"onepipe/internal/wire"
)

// perLayer lists every per-layer metric of the traced run, with its unit.
// A layer a workload does not reach reports 0.
var perLayer = []struct{ name, unit string }{
	{"sim.events", "count"},
	{"sim.events_per_op", "count"},
	{"sim.ns_per_event", "ns"},
	{"sim.pending_max", "count"},
	{"sim.cpu_share", "ratio"},
	{"netsim.pkts_per_op", "count"},
	{"netsim.beacon_pkt_share", "ratio"},
	{"netsim.drops", "count"},
	{"netsim.links_declared_dead", "count"},
	{"netsim.cpu_share", "ratio"},
	{"core.pkts_per_msg", "count"},
	{"core.frame_msgs_mean", "count"},
	{"core.deliver_batch_mean", "count"},
	{"core.beacons_suppressed_share", "ratio"},
	{"core.retx_ratio", "ratio"},
	{"core.naks", "count"},
	{"core.rx_self_ns_per_pkt", "ns"},
	{"core.send_ns_per_call", "ns"},
	{"core.cpu_share", "ratio"},
	{"core.reorder_hot_max", "count"},
	{"core.max_buffer_bytes", "bytes"},
	{"core.backpressure", "count"},
	{"serve.issued", "count"},
	{"serve.done_per_issued", "ratio"},
	{"serve.cb_self_ns_per_batch", "ns"},
	{"serve.cpu_share", "ratio"},
	{"workload.intents", "count"},
	{"workload.gen_s", "s"},
	{"workload.cpu_share", "ratio"},
	{"wire.encode_ns_per_pkt", "ns"},
	{"wire.decode_ns_per_pkt", "ns"},
	{"wire.allocs_per_pkt", "count"},
	{"wire.cpu_share", "ratio"},
	{"udpnet.send_ns_per_call", "ns"},
	{"udpnet.cpu_share", "ratio"},
	{"udpnet.syscall_share", "ratio"},
	{"runtime.gc_cpu_share", "ratio"},
	{"runtime.allocs_per_op", "count"},
	{"runtime.alloc_bytes_per_op", "bytes"},
	{"runtime.cpu_share", "ratio"},
	{"other.cpu_share", "ratio"},
	{"lat.p99_us", "us"},
	{"lat.p999_us", "us"},
	{"lat.beyond_p999", "count"},
	{"bench.gen_late_max_us", "us"},
	{"bench.trace_overhead", "ratio"},
	{"bench.deliver_ns_per_call", "ns"},
	{"bench.profile_samples", "count"},
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// simLayers derives the simulated layers' per-layer metrics from counter
// snapshots taken at the window's edges.
func simLayers(r *rep, a, b simCounters) map[string]float64 {
	ops := float64(r.ops)
	ev := float64(b.events - a.events)
	var pkts uint64
	for k := range b.net.PktsByKind {
		pkts += b.net.PktsByKind[k] - a.net.PktsByKind[k]
	}
	beaconPkts := b.net.PktsByKind[netsim.KindBeacon] - a.net.PktsByKind[netsim.KindBeacon]
	c0, c1 := a.core, b.core
	beacons := float64(c1.Beacons - c0.Beacons)
	suppressed := float64(c1.BeaconsSuppressed - c0.BeaconsSuppressed)
	sent := float64(c1.PktsSent - c0.PktsSent)
	return map[string]float64{
		"sim.events":                    ev,
		"sim.events_per_op":             ratio(ev, ops),
		"sim.ns_per_event":              ratio(r.wallS*1e9, ev),
		"netsim.pkts_per_op":            ratio(float64(pkts), ops),
		"netsim.beacon_pkt_share":       ratio(float64(beaconPkts), float64(pkts)),
		"netsim.drops":                  float64((b.net.CorruptDrop + b.net.QueueDrop + b.net.DeadDrop) - (a.net.CorruptDrop + a.net.QueueDrop + a.net.DeadDrop)),
		"netsim.links_declared_dead":    float64(b.deadLinks - a.deadLinks),
		"core.pkts_per_msg":             ratio(sent, float64(c1.MsgsSent-c0.MsgsSent)),
		"core.frame_msgs_mean":          ratio(float64(c1.FrameMsgs-c0.FrameMsgs), float64(c1.FramesSent-c0.FramesSent)),
		"core.deliver_batch_mean":       ratio(float64(c1.MsgsDelivered-c0.MsgsDelivered), float64(c1.DeliverBatches-c0.DeliverBatches)),
		"core.beacons_suppressed_share": ratio(suppressed, beacons+suppressed),
		"core.retx_ratio":               ratio(float64(c1.PktsRetx-c0.PktsRetx), sent),
		"core.naks":                     float64(c1.Naks - c0.Naks),
		"core.reorder_hot_max":          float64(b.hotMax),
		"core.max_buffer_bytes":         float64(b.bufMax),
		"core.backpressure":             float64(c1.Backpressure - c0.Backpressure),
	}
}

// tracedMetrics assembles the per-layer metrics of a traced run: reps
// are traced repeats of the seed (their counters agree; their profiles and
// spans add up), plain an untraced rep of it, the base of the tracing
// overhead.
func tracedMetrics(w *workloadDef, reps []*rep, plain *rep, tr *tracer, wc wireCorpus) (map[string]float64, error) {
	out := map[string]float64{}
	for _, m := range perLayer {
		out[m.name] = 0
	}
	r := reps[0]
	for k, v := range r.layer {
		if _, ok := out[k]; !ok {
			return nil, fmt.Errorf("traced run produced unlisted metric %q", k)
		}
		out[k] = v
	}
	var b budget
	walls := make([]float64, len(reps))
	gc := make([]float64, len(reps))
	for i, t := range reps {
		pb, err := layerBudget(t.prof)
		if err != nil {
			return nil, err
		}
		b.add(pb)
		walls[i], gc[i] = t.wallS, t.gcCPU
	}
	sum := 0.0
	for _, l := range layers {
		out[l+".cpu_share"] = b.share(l)
		sum += b.share(l)
	}
	if b.total > 0 && math.Abs(sum-1) > 1e-9 {
		return nil, fmt.Errorf("layer budget sums to %v, not 1", sum)
	}
	out["bench.profile_samples"] = float64(b.samples)
	ls := summarize(r.lat)
	out["lat.p99_us"], out["lat.p999_us"], out["lat.beyond_p999"] = ls.p99, ls.p999, float64(ls.tailBeyond)
	ops := float64(r.ops)
	out["runtime.gc_cpu_share"] = median(gc)
	out["runtime.allocs_per_op"] = ratio(float64(r.allocs), ops)
	out["runtime.alloc_bytes_per_op"] = ratio(float64(r.bytes), ops)
	out["bench.trace_overhead"] = ratio(median(walls), plain.wallS)
	out["bench.gen_late_max_us"] = tr.lateMaxUs
	out["wire.encode_ns_per_pkt"] = wc.encodeNs
	out["wire.decode_ns_per_pkt"] = wc.decodeNs
	out["wire.allocs_per_pkt"] = wc.allocs
	if w.live {
		out["udpnet.send_ns_per_call"] = tr.send.perCall()
		out["udpnet.syscall_share"] = ratio(float64(b.syscall), float64(b.total))
		out["bench.deliver_ns_per_call"] = tr.deliver.perCall()
	} else {
		out["sim.pending_max"] = float64(tr.pendingMax)
		out["core.send_ns_per_call"] = tr.send.perCall()
		out["core.rx_self_ns_per_pkt"] = tr.rx.perCall()
		// The serve tier's own callbacks are the wrapped ones on serve-kv;
		// elsewhere they are the benchmark's.
		if w.name == "serve-kv" {
			out["serve.cb_self_ns_per_batch"] = tr.deliver.perCall()
		} else {
			out["bench.deliver_ns_per_call"] = tr.deliver.perCall()
		}
	}
	return out, nil
}

// wireCorpus is the wire codec timed over packets captured from a seeded
// fault-heavy chaos run: every frame kind the protocol emits, in the
// encoding the UDP fabric puts on sockets.
type wireCorpus struct {
	encodeNs, decodeNs, allocs float64
	byKind                     map[string][3]float64 // encode ns, decode ns, allocs
}

const (
	wireRounds  = 200
	wirePerKind = 64
)

func measureWire(seed int64) (wireCorpus, error) {
	corpus := chaos.CaptureWirePackets(seed, wirePerKind)
	if len(corpus) == 0 {
		return wireCorpus{}, fmt.Errorf("wire: empty corpus")
	}
	kinds := make([]string, len(corpus))
	maxLen := 0
	var pkt netsim.Packet
	for i, buf := range corpus {
		payload, err := wire.DecodeInto(&pkt, buf, 0)
		if err != nil {
			return wireCorpus{}, fmt.Errorf("wire: captured packet %d: %w", i, err)
		}
		if re := wire.AppendEncode(nil, &pkt, payload); !bytes.Equal(re, buf) {
			return wireCorpus{}, fmt.Errorf("wire: captured %v packet %d does not re-encode to its bytes", pkt.Kind, i)
		}
		kinds[i] = pkt.Kind.String()
		if pkt.Frame {
			kinds[i] = "frame"
		}
		maxLen = max(maxLen, len(buf))
	}
	type acc struct {
		enc, dec time.Duration
		allocs   uint64
		n        int
	}
	per := map[string]*acc{}
	dst := make([]byte, 0, maxLen)
	var ms0, ms1 runtime.MemStats
	for i, buf := range corpus {
		a := per[kinds[i]]
		if a == nil {
			a = &acc{}
			per[kinds[i]] = a
		}
		payload, _ := wire.DecodeInto(&pkt, buf, 0)
		runtime.ReadMemStats(&ms0)
		t0 := time.Now()
		for j := 0; j < wireRounds; j++ {
			dst = wire.AppendEncode(dst[:0], &pkt, payload)
		}
		t1 := time.Now()
		for j := 0; j < wireRounds; j++ {
			payload, _ = wire.DecodeInto(&pkt, buf, 0)
		}
		t2 := time.Now()
		runtime.ReadMemStats(&ms1)
		a.enc += t1.Sub(t0)
		a.dec += t2.Sub(t1)
		a.allocs += ms1.Mallocs - ms0.Mallocs
		a.n += wireRounds
	}
	wc := wireCorpus{byKind: map[string][3]float64{}}
	var enc, dec time.Duration
	var allocs uint64
	n := 0
	for k, a := range per {
		wc.byKind[k] = [3]float64{float64(a.enc) / float64(a.n), float64(a.dec) / float64(a.n), float64(a.allocs) / float64(a.n)}
		enc, dec, allocs, n = enc+a.enc, dec+a.dec, allocs+a.allocs, n+a.n
	}
	wc.encodeNs, wc.decodeNs, wc.allocs = float64(enc)/float64(n), float64(dec)/float64(n), float64(allocs)/float64(n)
	return wc, nil
}

func (wc wireCorpus) String() string {
	ks := make([]string, 0, len(wc.byKind))
	for k := range wc.byKind {
		ks = append(ks, k)
	}
	sort.Strings(ks)
	var b bytes.Buffer
	for _, k := range ks {
		v := wc.byKind[k]
		fmt.Fprintf(&b, " %s: enc %.1fns dec %.1fns allocs %.2f;", k, v[0], v[1], v[2])
	}
	return b.String()
}
