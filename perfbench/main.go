// Command perfbench is the repository's end-to-end benchmark. It runs one
// named workload for a fixed wall-clock budget, repeating a seeded set-up
// and measured window, checks every output, and prints the end-to-end
// metrics (or, with -trace 1, the per-layer metrics) as the last line of
// standard output. See README.md in this directory.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"strings"
	"time"

	"onepipe/internal/sim"
)

// workloadDef is one benchmark workload. rep builds the system from the
// seed, calls m.setupDone before the measured window and m.windowDone
// after it, and fills m.r; tr is nil on untraced reps.
type workloadDef struct {
	name string
	op   string // what one operation is
	fail string // what counts as a failed operation
	live bool   // wall-clock fabric: no simulated results to repeat
	rep  func(seed int64, m *meter, tr *tracer) error
}

// serveWarmup and serveWindow cut the -fig serve quick window (150 us
// warmup, 400 us measured) to a 100 us measured window so a run holds
// several reps; the fidelity test runs the full one.
const (
	serveWarmup = 150 * sim.Microsecond
	serveWindow = 100 * sim.Microsecond
	sloWarmup   = 150 * sim.Microsecond
	sloWindow   = 4 * sim.Millisecond
)

var workloads = []*workloadDef{
	{
		name: "serve-kv",
		op:   "a KV request completed in the simulated window (client-observed)",
		fail: "a request the tier could not send (none expected: it retries refused sends)",
		rep: func(seed int64, m *meter, tr *tracer) error {
			_, err := serveKV(seed, m, tr, serveWarmup, serveWindow)
			return err
		},
	},
	{
		name: "trace-slo",
		op:   "a message delivered in the simulated window (send to deliver)",
		fail: "a refused send, a reliable send-failure report, or a reliable message not delivered exactly once after drain",
		rep: func(seed int64, m *meter, tr *tracer) error {
			_, err := traceSLO(seed, m, tr, sloWarmup, sloWindow, true)
			return err
		},
	},
	{
		name: "fabric-1024",
		op:   "a data packet sent in the simulated window and delivered (send to deliver)",
		fail: "a window packet not delivered by the end of the drain, or any drop",
		rep:  fabric1024,
	},
	{
		name: "live-udp",
		op:   "a reliable message delivered over loopback UDP (wall clock from its due time)",
		fail: "a refused send or a message not delivered within the drain",
		live: true,
		rep:  liveUDP,
	},
}

const maxReps = 100

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	name := flag.String("workload", "", "workload to run: serve-kv, trace-slo, fabric-1024, live-udp")
	seed := flag.Int64("seed", 1, "seed every input is generated from")
	seconds := flag.Float64("seconds", 10, "wall-clock seconds to keep repeating the measured rep")
	trace := flag.Int("trace", 0, "1 adds traced reps and prints the per-layer metrics")
	flag.Parse()
	var w *workloadDef
	for _, c := range workloads {
		if c.name == *name {
			w = c
		}
	}
	if w == nil || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: bad arguments (workload %q, seed %d, seconds %v, trace %d)\n", *name, *seed, *seconds, *trace)
		os.Exit(2)
	}
	// The simulated workloads run on one engine goroutine. One P keeps GC
	// work on that core too, so window wall time does not swing with what
	// else holds the machine's other cores. On live-udp one P also keeps
	// the fabric's goroutines from handing packets across threads, which
	// made its wall-clock median steadier between runs.
	runtime.GOMAXPROCS(1)
	res, info, err := run(w, *seed, *seconds, *trace == 1)
	info["fingerprint"] = fingerprint()
	info["workload"], info["seed"], info["op"], info["failed_means"] = w.name, *seed, w.op, w.fail
	if err != nil {
		info["error"] = err.Error()
		res.Correct = false
	}
	enc := json.NewEncoder(os.Stdout)
	if err := enc.Encode(info); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	if err := enc.Encode(res); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	if !res.Correct {
		fmt.Fprintln(os.Stderr, "perfbench: output check failed:", err)
	}
}

// minReps makes a run set up several times and repeat its simulation at
// least twice.
const minReps = 3

// run measures one workload. Untraced, it repeats reps of the seed until
// the budget is spent and reports medians over them; every rep's
// simulated results must equal the first's. Traced, it runs one untraced
// rep, then traced reps until the budget is spent. A failed check is
// returned after the run, with everything it measured.
func run(w *workloadDef, seed int64, seconds float64, traced bool) (result, map[string]any, error) {
	res := result{Correct: true, Metrics: map[string]metric{}}
	info := map[string]any{}
	var reps []*rep
	var checkErr error // the first failed check; later reps still run
	var rssMB float64  // peak RSS by the end of the first rep
	one := func(tr *tracer) {
		r := &rep{}
		err := w.rep(seed, newMeter(r, tr != nil), tr)
		reps = append(reps, r)
		if len(reps) == 1 {
			rssMB = maxRSSMB()
		}
		res.Attempted += r.attempted
		res.Failed += r.failed
		if err == nil && !w.live && r.sim != reps[0].sim {
			err = fmt.Errorf("simulated results differ between reps of one seed:\n  %s\n  %s", reps[0].sim, r.sim)
		}
		if checkErr == nil {
			checkErr = err
		}
	}
	defer func() { info["reps"] = repInfo(reps) }()
	start := time.Now()
	if traced {
		one(nil)
		tr := &tracer{}
		for len(reps) < 2 || time.Since(start).Seconds() < seconds && len(reps) < maxReps {
			one(tr)
		}
		wc, err := measureWire(seed)
		if err != nil {
			return res, info, err
		}
		info["wire_by_kind"] = wc.String()
		m, err := tracedMetrics(w, reps[1:], reps[0], tr, wc)
		if err != nil {
			return res, info, err
		}
		for _, p := range perLayer {
			res.Metrics[p.name] = metric{m[p.name], p.unit}
		}
		return res, info, checkErr
	}
	for len(reps) < minReps || (time.Since(start).Seconds() < seconds && len(reps) < maxReps) {
		one(nil)
	}
	col := func(f func(r *rep) float64) float64 {
		xs := make([]float64, len(reps))
		for i, r := range reps {
			xs[i] = f(r)
		}
		return median(xs)
	}
	e2e := map[string]float64{
		"setup_s":        col(func(r *rep) float64 { return r.setupS }),
		"wall_s":         col(func(r *rep) float64 { return r.wallS }),
		"host_us_per_op": col(func(r *rep) float64 { return r.cpuS * 1e6 / float64(r.ops) }),
		"max_rss_mb":     rssMB,
		"delivered":      col(func(r *rep) float64 { return float64(r.ops) }),
		"lat_p50_us":     col(func(r *rep) float64 { return summarize(r.lat).p50 }),
	}
	for _, m := range endToEnd {
		res.Metrics[m.name] = metric{e2e[m.name], m.unit}
	}
	return res, info, checkErr
}

// endToEnd lists the end-to-end metrics of an untraced run, with units.
var endToEnd = []struct{ name, unit string }{
	{"setup_s", "s"},
	{"wall_s", "s"},
	{"host_us_per_op", "us"},
	{"max_rss_mb", "MB"},
	{"delivered", "count"},
	{"lat_p50_us", "us"},
}

func repInfo(reps []*rep) []string {
	out := make([]string, len(reps))
	for i, r := range reps {
		out[i] = fmt.Sprintf("setup %.3fs window %.3fs cpu %.3fs ops %d attempted %d failed %d | %s",
			r.setupS, r.wallS, r.cpuS, r.ops, r.attempted, r.failed, summarize(append([]float64(nil), r.lat...)))
	}
	return out
}

// fingerprint identifies the machine a result was measured on.
func fingerprint() map[string]any {
	cpu := "unknown"
	if f, err := os.Open("/proc/cpuinfo"); err == nil {
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
				cpu = strings.TrimSpace(v)
				break
			}
		}
		f.Close()
	}
	return map[string]any{
		"go":         runtime.Version(),
		"goos":       runtime.GOOS + "/" + runtime.GOARCH,
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"nproc":      runtime.NumCPU(),
		"cpu":        cpu,
	}
}
