package main

import (
	"bytes"
	"fmt"
	"math"
	"runtime"
	"runtime/metrics"
	"runtime/pprof"
	"sort"
	"syscall"
	"time"
)

// rep is one repetition of a workload: set up from the seed, run the
// measured window, check the outputs.
type rep struct {
	setupS float64 // host seconds before the measured window
	wallS  float64 // host seconds of the measured window
	cpuS   float64 // process user+sys seconds during the window

	ops       int // completed operations in the window
	attempted int // operations offered
	failed    int // operations refused or whose guarantee broke
	lat       []float64
	// sim digests the simulated outcome; repeats of one seed must agree.
	sim string

	layer  map[string]float64 // traced counters, already per-op where named so
	allocs uint64             // heap objects allocated during the window
	bytes  uint64             // heap bytes allocated during the window
	gcCPU  float64            // GC share of process CPU during the window
	prof   []byte             // CPU profile of the window (traced only)
}

// meter times the phases of one rep. The workload calls setupDone when the
// system is built and warmed, and windowDone when the measured window and
// its drain have finished.
type meter struct {
	r       *rep
	traced  bool
	t0, t1  time.Time
	cpu1    float64
	ms1     runtime.MemStats
	gc1     gcSample
	profBuf bytes.Buffer
}

func newMeter(r *rep, traced bool) *meter {
	runtime.GC() // start every rep from a collected heap
	return &meter{r: r, traced: traced, t0: time.Now()}
}

func (m *meter) setupDone() {
	m.r.setupS = time.Since(m.t0).Seconds()
	runtime.ReadMemStats(&m.ms1)
	m.gc1 = readGC()
	if m.traced {
		// The default 100 Hz gives too few samples for a window of a few
		// seconds; the runtime keeps the first rate set and warns on stderr
		// when StartCPUProfile asks for 100 Hz.
		runtime.SetCPUProfileRate(profileHz)
		if err := pprof.StartCPUProfile(&m.profBuf); err != nil {
			panic(err) // only fails when another profile is running
		}
	}
	m.cpu1 = cpuSeconds()
	m.t1 = time.Now()
}

const profileHz = 500

func (m *meter) windowDone() {
	m.r.wallS = time.Since(m.t1).Seconds()
	m.r.cpuS = cpuSeconds() - m.cpu1
	if m.traced {
		pprof.StopCPUProfile()
		m.r.prof = m.profBuf.Bytes()
	}
	var ms2 runtime.MemStats
	runtime.ReadMemStats(&ms2)
	m.r.allocs = ms2.Mallocs - m.ms1.Mallocs
	m.r.bytes = ms2.TotalAlloc - m.ms1.TotalAlloc
	g := readGC()
	if d := g.total - m.gc1.total; d > 0 {
		m.r.gcCPU = (g.gc - m.gc1.gc) / d
	}
}

func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic(err) // RUSAGE_SELF with a valid pointer cannot fail
	}
	return tv(ru.Utime) + tv(ru.Stime)
}

func tv(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }

// maxRSSMB is the process's peak resident set.
func maxRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic(err)
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

type gcSample struct{ gc, total float64 }

func readGC() gcSample {
	s := []metrics.Sample{
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
	}
	metrics.Read(s)
	return gcSample{s[0].Value.Float64(), s[1].Value.Float64()}
}

// percentile returns the p-th percentile of sorted xs by linear
// interpolation between closest ranks.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	pos := p / 100 * float64(len(sorted)-1)
	lo := int(pos)
	if lo >= len(sorted)-1 {
		return sorted[len(sorted)-1]
	}
	f := pos - float64(lo)
	return sorted[lo]*(1-f) + sorted[lo+1]*f
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return percentile(s, 50)
}

// latSummary is the latency digest of one rep. tailBeyond is the number of
// samples above the p999.
type latSummary struct {
	n              int
	p50, p99, p999 float64
	tailBeyond     int
}

func summarize(lat []float64) latSummary {
	sort.Float64s(lat)
	s := latSummary{n: len(lat), p50: percentile(lat, 50), p99: percentile(lat, 99), p999: percentile(lat, 99.9)}
	s.tailBeyond = len(lat) - sort.SearchFloat64s(lat, math.Nextafter(s.p999, math.Inf(1)))
	return s
}

func (s latSummary) String() string {
	return fmt.Sprintf("n=%d p50=%.6g p99=%.6g p999=%.6g (%d beyond p999)", s.n, s.p50, s.p99, s.p999, s.tailBeyond)
}
