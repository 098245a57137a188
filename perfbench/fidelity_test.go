package main

import (
	"testing"

	"onepipe/internal/sim"
)

// The quick scale of -fig serve and -fig slo: 150 us warmup, 400 us window.
const (
	quickWarmup = 150 * sim.Microsecond
	quickWindow = 400 * sim.Microsecond
)

// TestServeKVReproducesServeFigure pins the serve-kv driver at seed 1 and
// the quick window to the committed kv/64@131072 row of -fig serve
// (BENCH_core.json), so the benchmark measures the program the figure does.
func TestServeKVReproducesServeFigure(t *testing.T) {
	if testing.Short() {
		t.Skip("runs 131072 sessions for 550 us simulated")
	}
	res, err := serveKV(1, newMeter(&rep{}, false), nil, quickWarmup, quickWindow)
	if err != nil {
		t.Fatal(err)
	}
	if res.Delivered != 57783 || res.P99 != 268 {
		t.Fatalf("serve-kv at seed 1: delivered %d p99 %v us, committed row has 57783 and 268", res.Delivered, res.P99)
	}
}

// TestTraceSLOReproducesSLOFigure pins the trace-slo driver at seed 1 and
// the quick window, in the -fig slo fabric configuration (commit not
// managed), to the committed batched row of -fig slo. The row is compared
// whatever the delivery check says: the figure does not check delivery,
// and at seed 1 this configuration loses reliable messages (see traceSLO).
func TestTraceSLOReproducesSLOFigure(t *testing.T) {
	res, err := traceSLO(1, newMeter(&rep{}, false), nil, quickWarmup, quickWindow, false)
	if err != nil {
		t.Logf("delivery check at seed 1, commit not managed: %v", err)
	}
	if res == nil {
		t.Fatal("no result")
	}
	if p99 := res.hist.Percentile(99) / 1000; res.delivered != 3188 || p99 != 76.8 {
		t.Fatalf("trace-slo at seed 1: delivered %d p99 %v us, committed row has 3188 and 76.8", res.delivered, p99)
	}
}

// TestTraceSLOManagedCommitPassesChecks runs the same seed and window in
// the configuration the benchmark measures: every output check must pass.
func TestTraceSLOManagedCommitPassesChecks(t *testing.T) {
	r := &rep{}
	if _, err := traceSLO(1, newMeter(r, false), nil, quickWarmup, quickWindow, true); err != nil {
		t.Fatal(err)
	}
	if r.failed != 0 {
		t.Fatalf("%d failed ops", r.failed)
	}
}
