package main

import (
	"bytes"
	"math"
	"runtime/pprof"
	"testing"
	"time"

	"onepipe/internal/sim"
)

func TestPackageOf(t *testing.T) {
	for fn, want := range map[string]string{
		"onepipe/internal/sim.(*Engine).pop":         "onepipe/internal/sim",
		"onepipe.(*Process).Send":                    "onepipe",
		"runtime.mallocgc":                           "runtime",
		"internal/runtime/syscall.Syscall6":          "internal/runtime/syscall",
		"main.fabric1024.func2":                      "main",
		"onepipe/internal/netsim.(*Network).receive": "onepipe/internal/netsim",
	} {
		if got := packageOf(fn); got != want {
			t.Errorf("packageOf(%q) = %q, want %q", fn, got, want)
		}
	}
}

// TestLayerBudgetSumsToOne profiles engine work and checks the parsed
// budget sums to 1 and puts sim ahead of every other program layer.
func TestLayerBudgetSumsToOne(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Fatal(err)
	}
	eng := sim.NewEngine(1)
	var tick func()
	tick = func() { eng.After(sim.Nanosecond, tick) }
	for i := 0; i < 64; i++ {
		eng.After(sim.Time(i), tick)
	}
	for end := time.Now().Add(300 * time.Millisecond); time.Now().Before(end); {
		eng.RunFor(10 * sim.Microsecond)
	}
	pprof.StopCPUProfile()
	b, err := layerBudget(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if b.samples == 0 {
		t.Skip("no profile samples")
	}
	sum := 0.0
	for _, l := range layers {
		sum += b.share(l)
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Fatalf("shares sum to %v", sum)
	}
	for _, l := range []string{"netsim", "core", "serve", "workload", "wire", "udpnet"} {
		if b.share(l) >= b.share("sim") {
			t.Fatalf("engine loop attributed %.2f to %s, %.2f to sim", b.share(l), l, b.share("sim"))
		}
	}
}
