package sim

import (
	"testing"
	"testing/quick"
)

func TestEngineOrdersEventsByTime(t *testing.T) {
	e := NewEngine(1)
	var got []int
	e.At(30, func() { got = append(got, 3) })
	e.At(10, func() { got = append(got, 1) })
	e.At(20, func() { got = append(got, 2) })
	e.Run()
	want := []int{1, 2, 3}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("order = %v, want %v", got, want)
		}
	}
	if e.Now() != 30 {
		t.Fatalf("Now = %v, want 30", e.Now())
	}
}

func TestEngineFIFOTieBreak(t *testing.T) {
	e := NewEngine(1)
	var got []int
	for i := 0; i < 10; i++ {
		i := i
		e.At(5, func() { got = append(got, i) })
	}
	e.Run()
	for i := range got {
		if got[i] != i {
			t.Fatalf("same-time events not FIFO: %v", got)
		}
	}
}

func TestEnginePastEventClampedToNow(t *testing.T) {
	e := NewEngine(1)
	ran := false
	e.At(100, func() {
		e.At(50, func() { // in the past
			if e.Now() != 100 {
				t.Errorf("past event ran at %v, want 100", e.Now())
			}
			ran = true
		})
	})
	e.Run()
	if !ran {
		t.Fatal("past-scheduled event never ran")
	}
}

func TestEngineNestedScheduling(t *testing.T) {
	e := NewEngine(1)
	depth := 0
	var recur func()
	recur = func() {
		depth++
		if depth < 100 {
			e.After(1, recur)
		}
	}
	e.After(1, recur)
	e.Run()
	if depth != 100 {
		t.Fatalf("depth = %d, want 100", depth)
	}
	if e.Now() != 100 {
		t.Fatalf("Now = %v, want 100", e.Now())
	}
}

func TestRunUntilStopsAtDeadline(t *testing.T) {
	e := NewEngine(1)
	var ran []Time
	for _, at := range []Time{10, 20, 30, 40} {
		at := at
		e.At(at, func() { ran = append(ran, at) })
	}
	e.RunUntil(25)
	if len(ran) != 2 {
		t.Fatalf("ran %v, want events at 10,20 only", ran)
	}
	if e.Now() != 25 {
		t.Fatalf("Now = %v, want 25", e.Now())
	}
	if e.Pending() != 2 {
		t.Fatalf("Pending = %d, want 2", e.Pending())
	}
	e.Run()
	if len(ran) != 4 {
		t.Fatalf("after Run, ran %v, want 4 events", ran)
	}
}

func TestRunForAdvancesRelative(t *testing.T) {
	e := NewEngine(1)
	e.RunFor(100)
	if e.Now() != 100 {
		t.Fatalf("Now = %v, want 100", e.Now())
	}
	e.RunFor(50)
	if e.Now() != 150 {
		t.Fatalf("Now = %v, want 150", e.Now())
	}
}

func TestNextEventTime(t *testing.T) {
	e := NewEngine(1)
	if _, ok := e.NextEventTime(); ok {
		t.Fatal("empty engine reported a next event")
	}
	e.At(42, func() {})
	at, ok := e.NextEventTime()
	if !ok || at != 42 {
		t.Fatalf("NextEventTime = %v,%v, want 42,true", at, ok)
	}
}

func TestEngineDeterministicRand(t *testing.T) {
	a := NewEngine(7).Rand()
	b := NewEngine(7).Rand()
	for i := 0; i < 100; i++ {
		if a.Int63() != b.Int63() {
			t.Fatal("same-seed engines diverged")
		}
	}
}

// Property: for any set of (time, id) pairs, execution order is sorted by
// time with FIFO tie-break on insertion order.
func TestEngineOrderingProperty(t *testing.T) {
	f := func(times []uint16) bool {
		if len(times) > 500 {
			times = times[:500]
		}
		e := NewEngine(1)
		type rec struct {
			at  Time
			idx int
		}
		var got []rec
		for i, raw := range times {
			at := Time(raw)
			i := i
			e.At(at, func() { got = append(got, rec{at, i}) })
		}
		e.Run()
		for i := 1; i < len(got); i++ {
			if got[i].at < got[i-1].at {
				return false
			}
			if got[i].at == got[i-1].at && got[i].idx < got[i-1].idx {
				return false
			}
		}
		return len(got) == len(times)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestTimerFiresOnce(t *testing.T) {
	e := NewEngine(1)
	fired := 0
	tm := NewTimer(e, func() { fired++ })
	tm.Reset(10)
	e.Run()
	if fired != 1 {
		t.Fatalf("fired %d times, want 1", fired)
	}
	if tm.Armed() {
		t.Fatal("timer still armed after firing")
	}
}

func TestTimerStopCancels(t *testing.T) {
	e := NewEngine(1)
	fired := 0
	tm := NewTimer(e, func() { fired++ })
	tm.Reset(10)
	e.At(5, func() { tm.Stop() })
	e.Run()
	if fired != 0 {
		t.Fatalf("fired %d times after Stop, want 0", fired)
	}
}

func TestTimerResetSupersedesEarlierArm(t *testing.T) {
	e := NewEngine(1)
	var firedAt []Time
	tm := NewTimer(e, func() { firedAt = append(firedAt, e.Now()) })
	tm.Reset(10)
	e.At(5, func() { tm.Reset(20) }) // should fire at 25, not 10
	e.Run()
	if len(firedAt) != 1 || firedAt[0] != 25 {
		t.Fatalf("firedAt = %v, want [25]", firedAt)
	}
}

func TestTimerRearmsAfterFire(t *testing.T) {
	e := NewEngine(1)
	fired := 0
	var tm *Timer
	tm = NewTimer(e, func() {
		fired++
		if fired < 3 {
			tm.Reset(10)
		}
	})
	tm.Reset(10)
	e.Run()
	if fired != 3 {
		t.Fatalf("fired %d, want 3", fired)
	}
	if e.Now() != 30 {
		t.Fatalf("Now = %v, want 30", e.Now())
	}
}

func TestTickerPeriodic(t *testing.T) {
	e := NewEngine(1)
	var ticks []Time
	tk := NewTicker(e, 10, 0, func() { ticks = append(ticks, e.Now()) })
	e.RunUntil(45)
	tk.Stop()
	e.RunUntil(100)
	want := []Time{10, 20, 30, 40}
	if len(ticks) != len(want) {
		t.Fatalf("ticks = %v, want %v", ticks, want)
	}
	for i := range want {
		if ticks[i] != want[i] {
			t.Fatalf("ticks = %v, want %v", ticks, want)
		}
	}
}

func TestTickerPhaseAlignment(t *testing.T) {
	// Two tickers created at different times with the same phase must tick
	// at the same instants — this models synchronized beacons (§4.2).
	e := NewEngine(1)
	var a, b []Time
	NewTicker(e, 10, 3, func() { a = append(a, e.Now()) })
	e.At(7, func() {
		NewTicker(e, 10, 3, func() { b = append(b, e.Now()) })
	})
	e.RunUntil(60)
	if len(a) == 0 || len(b) == 0 {
		t.Fatal("tickers did not tick")
	}
	for _, at := range append(append([]Time{}, a...), b...) {
		if at%10 != 3 {
			t.Fatalf("tick at %v not aligned to phase 3 mod 10", at)
		}
	}
}

func TestTickerStopInsideCallback(t *testing.T) {
	e := NewEngine(1)
	fired := 0
	var tk *Ticker
	tk = NewTicker(e, 10, 0, func() {
		fired++
		tk.Stop()
	})
	e.Run()
	if fired != 1 {
		t.Fatalf("fired %d, want 1", fired)
	}
}

// TestPendingExcludesStoppedTimers is the Stop()-vs-pending regression: a
// stopped timer leaves its scheduled firing in the heap as a tombstone, and
// Pending must not count it — before tombstone accounting, RunUntil exiting
// early with a stopped timer queued reported one pending event too many.
func TestPendingExcludesStoppedTimers(t *testing.T) {
	e := NewEngine(1)
	e.At(200, func() {})
	tm := NewTimer(e, func() { t.Fatal("stopped timer fired") })
	tm.Reset(100)
	tm.Stop()
	e.RunUntil(50) // exits early: both events are still queued
	if got := e.Pending(); got != 1 {
		t.Fatalf("Pending after Stop = %d, want 1", got)
	}
	e.Run()
	if got := e.Pending(); got != 0 {
		t.Fatalf("Pending after Run = %d, want 0", got)
	}
}

// TestPendingExcludesRearmedTimers: each Reset of an armed timer orphans
// the previous firing; only the latest counts.
func TestPendingExcludesRearmedTimers(t *testing.T) {
	e := NewEngine(1)
	fired := 0
	tm := NewTimer(e, func() { fired++ })
	tm.Reset(100)
	tm.Reset(300)
	tm.Reset(500)
	if got := e.Pending(); got != 1 {
		t.Fatalf("Pending after re-arms = %d, want 1", got)
	}
	e.Run()
	if fired != 1 {
		t.Fatalf("fired %d, want 1", fired)
	}
	if got := e.Pending(); got != 0 {
		t.Fatalf("Pending after Run = %d, want 0", got)
	}
}
