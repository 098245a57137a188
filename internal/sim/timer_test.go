package sim

import (
	"fmt"
	"math/rand"
	"testing"

	"onepipe/internal/race"
)

// timerLike is the surface the timer property test drives.
type timerLike interface {
	Reset(d Time)
	Stop()
	Armed() bool
}

// refTimer is the reference the engine-backed Timer must match: the
// closure-per-arm timer with a captured epoch that Timer replaced. Every
// Reset schedules a fresh closure through Engine.After; a superseded
// firing sees a stale epoch and runs as a counted no-op.
type refTimer struct {
	eng   *Engine
	fn    func()
	epoch uint64
	armed bool
}

func (t *refTimer) Reset(d Time) {
	if t.armed {
		t.eng.dead++
	}
	t.epoch++
	t.armed = true
	epoch := t.epoch
	t.eng.After(d, func() {
		if t.epoch != epoch {
			t.eng.dead--
			return
		}
		t.armed = false
		t.fn()
	})
}

func (t *refTimer) Stop() {
	if t.armed {
		t.eng.dead++
	}
	t.epoch++
	t.armed = false
}

func (t *refTimer) Armed() bool { return t.armed }

// timerScript runs a random schedule of Reset/Stop calls on four timers,
// interleaved with plain events, and returns a log of every firing, plain
// event, Armed state and Pending count. Delays are drawn from a tiny range
// so equal-time ties between timers and plain events are common. Actions
// also run inside timer and plain-event callbacks, so re-arming from a
// firing and superseding a peer's arm are both exercised.
func timerScript(seed int64, mk func(e *Engine, fn func()) timerLike) []string {
	e := NewEngine(1)
	rng := rand.New(rand.NewSource(seed))
	var log []string
	const timers = 4
	ts := make([]timerLike, timers)
	budget := 600
	var act func()
	act = func() {
		if budget == 0 {
			return
		}
		budget--
		k := rng.Intn(timers)
		d := Time(rng.Intn(4))
		switch rng.Intn(5) {
		case 0, 1:
			ts[k].Reset(d)
		case 2:
			ts[k].Stop()
		case 3:
			e.After(d, func() {
				log = append(log, fmt.Sprintf("%d plain", e.Now()))
				if rng.Intn(2) == 0 {
					act()
				}
			})
		case 4:
			e.At2(e.Now()+d, func(a, b any) {
				log = append(log, fmt.Sprintf("%d plain2", e.Now()))
			}, nil, nil)
		}
		log = append(log, fmt.Sprintf("armed %d %v pending %d", k, ts[k].Armed(), e.Pending()))
	}
	for i := range ts {
		i := i
		ts[i] = mk(e, func() {
			log = append(log, fmt.Sprintf("%d fire %d", e.Now(), i))
			for j := rng.Intn(3); j > 0; j-- {
				act()
			}
		})
	}
	for budget > 0 {
		act()
		e.RunFor(Time(rng.Intn(3)))
		log = append(log, fmt.Sprintf("%d pending %d", e.Now(), e.Pending()))
	}
	e.Run()
	return append(log, fmt.Sprintf("end %d executed %d pending %d", e.Now(), e.Executed, e.Pending()))
}

// TestTimerMatchesClosureEpochReference: for random Reset/Stop schedules,
// the capture-free Timer fires at exactly the same (time, order) as the
// closure-epoch reference, executes the same number of events, and
// reports the same Pending at every step.
func TestTimerMatchesClosureEpochReference(t *testing.T) {
	for seed := int64(1); seed <= 200; seed++ {
		got := timerScript(seed, func(e *Engine, fn func()) timerLike { return NewTimer(e, fn) })
		want := timerScript(seed, func(e *Engine, fn func()) timerLike { return &refTimer{eng: e, fn: fn} })
		if len(got) != len(want) {
			t.Fatalf("seed %d: log length %d, reference %d", seed, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("seed %d: entry %d = %q, reference %q", seed, i, got[i], want[i])
			}
		}
	}
}

// TestWallTimerDropsStaleFirings drives the wall-clock backend with a fake
// scheduler that holds every fire callback, then runs them out of order: a
// firing superseded by Stop or by a later Reset must never run fn, and a
// live firing runs fn exactly once.
func TestWallTimerDropsStaleFirings(t *testing.T) {
	var fires []func()
	var delays []Time
	after := func(d Time, fire func()) {
		delays = append(delays, d)
		fires = append(fires, fire)
	}
	fired := 0
	tm := NewWallTimer(after, func() { fired++ })
	if tm.Armed() {
		t.Fatal("new timer armed")
	}

	tm.Reset(10)
	tm.Stop()
	fires[0]()
	if fired != 0 || tm.Armed() {
		t.Fatalf("stopped firing ran fn (fired=%d armed=%v)", fired, tm.Armed())
	}

	tm.Reset(10)
	tm.Reset(20)
	fires[1]() // superseded by the second Reset
	if fired != 0 || !tm.Armed() {
		t.Fatalf("superseded firing ran fn (fired=%d armed=%v)", fired, tm.Armed())
	}
	fires[2]()
	if fired != 1 || tm.Armed() {
		t.Fatalf("live firing: fired=%d armed=%v, want 1 false", fired, tm.Armed())
	}
	fires[2]() // a duplicate delivery of a fired arm is stale too
	if fired != 1 {
		t.Fatalf("duplicate firing ran fn: fired=%d", fired)
	}

	tm.Reset(5)
	tm.Stop()
	tm.Reset(7)
	fires[3]() // stopped, then superseded by a fresh arm
	if fired != 1 || !tm.Armed() {
		t.Fatalf("stop-then-reset stale firing ran fn (fired=%d armed=%v)", fired, tm.Armed())
	}
	fires[4]()
	if fired != 2 {
		t.Fatalf("re-armed firing: fired=%d, want 2", fired)
	}
	if want := []Time{10, 10, 20, 5, 7}; fmt.Sprint(delays) != fmt.Sprint(want) {
		t.Fatalf("scheduled delays %v, want %v", delays, want)
	}
}

// TestTimerAllocs pins the capture-free arm: on the engine, Reset plus its
// firing, a Reset that supersedes an armed one, and a Ticker tick each
// allocate nothing once the heap has grown.
func TestTimerAllocs(t *testing.T) {
	if race.Enabled {
		t.Skip("race detector instrumentation allocates")
	}
	e := NewEngine(1)
	fired := 0
	tm := NewTimer(e, func() { fired++ })
	if avg := testing.AllocsPerRun(1000, func() {
		tm.Reset(1)
		e.Step()
	}); avg != 0 {
		t.Errorf("Timer Reset+fire: %v allocs/op, want 0", avg)
	}
	if avg := testing.AllocsPerRun(1000, func() {
		tm.Reset(2)
		tm.Reset(1) // supersedes: the first event becomes a tombstone
		e.Step()
		e.Step()
	}); avg != 0 {
		t.Errorf("Timer re-arm+fire: %v allocs/op, want 0", avg)
	}
	if fired != 2002 {
		t.Fatalf("fired %d, want 2002", fired)
	}

	e = NewEngine(1)
	ticks := 0
	NewTicker(e, 10, 0, func() { ticks++ })
	if avg := testing.AllocsPerRun(1000, func() { e.Step() }); avg != 0 {
		t.Errorf("Ticker tick: %v allocs/op, want 0", avg)
	}
	if ticks != 1001 {
		t.Fatalf("ticks %d, want 1001", ticks)
	}
}
