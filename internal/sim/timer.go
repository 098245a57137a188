package sim

// Timer is a cancelable, re-armable one-shot timer. It is the only timer
// type in the tree: retransmission timeouts, beacon intervals, dead-link
// detection and every service-layer retry, election and heartbeat timeout
// are Timers.
//
// A timer has one of two backends:
//
//   - Engine (NewTimer): each Reset schedules one capture-free At2 event
//     with a fresh sequence number, exactly as Engine.After would, so
//     arming allocates nothing and the event order is the same as with a
//     closure per arm. A firing superseded by Stop or a later Reset stays
//     in the heap as a tombstone: it is recognized by its sequence number,
//     runs as a no-op, and is counted in the engine's tombstone tally so
//     Pending reports live events only.
//   - Wall clock (NewWallTimer): each Reset hands a closure to a caller's
//     scheduler (time.AfterFunc plus the owner's loop or lock), which must
//     run it serialized with every Reset and Stop. A stale firing is
//     recognized by an arm counter and runs as a no-op.
type Timer struct {
	eng   *Engine
	after func(d Time, fire func())
	fn    func()
	// seq identifies the live arm: on the engine, the sequence number of
	// its event; on the wall clock, a count of arms.
	seq   uint64
	armed bool
}

// NewTimer creates a timer on the simulation clock that invokes fn when it
// fires. The timer starts disarmed.
func NewTimer(eng *Engine, fn func()) *Timer {
	return &Timer{eng: eng, fn: fn}
}

// NewWallTimer creates a timer whose firings are scheduled by after: it
// must call fire once, d nanoseconds later, serialized with the timer's
// Reset and Stop calls. The timer starts disarmed.
func NewWallTimer(after func(d Time, fire func()), fn func()) *Timer {
	return &Timer{after: after, fn: fn}
}

// Reset (re)arms the timer to fire d nanoseconds from now, replacing any
// previously scheduled firing.
func (t *Timer) Reset(d Time) {
	e := t.eng
	if e == nil {
		t.seq++
		t.armed = true
		seq := t.seq
		t.after(d, func() {
			if t.armed && t.seq == seq {
				t.armed = false
				t.fn()
			}
		})
		return
	}
	if t.armed {
		e.dead++
	}
	t.armed = true
	t.seq = e.schedule(e.Now()+d, event{fn2: fireTimer, a: t})
}

// fireTimer is the capture-free body of every engine-backed timer event.
func fireTimer(a, _ any) {
	t := a.(*Timer)
	if !t.armed || t.seq != t.eng.cur {
		t.eng.dead--
		return
	}
	t.armed = false
	t.fn()
}

// Stop disarms the timer. It is safe to call on a disarmed timer.
func (t *Timer) Stop() {
	if t.armed && t.eng != nil {
		t.eng.dead++
	}
	t.armed = false
}

// Armed reports whether the timer has a pending firing.
func (t *Timer) Armed() bool { return t.armed }

// Ticker invokes fn every interval until stopped. Used for periodic beacon
// generation and controller heartbeats.
type Ticker struct {
	timer    *Timer
	interval Time
	stopped  bool
}

// NewTicker starts a ticker with the given interval. The first tick fires
// one full interval from now. If phase is non-zero the first tick is aligned
// so ticks land at times ≡ phase (mod interval); the paper synchronizes
// beacon emission times across hosts this way (§4.2).
func NewTicker(eng *Engine, interval, phase Time, fn func()) *Ticker {
	tk := &Ticker{interval: interval}
	tk.timer = NewTimer(eng, func() {
		if tk.stopped {
			return
		}
		fn()
		if !tk.stopped {
			tk.timer.Reset(tk.interval)
		}
	})
	first := interval
	if phase > 0 {
		now := eng.Now()
		next := ((now-phase)/interval+1)*interval + phase
		if next <= now {
			next += interval
		}
		first = next - now
	}
	tk.timer.Reset(first)
	return tk
}

// Stop halts the ticker; no further ticks fire.
func (tk *Ticker) Stop() {
	tk.stopped = true
	tk.timer.Stop()
}
