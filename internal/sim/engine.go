// Package sim implements a deterministic discrete-event simulation engine.
//
// All of the network simulation in this repository is driven by a single
// Engine: entities schedule closures at virtual timestamps, and the engine
// executes them in (time, sequence) order. Determinism is guaranteed by the
// FIFO tie-break on equal timestamps and by the seeded random source, so a
// simulation run is exactly reproducible from its seed.
//
// The event queue is a monomorphic 4-ary min-heap over a concrete event
// struct: no container/heap, no interface boxing, no allocation per
// scheduled event once the backing array has grown to the working set. The
// (time, seq) tie-break gives every event a unique total-order key, so the
// pop order — and therefore every simulation trace — is byte-identical to
// the previous binary-heap implementation.
package sim

import (
	"fmt"
	"math/rand"
)

// Time is a virtual timestamp in nanoseconds since the start of the
// simulation. It is the same unit as the 48-bit message timestamps in the
// 1Pipe packet header.
type Time int64

// Common durations, in virtual nanoseconds.
const (
	Nanosecond  Time = 1
	Microsecond Time = 1000 * Nanosecond
	Millisecond Time = 1000 * Microsecond
	Second      Time = 1000 * Millisecond
)

// String formats the time with microsecond granularity for logs.
func (t Time) String() string {
	return fmt.Sprintf("%.3fus", float64(t)/float64(Microsecond))
}

// Seconds converts a virtual duration to floating-point seconds.
func (t Time) Seconds() float64 { return float64(t) / float64(Second) }

// Micros converts a virtual duration to floating-point microseconds.
func (t Time) Micros() float64 { return float64(t) / float64(Microsecond) }

// event is one queue entry. Exactly one of fn / fn2 is set: fn2 events
// carry their two arguments inline, so hot callers (netsim's per-packet
// transmit/receive hops) schedule without allocating a capturing closure —
// pointer-shaped arguments box into `any` for free.
type event struct {
	at   Time
	seq  uint64 // tie-break: FIFO among events with equal time
	fn   func()
	fn2  func(a, b any)
	a, b any
}

// Engine is a discrete-event simulation loop.
//
// The zero value is not usable; construct with NewEngine.
type Engine struct {
	now    Time
	seq    uint64
	events []event // 4-ary min-heap ordered by (at, seq)
	rng    *rand.Rand
	// Executed counts events run so far; useful as a progress and
	// runaway-loop diagnostic.
	Executed uint64

	// cur is the sequence number of the event executing; a Timer firing
	// compares it with its live arm's to recognize a superseded event.
	cur uint64

	// dead counts tombstones: events still in the heap whose effect was
	// cancelled (a stopped or re-armed Timer). They execute as no-ops, so
	// Pending subtracts them to report the number of *live* events.
	dead int

	// Sharded operation (see ShardedEngine). A standalone engine leaves all
	// of these zero and pays only a nil check on the hot paths.
	//
	// nowp, when non-nil, is a clock shared by every shard of a lockstep
	// group: the group executes one global event at a time, so all shards
	// observe the same virtual time, exactly as a single engine would.
	// gseq, when non-nil, is the group's shared sequence counter: ties on
	// equal timestamps break in global scheduling order across shards,
	// which makes the lockstep group order-identical to one big heap.
	nowp *Time
	gseq *uint64
	sh   *ShardedEngine
	id   int32
}

// NewEngine returns an engine at time zero with a deterministic random
// source derived from seed.
func NewEngine(seed int64) *Engine {
	return &Engine{rng: rand.New(rand.NewSource(seed))}
}

// Now returns the current virtual time.
func (e *Engine) Now() Time {
	if e.nowp != nil {
		return *e.nowp
	}
	return e.now
}

// setNow advances the engine clock (or the lockstep group clock).
func (e *Engine) setNow(t Time) {
	if e.nowp != nil {
		*e.nowp = t
	} else {
		e.now = t
	}
}

// Shard returns the engine's shard index within its ShardedEngine group
// (0 for a standalone engine).
func (e *Engine) Shard() int32 { return e.id }

// Rand returns the engine's deterministic random source. All randomness in a
// simulation (loss, jitter, workload) must come from here to keep runs
// reproducible.
func (e *Engine) Rand() *rand.Rand { return e.rng }

// push inserts ev, sifting up through 4-ary parents. The held element is
// written once at its final slot instead of swapping pairwise.
func (e *Engine) push(ev event) {
	e.events = append(e.events, ev)
	h := e.events
	i := len(h) - 1
	for i > 0 {
		p := (i - 1) >> 2
		if h[p].at < ev.at || (h[p].at == ev.at && h[p].seq < ev.seq) {
			break
		}
		h[i] = h[p]
		i = p
	}
	h[i] = ev
}

// pop removes and returns the minimum event. The vacated tail slot is
// zeroed so the backing array does not retain closures or boxed arguments.
func (e *Engine) pop() event {
	h := e.events
	top := h[0]
	n := len(h) - 1
	last := h[n]
	h[n] = event{}
	h = h[:n]
	e.events = h
	if n > 0 {
		i := 0
		for {
			c := i<<2 + 1
			if c >= n {
				break
			}
			m := c
			end := c + 4
			if end > n {
				end = n
			}
			for j := c + 1; j < end; j++ {
				if h[j].at < h[m].at || (h[j].at == h[m].at && h[j].seq < h[m].seq) {
					m = j
				}
			}
			if last.at < h[m].at || (last.at == h[m].at && last.seq < h[m].seq) {
				break
			}
			h[i] = h[m]
			i = m
		}
		h[i] = last
	}
	return top
}

// schedule clamps t to the present, assigns the FIFO sequence number and
// enqueues. It returns the assigned sequence number.
func (e *Engine) schedule(t Time, ev event) uint64 {
	if now := e.Now(); t < now {
		t = now
	}
	if e.gseq != nil {
		*e.gseq++
		ev.seq = *e.gseq
	} else {
		e.seq++
		ev.seq = e.seq
	}
	ev.at = t
	e.push(ev)
	return ev.seq
}

// At schedules fn to run at absolute virtual time t. Scheduling in the past
// is clamped to the current time (the event runs next, after already-pending
// events at the current time).
func (e *Engine) At(t Time, fn func()) {
	e.schedule(t, event{fn: fn})
}

// After schedules fn to run d nanoseconds from now.
func (e *Engine) After(d Time, fn func()) { e.At(e.Now()+d, fn) }

// At2 schedules fn(a, b) at absolute virtual time t. Unlike At, no closure
// is needed: callers keep one capture-free fn per call site and pass the
// state as arguments, which makes scheduling allocation-free when a and b
// are pointer-shaped (pointers, funcs, channels, maps).
func (e *Engine) At2(t Time, fn func(a, b any), a, b any) {
	e.schedule(t, event{fn2: fn, a: a, b: b})
}

// After2 schedules fn(a, b) to run d nanoseconds from now.
func (e *Engine) After2(d Time, fn func(a, b any), a, b any) {
	e.At2(e.Now()+d, fn, a, b)
}

// At2On schedules fn(a, b) at absolute time t on dst's event queue. It is
// the cross-shard handoff primitive: e must be the engine currently
// executing (the caller's shard), dst the shard that owns the target state.
//
//   - Standalone or same-shard: identical to dst.At2.
//   - Lockstep group: a direct push onto dst's heap with the group's shared
//     sequence number — order-identical to a single global heap.
//   - Parallel group: the event is buffered in the sender's outbox and
//     injected at the next window barrier, ordered by (time, srcShard, seq).
//     t must be at least one lookahead ahead of the sender's clock; the
//     barrier panics on violations instead of corrupting causality.
func (e *Engine) At2On(dst *Engine, t Time, fn func(a, b any), a, b any) {
	if dst == e || e.sh == nil || !e.sh.parallel {
		dst.schedule(t, event{fn2: fn, a: a, b: b})
		return
	}
	e.seq++
	ob := &e.sh.outbox[e.id]
	*ob = append(*ob, xev{dst: dst.id, at: t, seq: e.seq, src: e.id, fn2: fn, a: a, b: b})
}

// Step executes the next pending event, advancing virtual time. It reports
// whether an event was executed.
func (e *Engine) Step() bool {
	if len(e.events) == 0 {
		return false
	}
	ev := e.pop()
	e.setNow(ev.at)
	e.cur = ev.seq
	e.Executed++
	if ev.fn != nil {
		ev.fn()
	} else {
		ev.fn2(ev.a, ev.b)
	}
	return true
}

// Run executes events until the queue is empty. On a shard of a
// ShardedEngine group, the call drives the whole group — pre-sharding
// call sites that hold one engine keep working when the simulation is
// sharded underneath them.
func (e *Engine) Run() {
	if e.sh != nil {
		e.sh.Run()
		return
	}
	for e.Step() {
	}
}

// RunUntil executes events with timestamps <= deadline, then sets the
// current time to the deadline. Events scheduled beyond the deadline remain
// queued. On a shard of a ShardedEngine group, the call drives the whole
// group (see Run); it must come from the coordinating goroutine, never
// from inside an event.
func (e *Engine) RunUntil(deadline Time) {
	if e.sh != nil {
		e.sh.RunUntil(deadline)
		return
	}
	for len(e.events) > 0 && e.events[0].at <= deadline {
		e.Step()
	}
	if e.Now() < deadline {
		e.setNow(deadline)
	}
}

// RunFor advances the simulation by d nanoseconds of virtual time.
func (e *Engine) RunFor(d Time) { e.RunUntil(e.Now() + d) }

// runWindow executes every event with timestamp strictly below horizon.
// It is the per-shard body of one conservative-lookahead window: events at
// or beyond the horizon may still be preempted by a cross-shard arrival, so
// they stay queued. The shard clock is left at the last executed event.
func (e *Engine) runWindow(horizon Time) {
	for len(e.events) > 0 && e.events[0].at < horizon {
		e.Step()
	}
}

// Pending reports the number of queued *live* events: cancelled timer
// firings still sitting in the heap as tombstones are not counted, so the
// value is accurate after RunUntil exits early with stopped timers pending.
func (e *Engine) Pending() int { return len(e.events) - e.dead }

// NextEventTime returns the timestamp of the earliest queued event and
// whether one exists.
func (e *Engine) NextEventTime() (Time, bool) {
	if len(e.events) == 0 {
		return 0, false
	}
	return e.events[0].at, true
}
