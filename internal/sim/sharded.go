package sim

import (
	"fmt"
	"math"
	"sort"
	"sync"
)

// ShardedEngine runs N shard engines as one logical simulation, in the
// conservative parallel discrete-event style (Chandy–Misra–Bryant): a shard
// may execute ahead of its neighbors only as far as the minimum cross-shard
// link latency (the lookahead) guarantees no earlier event can still arrive.
//
// Two drive modes share the same shard topology, routing and cross-shard
// handoff API (Engine.At2On):
//
//   - Lockstep (parallel=false): a single goroutine executes the globally
//     earliest event across all shard heaps, with one shared clock and one
//     shared sequence counter. This is order-identical to a single engine by
//     construction — every schedule call happens in the same program order
//     and receives the same (time, seq) key — so chaos digests are
//     byte-identical at any shard count. It exercises the full sharded
//     routing (per-shard heaps, ownership split, handoff points) without
//     concurrency.
//
//   - Parallel (parallel=true): one goroutine per shard. The coordinator
//     repeatedly finds the global minimum next-event time T, sets the window
//     horizon H = T + lookahead, lets every shard execute its events with
//     timestamp < H concurrently, then at the barrier merges the cross-shard
//     outboxes sorted by (time, srcShard, srcSeq) and injects them into the
//     destination heaps. Runs are deterministic for a fixed shard count;
//     workloads whose randomness is partitioned per shard (no shared RNG
//     stream) additionally reproduce the lockstep order exactly when event
//     timestamps are distinct.
//
// Cross-shard event timestamps must be >= sender time + lookahead; the
// barrier panics on violations rather than corrupt causality.
type ShardedEngine struct {
	shards    []*Engine
	lookahead Time
	parallel  bool

	now  Time   // lockstep shared clock / parallel completed horizon
	gseq uint64 // lockstep shared sequence counter

	// outbox[src] buffers cross-shard events produced by shard src during
	// the current parallel window. Only shard src's goroutine appends during
	// a window; the coordinator drains at the barrier (the WaitGroup
	// provides the happens-before edge).
	outbox [][]xev
	merged []xev // barrier scratch

	work   []chan Time // per-shard window signal; nil until first parallel run
	wg     sync.WaitGroup
	closed bool
}

// xev is one buffered cross-shard event awaiting barrier injection.
type xev struct {
	at  Time
	seq uint64 // sender-local sequence: deterministic order among same-sender events
	src int32
	dst int32
	fn2 func(a, b any)
	a,
	b any
}

// NewShardedEngine builds n shard engines. Shard 0's random source is
// seeded exactly like NewEngine(seed), so code that draws from
// Shard(0).Rand() in construction order sees the same stream as a
// standalone engine; other shards derive their seeds from the root seed.
// lookahead is the minimum cross-shard event latency (see Engine.At2On);
// it must be positive when parallel is true and n > 1.
func NewShardedEngine(seed int64, n int, lookahead Time, parallel bool) *ShardedEngine {
	if n < 1 {
		n = 1
	}
	if parallel && n > 1 && lookahead <= 0 {
		panic("sim: parallel sharding requires a positive cross-shard lookahead")
	}
	s := &ShardedEngine{lookahead: lookahead, parallel: parallel}
	s.shards = make([]*Engine, n)
	s.outbox = make([][]xev, n)
	for i := 0; i < n; i++ {
		sh := NewEngine(shardSeed(seed, i))
		sh.sh = s
		sh.id = int32(i)
		if !parallel {
			sh.nowp = &s.now
			sh.gseq = &s.gseq
		}
		s.shards[i] = sh
	}
	return s
}

// shardSeed derives shard i's RNG seed from the root seed. Shard 0 keeps
// the root seed itself (single-shard compatibility).
func shardSeed(seed int64, i int) int64 {
	if i == 0 {
		return seed
	}
	return seed ^ int64(uint64(i)*0x9e3779b97f4a7c15)
}

// N returns the shard count.
func (s *ShardedEngine) N() int { return len(s.shards) }

// Shard returns shard i's engine.
func (s *ShardedEngine) Shard(i int) *Engine { return s.shards[i] }

// Parallel reports whether the group runs shards on concurrent goroutines
// (true) or in deterministic lockstep on the caller's goroutine (false).
func (s *ShardedEngine) Parallel() bool { return s.parallel }

// Lookahead returns the conservative window width.
func (s *ShardedEngine) Lookahead() Time { return s.lookahead }

// Now returns the completed virtual time of the group.
func (s *ShardedEngine) Now() Time { return s.now }

// ExecutedTotal sums the per-shard executed-event counters.
func (s *ShardedEngine) ExecutedTotal() uint64 {
	var n uint64
	for _, sh := range s.shards {
		n += sh.Executed
	}
	return n
}

// Pending sums the live queued events across shards and outboxes.
func (s *ShardedEngine) Pending() int {
	n := 0
	for _, sh := range s.shards {
		n += sh.Pending()
	}
	for _, ob := range s.outbox {
		n += len(ob)
	}
	return n
}

// RunUntil executes events with timestamps <= deadline on every shard, then
// advances the group clock to the deadline.
func (s *ShardedEngine) RunUntil(deadline Time) {
	if s.parallel && len(s.shards) > 1 {
		s.runParallelUntil(deadline)
		return
	}
	s.runLockstepUntil(deadline)
}

// RunFor advances the group by d nanoseconds of virtual time.
func (s *ShardedEngine) RunFor(d Time) { s.RunUntil(s.now + d) }

// runAllSentinel marks a Run-until-empty drive: the final clamp to the
// deadline is skipped so the group clock is left at the last executed
// event, matching Engine.Run.
const runAllSentinel = Time(math.MaxInt64)

// Run executes events until every shard's queue is empty. The group clock
// is left at the last executed event, like Engine.Run.
func (s *ShardedEngine) Run() { s.RunUntil(runAllSentinel) }

// runLockstepUntil picks the globally earliest (time, seq) head across the
// shard heaps and steps that shard, one event at a time. With the shared
// clock and sequence counter this is exactly the single-heap order.
func (s *ShardedEngine) runLockstepUntil(deadline Time) {
	for {
		best := -1
		var ba Time
		var bs uint64
		for i, sh := range s.shards {
			if len(sh.events) == 0 {
				continue
			}
			h := &sh.events[0]
			if best < 0 || h.at < ba || (h.at == ba && h.seq < bs) {
				best, ba, bs = i, h.at, h.seq
			}
		}
		if best < 0 || ba > deadline {
			break
		}
		s.shards[best].Step()
	}
	if deadline == runAllSentinel {
		return
	}
	if s.now < deadline {
		s.now = deadline
	}
	if s.parallel { // single-shard parallel group: keep shard clock in sync
		for _, sh := range s.shards {
			if sh.now < deadline {
				sh.now = deadline
			}
		}
	}
}

// runParallelUntil drives conservative windows until no shard has an event
// at or before the deadline.
func (s *ShardedEngine) runParallelUntil(deadline Time) {
	if s.work == nil {
		s.startWorkers()
	}
	if s.closed {
		panic("sim: ShardedEngine used after Close")
	}
	for {
		t, ok := s.nextEventTime()
		if !ok || t > deadline {
			break
		}
		horizon := t + s.lookahead
		exec := horizon
		if deadline != runAllSentinel && exec > deadline {
			exec = deadline + 1 // final window: run everything <= deadline
		}
		s.wg.Add(len(s.shards))
		for _, ch := range s.work {
			ch <- exec
		}
		s.wg.Wait()
		s.injectOutboxes(horizon)
	}
	if deadline == runAllSentinel {
		for _, sh := range s.shards {
			if sh.now > s.now {
				s.now = sh.now
			}
		}
		return
	}
	for _, sh := range s.shards {
		if sh.now < deadline {
			sh.now = deadline
		}
	}
	if s.now < deadline {
		s.now = deadline
	}
}

// nextEventTime returns the globally earliest queued timestamp.
func (s *ShardedEngine) nextEventTime() (Time, bool) {
	var t Time
	ok := false
	for _, sh := range s.shards {
		if len(sh.events) == 0 {
			continue
		}
		if !ok || sh.events[0].at < t {
			t, ok = sh.events[0].at, true
		}
	}
	return t, ok
}

// injectOutboxes merges the window's cross-shard events in deterministic
// (time, srcShard, srcSeq) order and pushes them onto the destination
// heaps. horizon is the (unclamped) window bound every shard executed up
// to; an event below it would have to run in a shard's past, which means
// the sender violated the declared lookahead.
func (s *ShardedEngine) injectOutboxes(horizon Time) {
	s.merged = s.merged[:0]
	for i := range s.outbox {
		s.merged = append(s.merged, s.outbox[i]...)
		for j := range s.outbox[i] {
			s.outbox[i][j] = xev{}
		}
		s.outbox[i] = s.outbox[i][:0]
	}
	if len(s.merged) == 0 {
		return
	}
	m := s.merged
	sort.Slice(m, func(i, j int) bool {
		if m[i].at != m[j].at {
			return m[i].at < m[j].at
		}
		if m[i].src != m[j].src {
			return m[i].src < m[j].src
		}
		return m[i].seq < m[j].seq
	})
	for i := range m {
		x := &m[i]
		if x.at < horizon {
			panic(fmt.Sprintf("sim: cross-shard event at %v violates lookahead window %v (shard %d -> %d): declared lookahead exceeds the actual minimum cross-shard latency", x.at, horizon, x.src, x.dst))
		}
		s.shards[x.dst].schedule(x.at, event{fn2: x.fn2, a: x.a, b: x.b})
		x.fn2, x.a, x.b = nil, nil, nil
	}
}

// startWorkers launches one goroutine per shard. Each executes windows on
// demand; channel send and WaitGroup completion provide the memory
// ordering between the coordinator and the shard goroutines.
func (s *ShardedEngine) startWorkers() {
	s.work = make([]chan Time, len(s.shards))
	for i := range s.shards {
		ch := make(chan Time, 1)
		s.work[i] = ch
		go func(sh *Engine, ch chan Time) {
			for h := range ch {
				sh.runWindow(h)
				s.wg.Done()
			}
		}(s.shards[i], ch)
	}
}

// Close stops the shard worker goroutines. The engine must not be run
// afterwards; call it when a parallel simulation is finished. Close is a
// no-op for lockstep groups and safe to call twice.
func (s *ShardedEngine) Close() {
	if s.closed || s.work == nil {
		s.closed = true
		return
	}
	s.closed = true
	for _, ch := range s.work {
		close(ch)
	}
}
