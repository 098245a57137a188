package sim

import (
	"fmt"
	"strings"
	"testing"
)

// shardEntry is one recorded workload execution: which logical host ran at
// which virtual time, with a per-host step counter.
type shardEntry struct {
	at   Time
	host int
	step int
}

// crossWorkload drives a deterministic multi-host workload over the given
// shard group: H logical hosts are mapped host -> shard (host % N), each
// runs a self-rescheduling event chain, and every third step hands a
// cross-shard event to the next host with at least `lookahead` of delay.
// Event times are arranged so every host executes at times ≡ host (mod H),
// which keeps timestamps distinct across hosts — the same workload then
// produces the same per-host trace under lockstep and parallel drive.
//
// Returns one trace per host; each host's trace is only ever appended by
// the shard goroutine that owns it.
func crossWorkload(s *ShardedEngine, hosts int, lookahead, until Time) [][]shardEntry {
	traces := make([][]shardEntry, hosts)
	H := Time(hosts)
	chain := make([]func(k int), hosts)
	for h := 0; h < hosts; h++ {
		h := h
		eng := s.Shard(h % s.N())
		chain[h] = func(k int) {
			now := eng.Now()
			traces[h] = append(traces[h], shardEntry{at: now, host: h, step: k})
			if k > 400 {
				return
			}
			// Local successor stays on the host's residue class.
			eng.After(H*Time(1+(k*7)%97), func() { chain[h](k + 1) })
			if k%3 == 0 {
				// Cross-shard handoff to the next host, aligned to its
				// residue class and spread by sender identity and step so
				// same-target collisions stay rare.
				dst := (h + 1) % hosts
				deng := s.Shard(dst % s.N())
				base := now + lookahead + H*Time(1+h+3*(k%50))
				t := base + ((Time(dst)-base)%H+H)%H
				eng.At2On(deng, t, func(a, b any) {
					hh := a.(*int)
					kk := b.(*int)
					traces[*hh] = append(traces[*hh], shardEntry{at: deng.Now(), host: *hh, step: -*kk})
				}, &dst, &k)
			}
		}
	}
	for h := 0; h < hosts; h++ {
		hh := h
		s.Shard(h%s.N()).At(Time(h+1)*1, func() { chain[hh](1) })
	}
	s.RunUntil(until)
	return traces
}

func tracesEqual(t *testing.T, want, got [][]shardEntry, label string) {
	t.Helper()
	for h := range want {
		if len(want[h]) != len(got[h]) {
			t.Fatalf("%s: host %d trace length %d, want %d", label, h, len(got[h]), len(want[h]))
		}
		for i := range want[h] {
			if want[h][i] != got[h][i] {
				t.Fatalf("%s: host %d entry %d = %+v, want %+v", label, h, i, got[h][i], want[h][i])
			}
		}
	}
}

func traceTotal(tr [][]shardEntry) int {
	n := 0
	for _, h := range tr {
		n += len(h)
	}
	return n
}

// TestLockstepMatchesSingleShard pins the core determinism claim of the
// lockstep drive: with the shared clock and shared sequence counter, a
// 4-shard group executes the exact event order of a 1-shard group.
func TestLockstepMatchesSingleShard(t *testing.T) {
	const hosts, lookahead = 8, 64
	until := 200 * Microsecond
	ref := crossWorkload(NewShardedEngine(7, 1, lookahead, false), hosts, lookahead, until)
	if traceTotal(ref) == 0 {
		t.Fatal("reference workload executed no events")
	}
	for _, n := range []int{2, 4} {
		got := crossWorkload(NewShardedEngine(7, n, lookahead, false), hosts, lookahead, until)
		tracesEqual(t, ref, got, fmt.Sprintf("lockstep shards=%d", n))
	}
}

// TestParallelMatchesLockstep runs the same workload with concurrent shard
// goroutines and conservative windows: per-host traces must match the
// single-shard reference (timestamps are distinct across hosts, so the
// merge rule has no ties to resolve differently).
func TestParallelMatchesLockstep(t *testing.T) {
	const hosts, lookahead = 8, 64
	until := 200 * Microsecond
	ref := crossWorkload(NewShardedEngine(7, 1, lookahead, false), hosts, lookahead, until)
	for _, n := range []int{2, 4} {
		s := NewShardedEngine(7, n, lookahead, true)
		got := crossWorkload(s, hosts, lookahead, until)
		s.Close()
		tracesEqual(t, ref, got, fmt.Sprintf("parallel shards=%d", n))
	}
}

// TestParallelDeterministicAcrossRuns replays an identical parallel run and
// requires byte-identical traces: window barriers plus the
// (time, srcShard, seq) merge rule leave no room for goroutine scheduling
// to reorder anything.
func TestParallelDeterministicAcrossRuns(t *testing.T) {
	const hosts, lookahead = 6, 48
	run := func() [][]shardEntry {
		s := NewShardedEngine(99, 3, lookahead, true)
		defer s.Close()
		return crossWorkload(s, hosts, lookahead, 150*Microsecond)
	}
	a, b := run(), run()
	tracesEqual(t, a, b, "replay")
}

// TestShardedLookaheadViolationPanics: handing a cross-shard event closer
// than the declared lookahead must fail loudly at the window barrier, not
// silently execute in a neighbor's past.
func TestShardedLookaheadViolationPanics(t *testing.T) {
	s := NewShardedEngine(1, 2, 1000, true)
	defer s.Close()
	e0, e1 := s.Shard(0), s.Shard(1)
	e0.At(10, func() {
		e0.At2On(e1, e0.Now()+1, func(a, b any) {}, nil, nil)
	})
	e1.At(10, func() {})
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("expected lookahead-violation panic")
		}
		if !strings.Contains(fmt.Sprint(r), "lookahead") {
			t.Fatalf("unexpected panic: %v", r)
		}
	}()
	s.RunUntil(5000)
}

// TestShardedPending: Pending aggregates live events across shards and
// does not count a stopped timer's tombstone.
func TestShardedPending(t *testing.T) {
	s := NewShardedEngine(3, 4, 10, false)
	for i := 0; i < s.N(); i++ {
		s.Shard(i).At(Time(1000+i), func() {})
	}
	tm := NewTimer(s.Shard(1), func() { t.Fatal("stopped timer fired") })
	tm.Reset(2000)
	tm.Stop() // tombstone: must not count as pending
	if got := s.Pending(); got != 4 {
		t.Fatalf("Pending = %d, want 4", got)
	}
	s.RunUntil(5000)
	if got := s.Pending(); got != 0 {
		t.Fatalf("Pending after run = %d, want 0", got)
	}
	if got := s.ExecutedTotal(); got != 5 { // the tombstone executes as a no-op
		t.Fatalf("ExecutedTotal = %d, want 5", got)
	}
}

// TestShardedEngineRace is the -race exercise target for CI: a parallel run
// with steady cross-shard traffic on every window.
func TestShardedEngineRace(t *testing.T) {
	s := NewShardedEngine(42, 4, 64, true)
	defer s.Close()
	tr := crossWorkload(s, 8, 64, 300*Microsecond)
	if traceTotal(tr) == 0 {
		t.Fatal("no events executed")
	}
}

// BenchmarkShardedEngineParallel measures aggregate sharded throughput: 8
// shards, each with a 4096-deep self-rescheduling heap, one cross-shard
// handoff every 16 events. 1/ns-per-op × GOMAXPROCS-dependent speedup is
// the engine_events_per_sec_parallel figure in BENCH_core.json.
func BenchmarkShardedEngineParallel(b *testing.B) {
	const (
		shards    = 8
		depth     = 4096
		lookahead = Time(1000)
	)
	s := NewShardedEngine(1, shards, lookahead, true)
	defer s.Close()
	// Each shard's chain closure is owned by that shard: its counter, rng
	// and heap are only ever touched by the owning goroutine. A cross-shard
	// handoff schedules the *destination's* chain on the destination engine,
	// never the sender's state.
	steps := make([]func(a, b any), shards)
	for i := 0; i < shards; i++ {
		i := i
		e := s.Shard(i)
		next := (i + 1) % shards
		var k int
		steps[i] = func(a, b any) {
			k++
			if k%16 == 0 {
				e.At2On(s.Shard(next), e.Now()+lookahead+Time(e.Rand().Intn(1000)), steps[next], a, b)
				return
			}
			e.After2(Time(e.Rand().Intn(1000))+1, steps[i], a, b)
		}
	}
	for i := 0; i < shards; i++ {
		e := s.Shard(i)
		for j := 0; j < depth; j++ {
			e.After2(Time(e.Rand().Intn(1000))+1, steps[i], nil, nil)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for s.ExecutedTotal() < uint64(b.N) {
		s.RunFor(50 * Microsecond)
	}
}
