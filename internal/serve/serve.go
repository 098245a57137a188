// Package serve is the repository's serving tier: a closed-loop
// client/service subsystem that drives sharded replicated services —
// a linearizable key-value store (get/put/scan), a tpcc-style transaction
// mix, and two state-machine-replication modes — entirely through the
// root Fabric API (Send with Reliable/Batched/Conflicts options).
//
// The client pool scales to ~10^6 simulated sessions: each session is a
// closed-loop client (at most one outstanding request) whose think times
// come from a per-session SplitMix64 stream (8 bytes of PRNG state, not a
// 5 KB *rand.Rand), so a million connected clients cost tens of megabytes.
// Latency is measured client-observed: the clock starts when the session
// decides to issue (before any backpressure retry or batching delay) and
// stops when the last reply part arrives, reported as p50/p99/p999 through
// internal/stats streaming histograms.
//
// Every timer the tier arms goes on the root engine, the same discipline
// the kvstore harness and the experiment source pump use, so
// lockstep-sharded runs (Config.Shards) reproduce the identical schedule —
// request/response logs are byte-identical at any shard count.
package serve

import (
	"errors"
	"fmt"
	"math/rand"
	"sort"

	"onepipe"
	"onepipe/internal/sim"
	"onepipe/internal/stats"
	"onepipe/internal/workload"
)

// Service selects what the tier serves.
type Service uint8

const (
	// KV is the sharded linearizable key-value service: point get/put and
	// short scans, one scattering per request (best-effort for read-only,
	// reliable otherwise), owners applying in timestamp order.
	KV Service = iota
	// Txn is the tpcc-style transaction service: a fixed mix of
	// new-order / payment / order-status / delivery / stock-level shapes
	// over the same sharded ownership.
	Txn
	// SMRFabric replicates one state machine on R replicas with NO leader:
	// each command is a reliable scattering to all replicas and the
	// fabric's delivery order IS the log (§2.2.2).
	SMRFabric
	// SMRRaft is the baseline: the same state machine replicated by the
	// in-tree Raft core, whose RPCs ride best-effort fabric scatterings;
	// the leader sequences, commits on quorum, and replies.
	SMRRaft
)

func (s Service) String() string {
	switch s {
	case KV:
		return "kv"
	case Txn:
		return "txn"
	case SMRFabric:
		return "smr-fabric"
	case SMRRaft:
		return "smr-raft"
	}
	return "?"
}

// Config parameterizes a tier deployment.
type Config struct {
	Service Service
	// Clients is the number of closed-loop sessions across all frontends.
	Clients int
	// Servers is the shard-owner count for KV/Txn: processes [0,Servers)
	// own keys by key%Servers. When Servers equals the process count every
	// process is both owner and frontend (the kvstore topology); when
	// smaller, the remaining processes are pure frontends and elastic
	// joins add frontend capacity without resharding.
	Servers int
	// Replicas is the replication degree for the SMR services; processes
	// [0,Replicas) are replicas, the rest are frontends.
	Replicas int
	// Keys is the keyspace size; ZipfTheta skews key popularity (0 =
	// uniform).
	Keys      uint64
	ZipfTheta float64
	// OpsPerReq, WriteFrac, ScanFrac, ScanLen shape KV requests: each
	// request is OpsPerReq point ops (write w.p. WriteFrac), except that
	// with probability ScanFrac it is instead one scan of ScanLen
	// consecutive keys.
	OpsPerReq int
	WriteFrac float64
	ScanFrac  float64
	ScanLen   int
	// ThinkTime is the mean exponential think time between a response and
	// the session's next request; StartSpread staggers session first
	// requests over that span (default ThinkTime).
	ThinkTime   sim.Time
	StartSpread sim.Time
	// ServerOpCost models server CPU per KV operation (FIFO station).
	ServerOpCost sim.Time
	// BatchWindow, when nonzero, sends every request Batched(w);
	// Conflicts tags write requests with their first write key for
	// conflict-aware fabrics.
	BatchWindow sim.Time
	Conflicts   bool
	// RetryTimeout re-issues a request whose replies went missing (lost
	// best-effort reads under impairment/faults); 0 disables.
	RetryTimeout sim.Time
	// MaxRequests caps each session (0 = unbounded); used by tests that
	// run a fixed op list to completion.
	MaxRequests int
	// Txns overrides the per-session request generator (tests); ops still
	// bucket and route exactly like generated ones.
	Txns func(sess int) workload.TxnSource
	// RecordLog keeps a textual request/response log (determinism tests).
	RecordLog bool
	Seed      int64
}

// DefaultConfig returns the reference serving workload: a million-key
// Zipf-skewed KV with 2-op requests, 30% writes, a dash of scans.
func DefaultConfig() Config {
	return Config{
		Service:      KV,
		Keys:         1 << 20,
		ZipfTheta:    0.99,
		OpsPerReq:    2,
		WriteFrac:    0.3,
		ScanFrac:     0.05,
		ScanLen:      8,
		ThinkTime:    1 * sim.Millisecond,
		ServerOpCost: 100 * sim.Nanosecond,
		Seed:         1,
	}
}

// Result is one measurement window's client-observed outcome.
type Result struct {
	// Delivered counts requests completed inside the window; Issued counts
	// requests entering the fabric (including retries).
	Delivered int
	Issued    int
	// Latency percentiles and mean, microseconds, client-observed.
	P50, P99, P999, Mean float64
	// Window is the measured span.
	Window sim.Time
}

// ReqPerSec returns delivered requests per simulated second.
func (r Result) ReqPerSec() float64 {
	if r.Window == 0 {
		return 0
	}
	return float64(r.Delivered) / r.Window.Seconds()
}

// session is one closed-loop client: at most one outstanding request.
type session struct {
	fe      int32  // frontend proc hosting the session
	seq     uint32 // current request sequence
	pending int32  // outstanding reply parts
	stopped bool   // drained frontends stop reissuing
	rng     uint64 // SplitMix64 state
	start   sim.Time
	done    int
	retry   *sim.Timer // loss-retry timer; nil without RetryTimeout
	gen     workload.TxnSource
	ops     []workload.Op // current request
}

// reqMsg is one owner's share of a request scattering.
type reqMsg struct {
	Sess int32
	FE   int32
	Seq  uint32
	Ops  []workload.Op
}

// repMsg completes one owner's share back at the frontend.
type repMsg struct {
	Sess int32
	Seq  uint32
	N    uint16
}

// shard is one owner process's state: the data it owns plus a modeled CPU.
type shard struct {
	data    map[uint64]uint64 // key -> write version
	lastSeq map[int32]uint32  // per-session dedup cursor
	cpuBusy sim.Time
	applied uint64 // ops applied (reads + writes)
}

// Tier is a deployed serving tier over a running fabric.
type Tier struct {
	Cfg Config

	cl        *onepipe.Cluster
	eng       *sim.Engine
	sessions  []*session
	frontends []int
	shards    map[int]*shard // owner proc -> state
	zipf      *workload.Zipf
	smr       *smrState

	measuring bool
	hist      stats.Histogram
	delivered int
	issued    int
	winStart  sim.Time
	log       []byte
	started   bool
}

// New deploys the tier over an existing cluster. Sessions are created but
// idle until Start.
func New(cl *onepipe.Cluster, cfg Config) *Tier {
	if cfg.StartSpread == 0 {
		cfg.StartSpread = cfg.ThinkTime
	}
	if cfg.ScanLen <= 0 {
		cfg.ScanLen = 8
	}
	if cfg.OpsPerReq <= 0 {
		cfg.OpsPerReq = 1
	}
	n := cl.NumProcesses()
	t := &Tier{Cfg: cfg, cl: cl, eng: cl.Network().Eng, shards: make(map[int]*shard)}
	if cfg.ZipfTheta > 0 {
		// The shared table is draw-free after construction (sessions feed
		// it their own uniforms via FromU); the throwaway rand.Rand only
		// satisfies the constructor.
		t.zipf = workload.NewZipf(rand.New(rand.NewSource(1)), cfg.Keys, cfg.ZipfTheta)
	}
	switch cfg.Service {
	case KV, Txn:
		if cfg.Servers <= 0 || cfg.Servers > n {
			cfg.Servers = n
			t.Cfg.Servers = n
		}
		for p := 0; p < cfg.Servers; p++ {
			t.shards[p] = newShard()
		}
		if cfg.Servers < n {
			for p := cfg.Servers; p < n; p++ {
				t.frontends = append(t.frontends, p)
			}
		} else {
			for p := 0; p < n; p++ {
				t.frontends = append(t.frontends, p)
			}
		}
	case SMRFabric, SMRRaft:
		if cfg.Replicas <= 0 {
			cfg.Replicas = 3
			t.Cfg.Replicas = 3
		}
		for p := cfg.Replicas; p < n; p++ {
			t.frontends = append(t.frontends, p)
		}
		t.initSMR()
	}
	for p := 0; p < n; p++ {
		t.attach(p)
	}
	t.addSessions(t.frontends, cfg.Clients, 1)
	return t
}

func newShard() *shard {
	return &shard{data: make(map[uint64]uint64), lastSeq: make(map[int32]uint32)}
}

// attach registers the tier's dispatch on one process handle.
func (t *Tier) attach(p int) {
	proc := t.cl.Process(p)
	pi := p
	proc.OnDeliver(func(d onepipe.Delivery) { t.dispatch(pi, d) })
}

// addSessions spreads count new sessions round-robin over the given
// frontend procs, staggering their first requests over StartSpread
// starting at base.
func (t *Tier) addSessions(fes []int, count int, base sim.Time) {
	if count == 0 || len(fes) == 0 {
		return
	}
	first := len(t.sessions)
	for i := 0; i < count; i++ {
		id := first + i
		st := uint64(t.Cfg.Seed)*0x9e3779b97f4a7c15 + uint64(id)*0xd1b54a32d192ed03 + 0x2545f4914f6cdd1d
		s := &session{fe: int32(fes[i%len(fes)]), rng: st}
		if t.Cfg.Txns != nil {
			s.gen = t.Cfg.Txns(id)
		}
		t.sessions = append(t.sessions, s)
	}
	if t.started {
		t.startRange(first, len(t.sessions), base)
	}
}

// Start arms every session's first request.
func (t *Tier) Start() {
	if t.started {
		return
	}
	t.started = true
	t.startRange(0, len(t.sessions), 1)
}

func (t *Tier) startRange(lo, hi int, base sim.Time) {
	spread := t.Cfg.StartSpread
	n := hi - lo
	for i := lo; i < hi; i++ {
		id := i
		at := base + sim.Time(int64(i-lo)*int64(spread)/int64(n))
		t.eng.At(at, func() { t.issue(id) })
	}
}

// issue builds and sends session id's next request; the client-observed
// clock starts here, before any backpressure or batching delay.
func (t *Tier) issue(id int) {
	s := t.sessions[id]
	if s.stopped || (t.Cfg.MaxRequests > 0 && s.done >= t.Cfg.MaxRequests) {
		return
	}
	s.seq++
	s.start = t.eng.Now()
	s.ops = t.nextOps(s)
	t.send(id)
}

// send transmits the current request (also the retry path: same seq, same
// ops, same start time — latency includes every retry).
func (t *Tier) send(id int) {
	s := t.sessions[id]
	if t.smr != nil {
		t.smrSend(id)
		return
	}
	buckets := t.bucketOps(s.ops)
	msgs := make([]onepipe.Message, 0, len(buckets))
	write := false
	var wkey uint64
	for _, b := range buckets {
		size := 16 * len(b.ops)
		for _, op := range b.ops {
			size += op.Value
			if op.Kind == workload.OpWrite && !write {
				write = true
				wkey = op.Key
			}
		}
		msgs = append(msgs, onepipe.Message{
			Dst:  onepipe.ProcID(b.owner),
			Data: &reqMsg{Sess: int32(id), FE: s.fe, Seq: s.seq, Ops: b.ops},
			Size: size,
		})
	}
	s.pending = int32(len(msgs))
	opts := t.sendOpts(write, wkey)
	if err := t.cl.Process(int(s.fe)).Send(msgs, opts...); err != nil {
		// Backpressure / full buffer: hold the request and retry shortly;
		// the wait stays inside the client-observed latency. A closed
		// frontend (crashed or drained host) ends the session instead.
		if errors.Is(err, onepipe.ErrClosed) {
			s.stopped = true
			return
		}
		t.eng.After(2*sim.Microsecond, func() { t.send(id) })
		return
	}
	t.issued++
	t.armRetry(id)
}

// sendOpts maps the request class onto Fabric send options.
func (t *Tier) sendOpts(write bool, wkey uint64) []onepipe.SendOption {
	var opts []onepipe.SendOption
	if write {
		opts = append(opts, onepipe.Reliable())
	}
	if t.Cfg.BatchWindow > 0 {
		opts = append(opts, onepipe.Batched(t.Cfg.BatchWindow))
	}
	if t.Cfg.Conflicts && write {
		opts = append(opts, onepipe.Conflicts(uint32(wkey)|1))
	}
	return opts
}

// armRetry guards against lost best-effort parts (loss profiles, faults).
func (t *Tier) armRetry(id int) {
	if t.Cfg.RetryTimeout <= 0 {
		return
	}
	s := t.sessions[id]
	if s.retry == nil {
		s.retry = sim.NewTimer(t.eng, func() {
			if s.pending > 0 {
				t.send(id) // same seq: owners dedup, stale replies are dropped
			}
		})
	}
	s.retry.Reset(t.Cfg.RetryTimeout)
}

// opBucket groups ops by owner in first-seen order (deterministic emission).
type opBucket struct {
	owner int
	ops   []workload.Op
}

func (t *Tier) owner(key uint64) int { return int(key % uint64(t.Cfg.Servers)) }

func (t *Tier) bucketOps(ops []workload.Op) []opBucket {
	var buckets []opBucket
	for _, op := range ops {
		o := t.owner(op.Key)
		j := -1
		for i := range buckets {
			if buckets[i].owner == o {
				j = i
				break
			}
		}
		if j < 0 {
			j = len(buckets)
			buckets = append(buckets, opBucket{owner: o})
		}
		buckets[j].ops = append(buckets[j].ops, op)
	}
	return buckets
}

// dispatch routes one delivery by payload type: owner work or frontend
// completion (a process can be both).
func (t *Tier) dispatch(p int, d onepipe.Delivery) {
	switch m := d.Data.(type) {
	case *reqMsg:
		if t.smr != nil {
			t.smrRequest(p, m)
			return
		}
		t.serveReq(p, m)
	case *repMsg:
		t.complete(m)
	default:
		if t.smr != nil {
			t.smrDeliver(p, d)
		}
	}
}

// serveReq runs one owner's share through the CPU station, applies, and
// replies through the fabric.
func (t *Tier) serveReq(p int, m *reqMsg) {
	sh := t.shards[p]
	if sh == nil {
		return
	}
	dup := m.Seq <= sh.lastSeq[m.Sess]
	if !dup {
		sh.lastSeq[m.Sess] = m.Seq
	}
	work := len(m.Ops)
	if dup {
		work = 0
	}
	t.station(sh, work, func() {
		if !dup {
			for _, op := range m.Ops {
				sh.apply(op)
			}
		}
		t.reply(p, m)
	})
}

// station models server CPU as a FIFO: fn runs once nops clear it.
func (t *Tier) station(sh *shard, nops int, fn func()) {
	now := t.eng.Now()
	if sh.cpuBusy < now {
		sh.cpuBusy = now
	}
	sh.cpuBusy += sim.Time(nops) * t.Cfg.ServerOpCost
	t.eng.At(sh.cpuBusy, fn)
}

func (sh *shard) apply(op workload.Op) {
	if op.Kind == workload.OpWrite {
		sh.data[op.Key]++
	}
	sh.applied++
}

func (t *Tier) reply(p int, m *reqMsg) {
	msg := []onepipe.Message{{
		Dst:  onepipe.ProcID(m.FE),
		Data: &repMsg{Sess: m.Sess, Seq: m.Seq, N: uint16(len(m.Ops))},
		Size: 16,
	}}
	if err := t.cl.Process(p).Send(msg); err != nil {
		if errors.Is(err, onepipe.ErrClosed) {
			return
		}
		t.eng.After(2*sim.Microsecond, func() { t.reply(p, m) })
	}
}

// complete handles one reply part at the frontend; the last part closes
// the request, records client-observed latency, and schedules the next
// think.
func (t *Tier) complete(m *repMsg) {
	s := t.sessions[m.Sess]
	if m.Seq != s.seq || s.pending == 0 {
		return // stale reply from a superseded retry
	}
	s.pending--
	if s.pending > 0 {
		return
	}
	if s.retry != nil {
		s.retry.Stop()
	}
	now := t.eng.Now()
	lat := now - s.start
	s.done++
	if t.measuring && !s.stopped {
		t.delivered++
		t.hist.Add(float64(lat) / 1000) // µs
	}
	if t.Cfg.RecordLog {
		t.log = append(t.log, fmt.Sprintf("s=%d q=%d at=%d lat=%d n=%d\n",
			m.Sess, m.Seq, now, lat, len(s.ops))...)
	}
	if s.stopped || (t.Cfg.MaxRequests > 0 && s.done >= t.Cfg.MaxRequests) {
		return
	}
	id := int(m.Sess)
	t.eng.After(workload.ExpDraw(&s.rng, t.Cfg.ThinkTime), func() { t.issue(id) })
}

// --- measurement windows ---

// StartMeasure opens a measurement window.
func (t *Tier) StartMeasure() {
	t.measuring = true
	t.delivered, t.issued = 0, 0
	t.hist.Reset()
	t.winStart = t.eng.Now()
}

// StopMeasure closes the window and returns its Result.
func (t *Tier) StopMeasure() Result {
	t.measuring = false
	return Result{
		Delivered: t.delivered,
		Issued:    t.issued,
		P50:       t.hist.Percentile(50),
		P99:       t.hist.Percentile(99),
		P999:      t.hist.Percentile(99.9),
		Mean:      t.hist.Mean(),
		Window:    t.eng.Now() - t.winStart,
	}
}

// RunLoad is the standard figure drive: start the pool, warm up, measure
// one window.
func (t *Tier) RunLoad(warmup, window sim.Time) Result {
	t.Start()
	t.cl.Run(warmup)
	t.StartMeasure()
	t.cl.Run(window)
	return t.StopMeasure()
}

// RunToCompletion drives until every session finished Cfg.MaxRequests (or
// limit elapses); it returns true on full completion.
func (t *Tier) RunToCompletion(limit sim.Time) bool {
	t.Start()
	deadline := t.eng.Now() + limit
	for t.eng.Now() < deadline {
		done := true
		for _, s := range t.sessions {
			if !s.stopped && s.done < t.Cfg.MaxRequests {
				done = false
				break
			}
		}
		if done {
			return true
		}
		t.cl.Run(20 * sim.Microsecond)
	}
	return false
}

// --- elasticity hooks ---

// AddFrontends attaches newly joined processes as frontends and grows the
// pool by count sessions on them (starting immediately, staggered).
func (t *Tier) AddFrontends(procs []int, count int) {
	for _, p := range procs {
		t.attach(p)
	}
	t.frontends = append(t.frontends, procs...)
	t.addSessions(procs, count, t.eng.Now()+1)
}

// StopFrontend quiesces every session on proc p (an operational drain:
// traffic stops first, then the host leaves the fabric). It returns how
// many sessions it stopped.
func (t *Tier) StopFrontend(p int) int {
	n := 0
	for _, s := range t.sessions {
		if int(s.fe) == p && !s.stopped {
			s.stopped = true
			n++
		}
	}
	return n
}

// Sessions returns the pool size; Completed sums finished requests.
func (t *Tier) Sessions() int { return len(t.sessions) }

// Completed returns total requests finished since Start.
func (t *Tier) Completed() int {
	n := 0
	for _, s := range t.sessions {
		n += s.done
	}
	return n
}

// Log returns the recorded request/response log (RecordLog).
func (t *Tier) Log() []byte { return t.log }

// StateDigest folds every shard's (owner, key, version) triples — sorted,
// so map order never leaks in — into one FNV-1a digest, plus total ops
// applied. Identical digests across shard counts / harnesses mean
// identical serving state.
func (t *Tier) StateDigest() uint64 {
	const (
		offset = 14695981039346656037
		prime  = 1099511628211
	)
	h := uint64(offset)
	mix := func(v uint64) {
		for i := 0; i < 8; i++ {
			h ^= (v >> (8 * i)) & 0xff
			h *= prime
		}
	}
	owners := make([]int, 0, len(t.shards))
	for o := range t.shards {
		owners = append(owners, o)
	}
	sort.Ints(owners)
	for _, o := range owners {
		sh := t.shards[o]
		keys := make([]uint64, 0, len(sh.data))
		for k := range sh.data {
			keys = append(keys, k)
		}
		sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
		mix(uint64(o))
		for _, k := range keys {
			mix(k)
			mix(sh.data[k])
		}
	}
	if t.smr != nil {
		for _, d := range t.smrDigests() {
			mix(d)
		}
	}
	return h
}

// AppliedOps sums ops applied across owners (reads + writes).
func (t *Tier) AppliedOps() uint64 {
	var n uint64
	for _, sh := range t.shards {
		n += sh.applied
	}
	return n
}
