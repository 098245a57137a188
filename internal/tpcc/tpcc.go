// Package tpcc implements the §7.3.2 benchmark: the two most frequent
// TPC-C transactions (New-Order and Payment), which are *independent*
// transactions — the input of each shard does not depend on other shards'
// output — over replicated in-memory warehouses.
//
// Four designs are compared, as in Figure 15:
//
//   - Mode1Pipe: the Eris-style design with the central sequencer replaced
//     by 1Pipe timestamps — one reliable scattering carries the
//     transaction to every replica of every involved shard; replicas apply
//     in timestamp order; one round trip, no locks, no aborts.
//   - ModeLock: two-phase locking at shard primaries (in shard order, with
//     FIFO lock waiting) followed by primary-backup replication.
//   - ModeOCC: optimistic concurrency control: versioned reads, lock,
//     validate, commit+replicate; conflicts abort and retry.
//   - ModeNonTX: no concurrency control (upper bound).
//
// Payment writes its warehouse's hot row and New-Order reads it, so the 4
// warehouse rows are the contention points that make 2PL and OCC collapse
// at scale while 1Pipe keeps scaling.
package tpcc

import (
	"math/rand"

	"onepipe/internal/core"
	"onepipe/internal/netsim"
	"onepipe/internal/sim"
	"onepipe/internal/stats"
	"onepipe/internal/workload"
)

// Mode selects the concurrency-control design.
type Mode uint8

const (
	// Mode1Pipe is the Eris-with-timestamps design.
	Mode1Pipe Mode = iota
	// ModeLock is two-phase locking with primary-backup replication.
	ModeLock
	// ModeOCC is optimistic concurrency control with replication.
	ModeOCC
	// ModeNonTX applies operations with no concurrency control.
	ModeNonTX
)

func (m Mode) String() string {
	switch m {
	case Mode1Pipe:
		return "1Pipe"
	case ModeLock:
		return "Lock"
	case ModeOCC:
		return "OCC"
	case ModeNonTX:
		return "NonTX"
	}
	return "?"
}

// Record-key layout inside a warehouse shard (canonical constants live
// with the generator in internal/workload).
const (
	keyWarehouseRow = workload.TPCCWarehouseRow // the hot row
)

// Config parameterizes a run.
type Config struct {
	// Warehouses is the shard count (the paper uses 4).
	Warehouses int
	// Replicas per shard (the paper uses 3).
	Replicas int
	// Outstanding is the closed-loop depth per client.
	Outstanding int
	// SnapshotFrac makes that fraction of transactions read-only
	// snapshots across all warehouses (0 reproduces Fig. 15 exactly).
	SnapshotFrac float64
	// ServerOpCost models CPU time per record operation.
	ServerOpCost sim.Time
	// RetryTimeout re-issues transactions with lost replies.
	RetryTimeout sim.Time
	Seed         int64
	// Txns, when non-nil, overrides the per-client transaction source
	// (default: workload.NewTPCCGen sharing the client's RNG, which
	// reproduces the historical mix draw-for-draw). The rng argument is
	// the client's own stream — a source may share it or ignore it.
	Txns func(client int, rng *rand.Rand) workload.ShardTxnSource
}

// DefaultConfig mirrors the paper: 4 warehouses, 3 replicas.
func DefaultConfig() Config {
	return Config{
		Warehouses:   4,
		Replicas:     3,
		Outstanding:  4,
		ServerOpCost: 300 * sim.Nanosecond,
		RetryTimeout: 500 * sim.Microsecond,
		Seed:         1,
	}
}

// Stats aggregates a measurement window.
type Stats struct {
	Committed uint64
	Aborted   uint64
	Latency   stats.Sample
	Window    sim.Time
}

// TxnPerSec returns total committed transactions per second.
func (s *Stats) TxnPerSec() float64 {
	if s.Window == 0 {
		return 0
	}
	return float64(s.Committed) / s.Window.Seconds()
}

// txKind is the transaction type.
type txKind uint8

const (
	txNewOrder txKind = iota
	txPayment
	// txSnapshot is a read-only snapshot transaction (§7.3.2): one
	// best-effort scattering reads a consistent cut across every
	// warehouse, serialized by its 1Pipe timestamp.
	txSnapshot
)

// shardOps is one transaction's operations against one warehouse shard.
type shardOps = workload.ShardOps

type txn struct {
	client  *node
	kind    txKind
	shards  []shardOps
	started sim.Time
	pending int
	retry   *sim.Timer // loss-retry timer; nil until first armed
	retries int
	// Lock/OCC state.
	phase    int
	lockIdx  int
	versions map[uint64]uint64
	failed   bool
	// snapshot collects per-warehouse versions for txSnapshot.
	snapshot []uint64
}

// Bench is a deployed TPC-C benchmark.
type Bench struct {
	Mode  Mode
	Cfg   Config
	Stats Stats
	cl    *core.Cluster
	nodes []*node
	// replicaSets[w] lists the replica procs of warehouse w (primary
	// first). Failed replicas are removed at runtime.
	replicaSets [][]netsim.ProcID
	measuring   bool
	// OnSnapshot observes each completed snapshot's per-warehouse version
	// vector (tests use it to check cut consistency).
	OnSnapshot func(versions []uint64)
}

type node struct {
	b    *Bench
	proc *core.Proc
	rng  *rand.Rand
	gen  workload.ShardTxnSource
	// defGen, when the default generator is in use, lets genTxn track
	// runtime Cfg.SnapshotFrac mutations (benchmarks set it post-New).
	defGen  *workload.TPCCGen
	data    map[uint64]*record
	cpuBusy sim.Time
	applied map[*txn]bool
	// Lock state (primaries only): FIFO waiters per record key, and
	// replication-completion state per in-flight execute.
	waiters  map[uint64][]*lockWait
	replWait map[*txn]*replState
}

type replState struct {
	src     netsim.ProcID
	t       *txn
	unlock  []uint64
	waiting int
}

type record struct {
	version  uint64
	lockedBy *txn
}

type lockWait struct {
	t    *txn
	src  netsim.ProcID
	keys []uint64
}

// New deploys the benchmark over a cluster.
func New(cl *core.Cluster, mode Mode, cfg Config) *Bench {
	b := &Bench{Mode: mode, Cfg: cfg, cl: cl}
	np := len(cl.Procs)
	for w := 0; w < cfg.Warehouses; w++ {
		set := make([]netsim.ProcID, 0, cfg.Replicas)
		for r := 0; r < cfg.Replicas; r++ {
			set = append(set, netsim.ProcID((w*cfg.Replicas+r)%np))
		}
		b.replicaSets = append(b.replicaSets, set)
	}
	for i, p := range cl.Procs {
		n := &node{
			b: b, proc: p,
			rng:      rand.New(rand.NewSource(cfg.Seed + int64(i)*104729)),
			data:     make(map[uint64]*record),
			applied:  make(map[*txn]bool),
			waiters:  make(map[uint64][]*lockWait),
			replWait: make(map[*txn]*replState),
		}
		if cfg.Txns != nil {
			n.gen = cfg.Txns(i, n.rng)
		} else {
			// Sharing the node's rng keeps generator draws interleaved
			// with retry-backoff draws exactly as they always were.
			n.defGen = workload.NewTPCCGen(n.rng, cfg.Warehouses, cfg.SnapshotFrac)
			n.gen = n.defGen
		}
		b.nodes = append(b.nodes, n)
		p.OnDeliver = n.onDeliver
		p.OnRaw = n.onRaw
		p.OnProcFail = func(failed netsim.ProcID, ts sim.Time) { b.removeReplica(failed) }
	}
	return b
}

// removeReplica drops a failed process from every replica set.
func (b *Bench) removeReplica(failed netsim.ProcID) {
	for w := range b.replicaSets {
		set := b.replicaSets[w][:0]
		for _, r := range b.replicaSets[w] {
			if r != failed {
				set = append(set, r)
			}
		}
		b.replicaSets[w] = set
	}
}

// Run drives the closed loop: warmup then a measured window.
func (b *Bench) Run(warmup, window sim.Time) *Stats {
	eng := b.cl.Net.Eng
	for _, n := range b.nodes {
		for i := 0; i < b.Cfg.Outstanding; i++ {
			n.startTxn()
		}
	}
	eng.RunFor(warmup)
	b.measuring = true
	b.Stats.Window = window
	eng.RunFor(window)
	b.measuring = false
	return &b.Stats
}

func (n *node) key(w, local int) uint64 { return workload.TPCCKey(w, local) }

// genTxn pulls the next transaction from the node's ShardTxnSource
// (workload.TPCCGen by default — New-Order/Payment split evenly, plus
// read-only snapshots at SnapshotFrac) and classifies its kind from the op
// shape: all-reads is a snapshot, a write to the hot warehouse row is a
// Payment, anything else is a New-Order.
func (n *node) genTxn() *txn {
	t := &txn{client: n, started: n.b.cl.Net.Eng.Now()}
	if n.defGen != nil {
		n.defGen.SetSnapshotFrac(n.b.Cfg.SnapshotFrac)
	}
	t.shards = n.gen.Next()
	t.kind = classify(t.shards)
	return t
}

func classify(shards []shardOps) txKind {
	allRead := true
	for _, s := range shards {
		for _, op := range s.Ops {
			if op.Kind != workload.OpRead {
				allRead = false
			}
			if op.Kind == workload.OpWrite && op.Key&0xffffffff == keyWarehouseRow {
				return txPayment
			}
		}
	}
	if allRead {
		return txSnapshot
	}
	return txNewOrder
}

func (n *node) startTxn() { n.issue(n.genTxn()) }

func (n *node) issue(t *txn) {
	switch n.b.Mode {
	case Mode1Pipe:
		n.issue1Pipe(t)
	case ModeLock:
		n.issueLock(t)
	case ModeOCC:
		n.issueOCC(t)
	case ModeNonTX:
		n.issueNonTX(t)
	}
}

func (n *node) finish(t *txn, committed bool) {
	t.stopRetry()
	b := n.b
	if b.measuring {
		if committed {
			b.Stats.Committed++
			b.Stats.Latency.Add(float64(b.cl.Net.Eng.Now()-t.started) / 1000)
		} else {
			b.Stats.Aborted++
		}
	}
	n.startTxn()
}

func (n *node) retryLater(t *txn) {
	if n.b.measuring {
		n.b.Stats.Aborted++
	}
	t.retries++
	t.stopRetry()
	back := sim.Time(1+n.rng.Intn(1<<uint(min(t.retries, 6)))) * sim.Microsecond
	n.b.cl.Net.Eng.After(back, func() {
		t.phase, t.pending, t.lockIdx = 0, 0, 0
		t.failed = false
		t.versions = nil
		t.started = n.b.cl.Net.Eng.Now() // latency counts the retry only
		n.issue(t)
	})
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}

func (n *node) armRetry(t *txn) {
	if n.b.Cfg.RetryTimeout <= 0 {
		return
	}
	if t.retry == nil {
		t.retry = sim.NewTimer(n.b.cl.Net.Eng, func() { n.retryLater(t) })
	}
	t.retry.Reset(n.b.Cfg.RetryTimeout)
}

func (t *txn) stopRetry() {
	if t.retry != nil {
		t.retry.Stop()
	}
}

// serve models server CPU.
func (n *node) serve(nops int, fn func()) {
	eng := n.b.cl.Net.Eng
	start := eng.Now()
	if n.cpuBusy > start {
		start = n.cpuBusy
	}
	n.cpuBusy = start + sim.Time(nops)*n.b.Cfg.ServerOpCost
	eng.At(n.cpuBusy, fn)
}

func (n *node) applyOps(ops []workload.Op) {
	for _, op := range ops {
		r := n.data[op.Key]
		if r == nil {
			r = &record{}
			n.data[op.Key] = r
		}
		if op.Kind == workload.OpWrite {
			r.version++
		}
	}
}
