// Package raft implements a compact Raft consensus core (leader election,
// log replication, commitment) sufficient to back 1Pipe's replicated
// network controller (§5.2: "The controller itself is replicated using
// Paxos or Raft, so it is highly available").
//
// The implementation is single-threaded and event-driven: it exchanges
// messages through a Transport and arms its election and heartbeat timers
// on the simulation engine, so it runs deterministically.
package raft

import (
	"fmt"
	"math/rand"

	"onepipe/internal/sim"
)

// Role is a node's current Raft role.
type Role uint8

const (
	// Follower accepts entries from the current leader.
	Follower Role = iota
	// Candidate is soliciting votes.
	Candidate
	// Leader replicates its log to followers.
	Leader
)

func (r Role) String() string {
	switch r {
	case Follower:
		return "follower"
	case Candidate:
		return "candidate"
	case Leader:
		return "leader"
	}
	return "?"
}

// Entry is one replicated log entry.
type Entry struct {
	Term int
	Cmd  any
}

// Message is the union of Raft RPCs (requests and replies are messages, so
// the whole protocol is asynchronous).
type Message struct {
	From, To int
	Term     int

	Kind MsgKind
	// RequestVote fields.
	LastLogIndex, LastLogTerm int
	Granted                   bool
	// AppendEntries fields.
	PrevLogIndex, PrevLogTerm int
	Entries                   []Entry
	LeaderCommit              int
	Success                   bool
	MatchIndex                int
}

// MsgKind discriminates the RPC type.
type MsgKind uint8

const (
	// MsgVoteReq solicits a vote.
	MsgVoteReq MsgKind = iota
	// MsgVoteResp answers a vote solicitation.
	MsgVoteResp
	// MsgAppendReq replicates entries (or heartbeats when empty).
	MsgAppendReq
	// MsgAppendResp acknowledges replication.
	MsgAppendResp
)

// Transport delivers messages between Raft nodes (the controller's
// management network).
type Transport interface {
	Send(msg Message)
}

// Config tunes the protocol timers.
type Config struct {
	// HeartbeatInterval is the leader's AppendEntries cadence.
	HeartbeatInterval sim.Time
	// ElectionTimeoutMin/Max bound the randomized follower timeout.
	ElectionTimeoutMin, ElectionTimeoutMax sim.Time
}

// DefaultConfig returns timers suitable for an intra-datacenter management
// network (RTT tens of microseconds).
func DefaultConfig() Config {
	return Config{
		HeartbeatInterval:  200 * sim.Microsecond,
		ElectionTimeoutMin: 1 * sim.Millisecond,
		ElectionTimeoutMax: 2 * sim.Millisecond,
	}
}

// Node is one Raft replica.
type Node struct {
	ID    int
	peers []int
	cfg   Config
	tr    Transport
	rng   *rand.Rand

	role        Role
	currentTerm int
	votedFor    int // -1 when none
	log         []Entry
	commitIndex int
	lastApplied int

	votes      map[int]bool
	nextIndex  map[int]int
	matchIndex map[int]int

	// apply is invoked in log order for every committed entry.
	apply func(index int, cmd any)
	// onLeader, if set, fires when this node becomes leader.
	onLeader func()

	electionTimer, heartbeatTimer *sim.Timer
	stopped                       bool
}

// NewNode creates a replica. peers lists ALL node IDs including id. apply
// receives committed commands in order.
func NewNode(id int, peers []int, tr Transport, eng *sim.Engine, rng *rand.Rand, cfg Config, apply func(index int, cmd any)) *Node {
	n := &Node{
		ID: id, peers: peers, cfg: cfg, tr: tr, rng: rng,
		votedFor: -1, apply: apply,
		nextIndex:  make(map[int]int),
		matchIndex: make(map[int]int),
	}
	n.electionTimer = sim.NewTimer(eng, func() {
		if !n.stopped && n.role != Leader {
			n.startElection()
		}
	})
	n.heartbeatTimer = sim.NewTimer(eng, n.heartbeat)
	n.resetElectionTimer()
	return n
}

// SetOnLeader registers a leadership callback.
func (n *Node) SetOnLeader(fn func()) { n.onLeader = fn }

// Role returns the node's current role.
func (n *Node) Role() Role { return n.role }

// Term returns the node's current term.
func (n *Node) Term() int { return n.currentTerm }

// CommitIndex returns the highest committed log index (1-based; 0 = none).
func (n *Node) CommitIndex() int { return n.commitIndex }

// Log returns a copy of the log (tests and recovery).
func (n *Node) Log() []Entry { return append([]Entry(nil), n.log...) }

// Stop halts the node (crash).
func (n *Node) Stop() { n.stopped = true }

// Restart revives a stopped node as a follower, keeping its durable state
// (term, vote, log).
func (n *Node) Restart() {
	n.stopped = false
	n.role = Follower
	n.resetElectionTimer()
}

// Stopped reports whether the node is crashed.
func (n *Node) Stopped() bool { return n.stopped }

// Propose appends a command to the leader's log. It returns the assigned
// index (1-based) and term, or ok=false if this node is not the leader.
func (n *Node) Propose(cmd any) (index, term int, ok bool) {
	if n.stopped || n.role != Leader {
		return 0, 0, false
	}
	n.log = append(n.log, Entry{Term: n.currentTerm, Cmd: cmd})
	idx := len(n.log)
	n.matchIndex[n.ID] = idx
	n.broadcastAppend()
	return idx, n.currentTerm, true
}

func (n *Node) lastLogIndex() int { return len(n.log) }
func (n *Node) lastLogTerm() int {
	if len(n.log) == 0 {
		return 0
	}
	return n.log[len(n.log)-1].Term
}

func (n *Node) resetElectionTimer() {
	span := n.cfg.ElectionTimeoutMax - n.cfg.ElectionTimeoutMin
	n.electionTimer.Reset(n.cfg.ElectionTimeoutMin + sim.Time(n.rng.Int63n(int64(span)+1)))
}

func (n *Node) startElection() {
	n.role = Candidate
	n.currentTerm++
	n.votedFor = n.ID
	n.votes = map[int]bool{n.ID: true}
	n.resetElectionTimer()
	for _, p := range n.peers {
		if p == n.ID {
			continue
		}
		n.tr.Send(Message{
			From: n.ID, To: p, Term: n.currentTerm, Kind: MsgVoteReq,
			LastLogIndex: n.lastLogIndex(), LastLogTerm: n.lastLogTerm(),
		})
	}
	if n.hasQuorum(len(n.votes)) { // single-node cluster
		n.becomeLeader()
	}
}

func (n *Node) hasQuorum(k int) bool { return 2*k > len(n.peers) }

func (n *Node) becomeLeader() {
	n.role = Leader
	for _, p := range n.peers {
		n.nextIndex[p] = n.lastLogIndex() + 1
		n.matchIndex[p] = 0
	}
	n.matchIndex[n.ID] = n.lastLogIndex()
	n.heartbeat()
	if n.onLeader != nil {
		n.onLeader()
	}
}

func (n *Node) heartbeat() {
	if n.stopped || n.role != Leader {
		return
	}
	n.broadcastAppend()
	n.heartbeatTimer.Reset(n.cfg.HeartbeatInterval)
}

func (n *Node) broadcastAppend() {
	for _, p := range n.peers {
		if p == n.ID {
			continue
		}
		n.sendAppend(p)
	}
}

func (n *Node) sendAppend(to int) {
	next := n.nextIndex[to]
	if next < 1 {
		next = 1
	}
	prevIdx := next - 1
	prevTerm := 0
	if prevIdx >= 1 && prevIdx <= len(n.log) {
		prevTerm = n.log[prevIdx-1].Term
	}
	var entries []Entry
	if next <= len(n.log) {
		entries = append(entries, n.log[next-1:]...)
	}
	n.tr.Send(Message{
		From: n.ID, To: to, Term: n.currentTerm, Kind: MsgAppendReq,
		PrevLogIndex: prevIdx, PrevLogTerm: prevTerm,
		Entries: entries, LeaderCommit: n.commitIndex,
	})
}

// Handle processes one incoming message; the transport calls it on
// delivery.
func (n *Node) Handle(m Message) {
	if n.stopped {
		return
	}
	if m.Term > n.currentTerm {
		n.currentTerm = m.Term
		n.votedFor = -1
		if n.role != Follower {
			n.role = Follower
			n.resetElectionTimer()
		}
	}
	switch m.Kind {
	case MsgVoteReq:
		n.onVoteReq(m)
	case MsgVoteResp:
		n.onVoteResp(m)
	case MsgAppendReq:
		n.onAppendReq(m)
	case MsgAppendResp:
		n.onAppendResp(m)
	}
}

func (n *Node) onVoteReq(m Message) {
	grant := false
	if m.Term >= n.currentTerm && (n.votedFor == -1 || n.votedFor == m.From) {
		upToDate := m.LastLogTerm > n.lastLogTerm() ||
			(m.LastLogTerm == n.lastLogTerm() && m.LastLogIndex >= n.lastLogIndex())
		if upToDate {
			grant = true
			n.votedFor = m.From
			n.resetElectionTimer()
		}
	}
	n.tr.Send(Message{From: n.ID, To: m.From, Term: n.currentTerm, Kind: MsgVoteResp, Granted: grant})
}

func (n *Node) onVoteResp(m Message) {
	if n.role != Candidate || m.Term != n.currentTerm || !m.Granted {
		return
	}
	n.votes[m.From] = true
	if n.hasQuorum(len(n.votes)) {
		n.becomeLeader()
	}
}

func (n *Node) onAppendReq(m Message) {
	if m.Term < n.currentTerm {
		n.tr.Send(Message{From: n.ID, To: m.From, Term: n.currentTerm, Kind: MsgAppendResp, Success: false})
		return
	}
	// Valid leader for this term.
	if n.role != Follower {
		n.role = Follower
	}
	n.resetElectionTimer()
	// Log consistency check.
	if m.PrevLogIndex > len(n.log) ||
		(m.PrevLogIndex >= 1 && n.log[m.PrevLogIndex-1].Term != m.PrevLogTerm) {
		n.tr.Send(Message{From: n.ID, To: m.From, Term: n.currentTerm, Kind: MsgAppendResp, Success: false})
		return
	}
	// Append, truncating conflicts.
	for i, e := range m.Entries {
		idx := m.PrevLogIndex + 1 + i
		if idx <= len(n.log) {
			if n.log[idx-1].Term != e.Term {
				n.log = n.log[:idx-1]
				n.log = append(n.log, e)
			}
		} else {
			n.log = append(n.log, e)
		}
	}
	if m.LeaderCommit > n.commitIndex {
		ci := m.LeaderCommit
		if last := m.PrevLogIndex + len(m.Entries); ci > last {
			ci = last
		}
		if ci > n.commitIndex {
			n.commitIndex = ci
			n.applyCommitted()
		}
	}
	n.tr.Send(Message{
		From: n.ID, To: m.From, Term: n.currentTerm, Kind: MsgAppendResp,
		Success: true, MatchIndex: m.PrevLogIndex + len(m.Entries),
	})
}

func (n *Node) onAppendResp(m Message) {
	if n.role != Leader || m.Term != n.currentTerm {
		return
	}
	if !m.Success {
		if n.nextIndex[m.From] > 1 {
			n.nextIndex[m.From]--
		}
		n.sendAppend(m.From)
		return
	}
	if m.MatchIndex > n.matchIndex[m.From] {
		n.matchIndex[m.From] = m.MatchIndex
		n.nextIndex[m.From] = m.MatchIndex + 1
	}
	// Advance commitIndex: the highest index replicated on a quorum with
	// an entry from the current term.
	for idx := len(n.log); idx > n.commitIndex; idx-- {
		if n.log[idx-1].Term != n.currentTerm {
			break
		}
		count := 0
		for _, p := range n.peers {
			if n.matchIndex[p] >= idx {
				count++
			}
		}
		if n.hasQuorum(count) {
			n.commitIndex = idx
			n.applyCommitted()
			break
		}
	}
}

func (n *Node) applyCommitted() {
	for n.lastApplied < n.commitIndex {
		n.lastApplied++
		if n.apply != nil {
			n.apply(n.lastApplied, n.log[n.lastApplied-1].Cmd)
		}
	}
}

// String summarizes the node for debugging.
func (n *Node) String() string {
	return fmt.Sprintf("raft%d{%s t=%d log=%d commit=%d}", n.ID, n.role, n.currentTerm, len(n.log), n.commitIndex)
}
