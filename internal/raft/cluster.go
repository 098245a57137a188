package raft

import (
	"math/rand"

	"onepipe/internal/sim"
)

// Cluster wires N Raft nodes over a simulated management network with a
// configurable per-message delay and loss rate — the test and deployment
// harness for the replicated controller.
type Cluster struct {
	Eng   *sim.Engine
	Nodes []*Node
	// Delay is the one-way message latency; Jitter adds U(0,Jitter).
	Delay, Jitter sim.Time
	// Loss is the per-message drop probability.
	Loss float64
	// Partitioned[i][j] blocks i->j delivery.
	partitioned map[[2]int]bool
	rng         *rand.Rand
}

type clusterTransport struct {
	c  *Cluster
	id int
}

func (t clusterTransport) Send(m Message) { t.c.route(m) }

// NewCluster builds n nodes applying commands via apply(nodeID, index, cmd).
func NewCluster(eng *sim.Engine, n int, cfg Config, apply func(node, index int, cmd any)) *Cluster {
	c := &Cluster{
		Eng:         eng,
		Delay:       20 * sim.Microsecond,
		Jitter:      10 * sim.Microsecond,
		partitioned: make(map[[2]int]bool),
		rng:         rand.New(rand.NewSource(12345)),
	}
	peers := make([]int, n)
	for i := range peers {
		peers[i] = i
	}
	for i := 0; i < n; i++ {
		i := i
		var ap func(index int, cmd any)
		if apply != nil {
			ap = func(index int, cmd any) { apply(i, index, cmd) }
		}
		node := NewNode(i, peers, clusterTransport{c: c, id: i},
			eng, rand.New(rand.NewSource(int64(1000+i))), cfg, ap)
		c.Nodes = append(c.Nodes, node)
	}
	return c
}

func (c *Cluster) route(m Message) {
	if m.To < 0 || m.To >= len(c.Nodes) {
		return
	}
	if c.partitioned[[2]int{m.From, m.To}] {
		return
	}
	if c.Loss > 0 && c.rng.Float64() < c.Loss {
		return
	}
	d := c.Delay
	if c.Jitter > 0 {
		d += sim.Time(c.rng.Int63n(int64(c.Jitter)))
	}
	node := c.Nodes[m.To]
	c.Eng.After(d, func() { node.Handle(m) })
}

// Partition blocks traffic between the two groups (both directions).
func (c *Cluster) Partition(a, b []int) {
	for _, i := range a {
		for _, j := range b {
			c.partitioned[[2]int{i, j}] = true
			c.partitioned[[2]int{j, i}] = true
		}
	}
}

// Heal removes all partitions.
func (c *Cluster) Heal() { c.partitioned = make(map[[2]int]bool) }

// Leader returns the current leader among live nodes, or nil.
func (c *Cluster) Leader() *Node {
	for _, n := range c.Nodes {
		if !n.Stopped() && n.Role() == Leader {
			return n
		}
	}
	return nil
}

// WaitLeader runs the simulation until a leader exists or the deadline
// passes; it returns the leader or nil.
func (c *Cluster) WaitLeader(deadline sim.Time) *Node {
	for c.Eng.Now() < deadline {
		if l := c.Leader(); l != nil {
			return l
		}
		c.Eng.RunFor(100 * sim.Microsecond)
	}
	return c.Leader()
}
