// Lockmanager: distributed mutual exclusion via state machine replication
// over reliable 1Pipe (§2.2.2). Every lock/unlock command is one
// scattering to three replicas; all replicas apply the commands in the
// same total order, so they compute identical grant sequences — Lamport's
// classic mutual-exclusion guarantee ("the resource is granted in the
// order the requests are made") with no leader and no per-command
// consensus round.
package main

import (
	"fmt"

	"onepipe"
)

// group is a set of replicas fed by reliable scatterings: every command is
// one scattering to all replicas, each replica applies commands in delivery
// order, and because 1Pipe delivery is a consistent total order all
// replicas walk through identical state sequences.
type group struct {
	cluster  *onepipe.Cluster
	replicas []onepipe.ProcID
}

// newGroup installs apply(r) as the delivery callback of each replica r.
func newGroup(c *onepipe.Cluster, replicas []onepipe.ProcID, apply func(r onepipe.ProcID) func(onepipe.Delivery)) *group {
	for _, r := range replicas {
		c.Process(int(r)).OnDeliver(apply(r))
	}
	return &group{cluster: c, replicas: replicas}
}

// submit broadcasts one command from process src to every replica as one
// reliable scattering. Restricted failure atomicity guarantees all correct
// replicas apply the same command sequence (§2.1).
func (g *group) submit(src onepipe.ProcID, cmd any, size int) error {
	msgs := make([]onepipe.Message, 0, len(g.replicas))
	for _, r := range g.replicas {
		msgs = append(msgs, onepipe.Message{Dst: r, Data: cmd, Size: size})
	}
	return g.cluster.Process(int(src)).Send(msgs, onepipe.Reliable())
}

// lockCmd requests or releases a resource.
type lockCmd struct {
	Resource string
	Owner    onepipe.ProcID
	Release  bool
}

// grantEvent records one grant decision, for verifying cross-replica
// agreement.
type grantEvent struct {
	Resource string
	Owner    onepipe.ProcID
	TS       onepipe.Timestamp
}

// lockManager is a replicated lock table: requests queue FIFO in total
// order; releases grant to the next waiter. Every replica computes the
// identical grant sequence.
type lockManager struct {
	holders map[string]onepipe.ProcID
	waiters map[string][]onepipe.ProcID
	// grants is the grant log (identical on all correct replicas).
	grants []grantEvent
	// onGrant, if set, observes each grant as it happens.
	onGrant func(grantEvent)
}

func newLockManager() *lockManager {
	return &lockManager{
		holders: make(map[string]onepipe.ProcID),
		waiters: make(map[string][]onepipe.ProcID),
	}
}

// apply executes one delivered command at its position in the total order.
func (lm *lockManager) apply(d onepipe.Delivery) {
	c, ok := d.Data.(lockCmd)
	if !ok {
		return
	}
	if c.Release {
		if lm.holders[c.Resource] != c.Owner {
			return // stale release
		}
		delete(lm.holders, c.Resource)
		if q := lm.waiters[c.Resource]; len(q) > 0 {
			next := q[0]
			lm.waiters[c.Resource] = q[1:]
			lm.grant(c.Resource, next, d.TS)
		}
		return
	}
	if _, held := lm.holders[c.Resource]; held {
		lm.waiters[c.Resource] = append(lm.waiters[c.Resource], c.Owner)
		return
	}
	lm.grant(c.Resource, c.Owner, d.TS)
}

func (lm *lockManager) grant(res string, owner onepipe.ProcID, ts onepipe.Timestamp) {
	lm.holders[res] = owner
	ev := grantEvent{Resource: res, Owner: owner, TS: ts}
	lm.grants = append(lm.grants, ev)
	if lm.onGrant != nil {
		lm.onGrant(ev)
	}
}

// sameGrants reports whether every replica computed the grant sequence of
// the first one.
func sameGrants(lms []*lockManager) bool {
	ref := lms[0].grants
	for _, lm := range lms[1:] {
		if len(lm.grants) != len(ref) {
			return false
		}
		for i := range lm.grants {
			if lm.grants[i].Owner != ref[i].Owner {
				return false
			}
		}
	}
	return true
}

// lockGroup deploys a lockManager on each replica.
func lockGroup(c *onepipe.Cluster, replicas []onepipe.ProcID) (*group, []*lockManager) {
	var lms []*lockManager
	g := newGroup(c, replicas, func(onepipe.ProcID) func(onepipe.Delivery) {
		lm := newLockManager()
		lms = append(lms, lm)
		return lm.apply
	})
	return g, lms
}

func main() {
	cluster := onepipe.NewCluster(onepipe.Defaults())
	replicas := []onepipe.ProcID{5, 6, 7}
	group, lms := lockGroup(cluster, replicas)
	eng := cluster.Network().Eng
	cluster.Run(50 * onepipe.Microsecond)

	// Four clients race for the same resource; each holds it for 15us.
	lms[0].onGrant = func(ev grantEvent) {
		owner := ev.Owner
		fmt.Printf("granted %-8s to client %d at ts=%v\n", ev.Resource, owner, ev.TS)
		eng.After(15*onepipe.Microsecond, func() {
			group.submit(owner, lockCmd{Resource: ev.Resource, Owner: owner, Release: true}, 16)
		})
	}
	for _, client := range []onepipe.ProcID{0, 1, 2, 3} {
		client := client
		eng.At(eng.Now()+onepipe.Timestamp(60+client)*onepipe.Microsecond, func() {
			group.submit(client, lockCmd{Resource: "database", Owner: client}, 16)
		})
	}
	cluster.Run(2 * onepipe.Millisecond)

	// Verify all replicas computed the identical grant sequence.
	fmt.Printf("\n%d grants; all %d replicas agree on the grant order: %v\n",
		len(lms[0].grants), len(replicas), sameGrants(lms))
}
