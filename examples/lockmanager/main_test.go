package main

import (
	"testing"

	"onepipe"
)

// counter is the minimal convergence check: it folds int64 commands with a
// non-commutative operation (value = value*3 + cmd), so any ordering
// difference across replicas becomes visible in the final value.
type counter struct {
	value int64
	log   []int64
}

func (c *counter) apply(d onepipe.Delivery) {
	v, ok := d.Data.(int64)
	if !ok {
		return
	}
	c.value = c.value*3 + v
	c.log = append(c.log, v)
}

func counterGroup(c *onepipe.Cluster, replicas []onepipe.ProcID) (*group, []*counter) {
	var cs []*counter
	g := newGroup(c, replicas, func(onepipe.ProcID) func(onepipe.Delivery) {
		ctr := &counter{}
		cs = append(cs, ctr)
		return ctr.apply
	})
	return g, cs
}

func checkConverged(t *testing.T, cs []*counter) {
	t.Helper()
	for i, c := range cs[1:] {
		if c.value != cs[0].value || len(c.log) != len(cs[0].log) {
			t.Fatalf("replica %d diverges: value %d (%d cmds), replica 0 value %d (%d cmds)",
				i+1, c.value, len(c.log), cs[0].value, len(cs[0].log))
		}
	}
}

func TestReplicasConverge(t *testing.T) {
	cluster := onepipe.NewCluster(onepipe.Defaults())
	g, cs := counterGroup(cluster, []onepipe.ProcID{5, 6, 7})
	eng := cluster.Network().Eng
	// Three concurrent clients submit non-commutative commands every 3us.
	for at := onepipe.Timestamp(0); at <= 200*onepipe.Microsecond; at += 3 * onepipe.Microsecond {
		for _, src := range []onepipe.ProcID{0, 1, 2} {
			src := src
			eng.At(at, func() { g.submit(src, int64(src)+1, 8) })
		}
	}
	cluster.Run(3 * onepipe.Millisecond)
	if len(cs[0].log) == 0 {
		t.Fatal("no commands applied")
	}
	checkConverged(t, cs)
}

func TestReplicasConvergeUnderLoss(t *testing.T) {
	cfg := onepipe.Defaults()
	cfg.Seed = 5
	cfg.Impair = &onepipe.ImpairmentProfile{Default: &onepipe.Impairment{Loss: 0.01}}
	cluster := onepipe.NewCluster(cfg)
	g, cs := counterGroup(cluster, []onepipe.ProcID{5, 6, 7})
	eng := cluster.Network().Eng
	for i := 0; i < 100; i++ {
		i := i
		eng.At(onepipe.Timestamp(50+i*3)*onepipe.Microsecond, func() {
			g.submit(onepipe.ProcID(i%3), int64(i), 8)
		})
	}
	cluster.Run(20 * onepipe.Millisecond)
	if len(cs[0].log) != 100 {
		t.Fatalf("replica 0 applied %d of 100", len(cs[0].log))
	}
	if cluster.Network().Stats.CorruptDrop == 0 {
		t.Fatal("no packet was lost; the loss profile is not in effect")
	}
	checkConverged(t, cs)
}

func TestLockManagerMutualExclusion(t *testing.T) {
	cluster := onepipe.NewCluster(onepipe.Defaults())
	g, lms := lockGroup(cluster, []onepipe.ProcID{5, 6, 7})
	eng := cluster.Network().Eng

	// Clients 0..3 race for the same resource; each holds it briefly then
	// releases, driven by its own grant observation on the first replica.
	lms[0].onGrant = func(ev grantEvent) {
		owner := ev.Owner
		eng.After(10*onepipe.Microsecond, func() {
			g.submit(owner, lockCmd{Resource: "R", Owner: owner, Release: true}, 8)
		})
	}
	for _, src := range []onepipe.ProcID{0, 1, 2, 3} {
		src := src
		eng.At(onepipe.Timestamp(50+int64(src)*2)*onepipe.Microsecond, func() {
			g.submit(src, lockCmd{Resource: "R", Owner: src}, 8)
		})
	}
	cluster.Run(5 * onepipe.Millisecond)

	if got := len(lms[0].grants); got != 4 {
		t.Fatalf("granted %d times, want 4", got)
	}
	if !sameGrants(lms) {
		t.Fatal("replicas computed different grant sequences")
	}
	// Grants follow request order (Lamport's mutual exclusion property:
	// granted in the order requests were made — i.e., by timestamp).
	for i := 1; i < len(lms[0].grants); i++ {
		if lms[0].grants[i].TS < lms[0].grants[i-1].TS {
			t.Fatal("grants out of total order")
		}
	}
}

func TestLockManagerStaleReleaseIgnored(t *testing.T) {
	lm := newLockManager()
	apply := func(ts onepipe.Timestamp, c lockCmd) { lm.apply(onepipe.Delivery{TS: ts, Data: c}) }
	apply(1, lockCmd{Resource: "R", Owner: 1})
	apply(2, lockCmd{Resource: "R", Owner: 2})                // queued
	apply(3, lockCmd{Resource: "R", Owner: 2, Release: true}) // not the holder
	if h := lm.holders["R"]; h != 1 {
		t.Fatalf("stale release changed holder to %d", h)
	}
	apply(4, lockCmd{Resource: "R", Owner: 1, Release: true})
	if h := lm.holders["R"]; h != 2 {
		t.Fatalf("waiter not granted, holder %d", h)
	}
}
