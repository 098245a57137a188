package main

import (
	"strings"
	"testing"

	"onepipe"
)

// delivery is one recorded delivery of a real fabric run.
type delivery struct {
	rcv, src int
	reliable bool
	ts       int64
	id       uint32
}

// recordRun sends a mix of reliable and best-effort scatterings on a small
// simulated fabric and records every delivery in callback order.
func recordRun(t *testing.T) (*checker, []delivery) {
	t.Helper()
	cl := onepipe.NewCluster(onepipe.Defaults())
	ck := newChecker()
	var got []delivery
	n := cl.NumProcesses()
	for p := 0; p < n; p++ {
		rcv := p
		cl.Process(p).OnDeliver(func(d onepipe.Delivery) {
			got = append(got, delivery{rcv, int(d.Src), d.Reliable, int64(d.TS), d.Data.(uint32)})
		})
	}
	for round := 0; round < 20; round++ {
		for p := 0; p < n; p++ {
			rel := (round+p)%3 == 0
			var msgs []onepipe.Message
			for _, d := range []int{(p + 1) % n, (p + 2 + round) % n} {
				msgs = append(msgs, onepipe.Message{Dst: onepipe.ProcID(d), Data: ck.expect(rel), Size: 64})
			}
			var opts []onepipe.SendOption
			if rel {
				opts = append(opts, onepipe.Reliable())
			}
			if err := cl.Process(p).Send(msgs, opts...); err != nil {
				t.Fatal(err)
			}
		}
		cl.Run(2 * onepipe.Microsecond)
	}
	cl.Run(200 * onepipe.Microsecond)
	return ck, got
}

func replay(ck *checker, ds []delivery) error {
	for _, d := range ds {
		ck.order(d.rcv, d.reliable, d.ts, d.src)
		ck.delivered(d.id)
	}
	return ck.finish()
}

func TestCheckerAcceptsRealRun(t *testing.T) {
	ck, ds := recordRun(t)
	if err := replay(ck, ds); err != nil {
		t.Fatal(err)
	}
}

// TestCheckerTripsOnSwappedPair swaps two adjacent deliveries of one
// receiver and class with different (TS, Src) positions.
func TestCheckerTripsOnSwappedPair(t *testing.T) {
	ck, ds := recordRun(t)
	swapped := false
	for i := 0; i+1 < len(ds) && !swapped; i++ {
		a, b := ds[i], ds[i+1]
		if a.rcv == b.rcv && a.reliable == b.reliable && (a.ts != b.ts || a.src != b.src) {
			ds[i], ds[i+1] = b, a
			swapped = true
		}
	}
	if !swapped {
		t.Fatal("no adjacent same-receiver pair to swap")
	}
	err := replay(ck, ds)
	if err == nil || !strings.Contains(err.Error(), "delivered after") {
		t.Fatalf("swapped pair not caught: %v", err)
	}
}

// TestCheckerTripsOnDroppedReliable removes one reliable delivery.
func TestCheckerTripsOnDroppedReliable(t *testing.T) {
	ck, ds := recordRun(t)
	for i, d := range ds {
		if d.reliable {
			ds = append(ds[:i], ds[i+1:]...)
			err := replay(ck, ds)
			if err == nil || !strings.Contains(err.Error(), "not delivered exactly once") {
				t.Fatalf("dropped reliable message not caught: %v", err)
			}
			return
		}
	}
	t.Fatal("run delivered no reliable message")
}

func TestCheckerTripsOnDuplicate(t *testing.T) {
	ck, ds := recordRun(t)
	ds = append(ds, ds[len(ds)-1])
	if err := replay(ck, ds); err == nil || !strings.Contains(err.Error(), "twice") {
		t.Fatalf("duplicate delivery not caught: %v", err)
	}
}
