package main

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"sync"
	"time"

	"onepipe"
)

const (
	liveHosts = 4
	// liveRate sits below the 3000-4000 msgs/s where the loopback fabric
	// saturates, so latency reflects the protocol, not a growing backlog.
	liveRate = 2000
	liveMsgs = 4000 // 2 s of sends per rep
	// liveWarm messages at the same rate precede the window, so sockets,
	// connections and goroutines are warm when timing starts.
	liveWarm    = 500
	livePayload = 64
	// liveDrainMax bounds the wait for the last deliveries after the final
	// send before undelivered messages count as failed.
	liveDrainMax = 3 * time.Second
)

// liveUDP drives an open loop of reliable 64 B sends at a fixed rate,
// round-robin over the hosts of a loopback UDP fabric, each to a seeded
// random peer. Each message is timed from when it was due, so a stalled
// generator shows as latency.
func liveUDP(seed int64, m *meter, tr *tracer) error {
	r := m.r
	fab, err := onepipe.NewUDPCluster(onepipe.LiveConfig{Hosts: liveHosts, ProcsPerHost: 1, Seed: seed})
	if err != nil {
		return fmt.Errorf("live-udp: %w", err)
	}
	defer fab.Close()
	n := fab.NumProcesses()

	rng := rand.New(rand.NewSource(seed))
	total := liveWarm + liveMsgs
	dst := make([]int, total)
	for i := range dst {
		dst[i] = (i%n + 1 + rng.Intn(n-1)) % n
	}

	var mu sync.Mutex // callbacks run on the fabric's goroutines
	ck := newChecker()
	due := make([]time.Time, total)
	lat := make([]float64, 0, liveMsgs)
	got, sendFails := 0, 0
	warm, all := make(chan struct{}), make(chan struct{})
	for p := 0; p < n; p++ {
		rcv := p
		fab.Process(p).OnDeliver(func(d onepipe.Delivery) {
			now := time.Now()
			mu.Lock()
			id := binary.LittleEndian.Uint32(d.Data.([]byte))
			ck.order(rcv, d.Reliable, int64(d.TS), int(d.Src))
			ck.delivered(id)
			if id >= liveWarm {
				lat = append(lat, float64(now.Sub(due[id]))/1e3)
			}
			switch got++; got {
			case liveWarm:
				close(warm)
			case total:
				close(all)
			}
			mu.Unlock()
			tr.endDeliver(now)
		})
		fab.Process(p).OnSendFail(func(onepipe.SendFailure) {
			mu.Lock()
			sendFails++
			mu.Unlock()
		})
	}

	refused := 0
	lateMax := time.Duration(0)
	gap := time.Second / liveRate
	// send runs messages [from, to) on the open-loop schedule from start.
	send := func(from, to int, start time.Time) {
		for i := from; i < to; i++ {
			at := start.Add(time.Duration(i-from) * gap)
			if d := time.Until(at); d > 0 {
				time.Sleep(d)
			}
			lateMax = max(lateMax, time.Since(at))
			payload := make([]byte, livePayload)
			binary.LittleEndian.PutUint32(payload, uint32(i))
			mu.Lock()
			due[i] = at
			ck.expect(true)
			mu.Unlock()
			msg := []onepipe.Message{{Dst: onepipe.ProcID(dst[i]), Data: payload, Size: livePayload}}
			t0 := tr.begin()
			err := fab.Process(i%n).Send(msg, onepipe.Reliable())
			tr.endSend(t0)
			if err != nil {
				mu.Lock()
				ck.reliable[i] = false
				mu.Unlock()
				refused++
			}
		}
	}
	send(0, liveWarm, time.Now())
	select {
	case <-warm:
	case <-time.After(liveDrainMax):
	}
	m.setupDone()
	lateMax = 0
	send(liveWarm, total, time.Now())
	select {
	case <-all:
	case <-time.After(liveDrainMax):
	}
	m.windowDone()

	mu.Lock()
	defer mu.Unlock()
	undelivered := ck.undelivered()
	r.attempted = total
	r.ops = len(lat)
	r.lat = append([]float64(nil), lat...)
	r.failed = refused + undelivered
	if tr != nil {
		tr.lateMaxUs = max(tr.lateMaxUs, float64(lateMax)/1e3)
	}
	if err := ck.finish(); err != nil {
		return err
	}
	if refused+sendFails > 0 {
		return fmt.Errorf("live-udp: %d sends refused, %d send failures", refused, sendFails)
	}
	return nil
}
