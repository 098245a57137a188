package main

import (
	"fmt"
	"strings"
)

// stamp is one delivery's position in a receiver's total order.
type stamp struct {
	ts  int64
	src int
}

func (a stamp) less(b stamp) bool { return a.ts < b.ts || (a.ts == b.ts && a.src < b.src) }

// checker verifies the guarantees a workload's deliveries must keep:
//   - within each receiver and reliability class, deliveries arrive in
//     non-decreasing (TS, Src) order;
//   - a registered message is delivered at most once, and a reliable one
//     exactly once by the time finish is called.
//
// It is not goroutine-safe; the live workload serializes calls.
type checker struct {
	last     map[int]stamp // receiver*2 + class -> last delivery
	reliable []bool        // by message id
	count    []uint8       // deliveries seen, by message id
	faults   int
	first    []string
}

func newChecker() *checker { return &checker{last: make(map[int]stamp)} }

func (c *checker) fault(format string, args ...any) {
	c.faults++
	if len(c.first) < 5 {
		c.first = append(c.first, fmt.Sprintf(format, args...))
	}
}

// expect registers one message and returns its id.
func (c *checker) expect(reliable bool) uint32 {
	c.reliable = append(c.reliable, reliable)
	c.count = append(c.count, 0)
	return uint32(len(c.count) - 1)
}

// order records that receiver rcv delivered (ts, src) in the given class.
func (c *checker) order(rcv int, reliable bool, ts int64, src int) {
	k := rcv * 2
	if reliable {
		k++
	}
	s := stamp{ts, src}
	if prev, ok := c.last[k]; ok && s.less(prev) {
		c.fault("receiver %d reliable=%v: (ts %d, src %d) delivered after (ts %d, src %d)",
			rcv, reliable, ts, src, prev.ts, prev.src)
	}
	c.last[k] = s
}

// delivered records one delivery of message id.
func (c *checker) delivered(id uint32) {
	if int(id) >= len(c.count) {
		c.fault("delivery of unknown message %d", id)
		return
	}
	if c.count[id]++; c.count[id] == 2 {
		c.fault("message %d delivered twice", id)
	}
}

// undelivered counts reliable messages not delivered exactly once.
func (c *checker) undelivered() int {
	n := 0
	for id, r := range c.reliable {
		if r && c.count[id] != 1 {
			n++
		}
	}
	return n
}

// finish reports every violation seen, including reliable messages that
// were never delivered.
func (c *checker) finish() error {
	if n := c.undelivered(); n > 0 {
		c.fault("%d reliable messages not delivered exactly once", n)
	}
	if c.faults == 0 {
		return nil
	}
	return fmt.Errorf("%d delivery check failures: %s", c.faults, strings.Join(c.first, "; "))
}
