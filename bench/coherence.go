package main

import (
	"fmt"
	"time"

	"anurand/internal/cluster"
)

// coherence holds the runtime's consistency rule while a control
// workload runs, as the scale soak's monitor does (test helpers cannot
// be imported, so it is restated here): two nodes at the same (epoch,
// round) hold the same fingerprint, and a node's installed map never
// moves backwards. A restarted node begins a new monotone history.
type coherence struct {
	tb         *testbed
	seen       map[[2]uint64]firstSeen // (epoch, round) -> first holder
	last       [][2]uint64             // per node: newest (epoch, round) seen
	runtimes   []*cluster.Runtime      // per node: the runtime last sampled
	sweeps     int
	violations int
	problems   []string // the first few violations
	stop       chan struct{}
	done       chan struct{}
}

type firstSeen struct {
	fp   uint64
	node int
}

func startCoherence(tb *testbed, every time.Duration) *coherence {
	c := &coherence{
		tb:       tb,
		seen:     make(map[[2]uint64]firstSeen),
		last:     make([][2]uint64, tb.spec.n),
		runtimes: make([]*cluster.Runtime, tb.spec.n),
		stop:     make(chan struct{}),
		done:     make(chan struct{}),
	}
	go func() {
		defer close(c.done)
		tick := time.NewTicker(every)
		defer tick.Stop()
		for {
			c.sample()
			select {
			case <-c.stop:
				c.sample()
				return
			case <-tick.C:
			}
		}
	}()
	return c
}

func (c *coherence) sample() {
	c.sweeps++
	for i, rt := range c.tb.nodes() {
		if rt != c.runtimes[i] {
			c.runtimes[i], c.last[i] = rt, [2]uint64{}
		}
		epoch, round, fp := rt.MapState()
		if round == 0 {
			continue
		}
		key := [2]uint64{epoch, round}
		if prev, ok := c.seen[key]; !ok {
			c.seen[key] = firstSeen{fp: fp, node: i}
		} else if prev.fp != fp {
			c.violate("node %d: (epoch %d, round %d) fingerprint %x conflicts with node %d's %x", i, epoch, round, fp, prev.node, prev.fp)
		}
		if l := c.last[i]; epoch < l[0] || (epoch == l[0] && round < l[1]) {
			c.violate("node %d: installed map went backwards: (%d,%d) after (%d,%d)", i, epoch, round, l[0], l[1])
		}
		c.last[i] = key
	}
}

func (c *coherence) violate(format string, args ...any) {
	c.violations++
	if len(c.problems) < 10 {
		c.problems = append(c.problems, fmt.Sprintf(format, args...))
	}
}

// finish stops the monitor and counts each sweep over the nodes as one
// check and each violation as one failure.
func (c *coherence) finish(res *result) {
	close(c.stop)
	<-c.done
	res.attempted += c.sweeps
	for i := 0; i < c.violations; i++ {
		msg := "coherence violation"
		if i < len(c.problems) {
			msg = c.problems[i]
		}
		res.fail("coherence: %s", msg)
	}
}
