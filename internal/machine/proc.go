package machine

import (
	"fmt"

	"repro/internal/sim"
)

// Proc is a simulated processor executing one program. All memory
// operations charge simulated time and update the coherence state; none
// of them touch host-level synchronization, so programs are plain
// single-threaded Go functions from the host's point of view.
//
// Memory operations take effect at their *completion* time: a miss
// first queues on the target line (a cache line satisfies one transfer
// at a time), pays its transfer latency, and only then updates the
// directory and the value. Completion-time semantics make latency part
// of the race: a nearby CPU's CAS beats a remote CPU's CAS issued
// slightly earlier, which is exactly the NUCA effect the paper's locks
// exploit, and a burst of misses after a release serializes into the
// refill storm that makes TATAS collapse under contention.
type Proc struct {
	m    *Machine
	proc *sim.Process
	cpu  int
	node int
	// Local belongs to the layer that drives this processor: simlock
	// keeps the processor's lock-execution environment here so that
	// thousands of locks need not each hold one per thread. The machine
	// never reads it.
	Local any
}

// CPU returns the processor id (0 .. TotalCPUs-1).
func (p *Proc) CPU() int { return p.cpu }

// Node returns the NUCA node this processor belongs to.
func (p *Proc) Node() int { return p.node }

// Machine returns the owning machine.
func (p *Proc) Machine() *Machine { return p.m }

// Now returns the simulated clock.
func (p *Proc) Now() sim.Time { return p.m.eng.Now() }

// checkPreempt stalls the processor while the OS has stolen its CPU or
// the fault injector has paused its whole node.
func (p *Proc) checkPreempt() {
	until := p.m.preemptedUntil[p.cpu]
	if now := p.m.eng.Now(); until > now {
		p.proc.Sleep(until - now)
	}
	if f := p.m.faults; f != nil {
		// Pause windows can chain (a new window may open while we sleep
		// out the current one), so re-check until the node is running.
		for {
			now := p.m.eng.Now()
			end, ok := f.PausedUntil(now, p.node)
			if !ok {
				return
			}
			p.proc.Sleep(end - now)
		}
	}
}

// faultScale applies active latency-spike windows to a miss latency
// involving p's node and other (the transfer's far end; pass p.node
// when the transfer stays local).
func (p *Proc) faultScale(d sim.Time, other int) sim.Time {
	if p.m.faults == nil {
		return d
	}
	return p.m.faultLatency(d, p.node, other)
}

// Work models off-memory computation taking d nanoseconds.
func (p *Proc) Work(d sim.Time) {
	p.checkPreempt()
	p.proc.Sleep(d)
}

// Delay models the empty backoff loop `for (i = units; i; i--);`.
func (p *Proc) Delay(units int) {
	if units <= 0 {
		return
	}
	p.Work(sim.Time(units) * p.m.cfg.Lat.BackoffUnit)
}

func (p *Proc) checkAddr(a Addr) *line {
	if a == NilAddr || int(a) >= len(p.m.words) {
		panic(fmt.Sprintf("machine: access to invalid address %d", a))
	}
	return p.m.lineOf(a)
}

// miss models one coherence miss, of the unloaded latency d that fetch
// charges, in two phases. First the request travels to the line (half
// the latency, plus the bus/link queueing fetch found in extra); then
// the line serves the transfer (the other half), one transfer at a time,
// in request-arrival order. Arrival-order service is what gives nearby
// CPUs their NUCA advantage: a local CAS issued after a remote one still
// reaches the line first and wins the race.
func (p *Proc) miss(l *line, a Addr, write bool) {
	d, extra := p.fetch(l, a, write)
	if f := p.m.faults; f != nil {
		// Transient NACKs: the request is bounced at the target and
		// retried after a delay; each bounce burns one more bus
		// transaction at the requester's node (the cold table is indexed
		// afresh: it may have moved during the last Sleep).
		for r := f.MaxRetries(); r > 0 && f.NACKed(p.node); r-- {
			p.m.countLocal(&p.m.cold[l.cold], p.node)
			p.proc.Sleep(f.RetryDelay())
		}
	}
	flight := d / 2
	service := d - flight
	p.proc.Sleep(flight + extra) // request in flight
	now := p.m.eng.Now()
	start := now
	if l.busyUntil > start {
		start = l.busyUntil
	}
	l.busyUntil = start + service
	p.proc.Sleep(start + service - now) // queue behind earlier arrivals, then transfer
}

// busWait reserves the node bus for one transaction and returns the
// queueing delay (service occupancy is modeled inside the resource; the
// data-transfer time is part of the latency constants).
func (p *Proc) busWait(node int) sim.Time {
	d := p.m.buses[node].Delay(p.m.cfg.BusService)
	return d - p.m.cfg.BusService
}

// linkWait reserves the global interconnect for one crossing. During a
// congestion storm the crossing occupies the link for longer, so
// concurrent crossings queue; the requester pays the queueing plus the
// storm surcharge on its own service.
func (p *Proc) linkWait() sim.Time {
	service := p.m.cfg.LinkService
	if f := p.m.faults; f != nil {
		if s := f.LinkScale(p.m.eng.Now()); s > 1 {
			service = sim.Time(float64(service) * s)
		}
	}
	d := p.m.link.Delay(service)
	return d - p.m.cfg.LinkService
}

// fetch charges the transfer that brings a's line l into p's cache (for
// writing: exclusively) by the state observed at issue, and returns its
// unloaded latency and the bus and link queueing ahead of it.
func (p *Proc) fetch(l *line, a Addr, write bool) (base, extra sim.Time) {
	m := p.m
	c := m.touch(l, a)
	extra = m.cfg.Lat.OpOverhead + p.busWait(p.node)
	m.countLocal(c, p.node)
	c.traf.misses++
	switch {
	case write && l.state == stateShared && l.sharers.has(p.cpu):
		// Upgrade: invalidate the other sharers, no data transfer.
		base = p.faultScale(m.cfg.Lat.Upgrade, p.node)
		extra += p.invalidateRemoteSharers(l, c)
	case l.state == stateModified:
		src := m.NodeOf(int(l.owner))
		base = p.faultScale(m.c2cLatency(p.node, src), src)
		c.traf.transfers++
		extra += p.crossTo(c, src)
	default: // Shared without our copy, or uncached: fetch from home.
		home := int(l.home)
		base = p.faultScale(m.memLatency(p.node, home), home)
		extra += p.crossTo(c, home)
		if write {
			extra += p.invalidateRemoteSharers(l, c)
		}
	}
	return base, extra
}

// crossTo charges the transaction on c's line the interconnect crossing
// and the bus of node when that is not p's own, and returns the queueing
// delay.
func (p *Proc) crossTo(c *coldLine, node int) sim.Time {
	if node == p.node {
		return 0
	}
	d := p.linkWait() + p.busWait(node)
	p.m.countLocal(c, node)
	p.m.stats.Global++
	c.traf.global++
	return d
}

// readAccess performs one load and returns the value observed at
// completion time.
func (p *Proc) readAccess(a Addr) uint64 {
	p.checkPreempt()
	l := p.checkAddr(a)
	m := p.m
	lat := m.cfg.Lat
	for {
		if l.cachedBy(p.cpu) {
			p.proc.Sleep(lat.OpOverhead + lat.LoadHit)
			if l.cachedBy(p.cpu) {
				m.probeAfterRead(p.cpu, a)
				return m.words[a]
			}
			continue // lost the line while the hit retired; re-fetch
		}
		p.miss(l, a, false)
		// Completion: join the sharers (downgrading a dirty owner).
		if l.state == stateModified {
			l.sharers = 0
			l.sharers.add(int(l.owner))
			l.state = stateShared
		} else if l.state == stateUncached {
			l.state = stateShared
		}
		l.sharers.add(p.cpu)
		m.probeAfterRead(p.cpu, a)
		return m.words[a]
	}
}

// writeAccess obtains exclusive ownership of a's line and returns a
// pointer to the word; the caller mutates it immediately (no simulated
// time passes between return and the mutation).
func (p *Proc) writeAccess(a Addr) *uint64 {
	p.checkPreempt()
	l := p.checkAddr(a)
	m := p.m
	lat := m.cfg.Lat
	for {
		if l.state == stateModified && int(l.owner) == p.cpu {
			p.proc.Sleep(lat.OpOverhead + lat.StoreOwned)
			if l.state == stateModified && int(l.owner) == p.cpu {
				m.probeAfterWrite(p.cpu, a)
				return &m.words[a]
			}
			continue // ownership stolen while the op retired; redo
		}
		p.miss(l, a, true)
		// Completion: take exclusive ownership.
		l.sharers = 0
		l.state = stateModified
		l.owner = int32(p.cpu)
		m.wakeWaiters(l)
		m.probeAfterWrite(p.cpu, a)
		return &m.words[a]
	}
}

// invalidateRemoteSharers counts and charges the invalidations sent to
// nodes (other than p's) that hold shared copies of l. Invalidations to
// sharers in p's own node ride the requester's own bus transaction.
func (p *Proc) invalidateRemoteSharers(l *line, c *coldLine) sim.Time {
	var extra sim.Time
	per := p.m.cfg.CPUsPerNode
	node := sharerSet(1)<<uint(per) - 1 // the CPUs of node 0
	for n := 0; n < p.m.cfg.Nodes; n++ {
		if n != p.node && l.sharers&(node<<uint(n*per)) != 0 {
			extra += p.crossTo(c, n)
			c.traf.invals++
		}
	}
	return extra
}

// Load reads a word.
func (p *Proc) Load(a Addr) uint64 { return p.readAccess(a) }

// Store writes a word.
func (p *Proc) Store(a Addr, v uint64) {
	w := p.writeAccess(a)
	*w = v
}

// CAS atomically compares the word at a with expect and, if equal,
// replaces it with new. It returns the original value. Like SPARC cas,
// a failed CAS still acquires the line exclusively — the traffic source
// the HBO paper's throttling targets.
func (p *Proc) CAS(a Addr, expect, new uint64) uint64 {
	w := p.writeAccess(a)
	old := *w
	if old == expect {
		*w = new
	}
	return old
}

// Swap atomically writes v and returns the previous value.
func (p *Proc) Swap(a Addr, v uint64) uint64 {
	w := p.writeAccess(a)
	old := *w
	*w = v
	return old
}

// TAS atomically writes 1 and returns the previous value (0 means the
// caller obtained the lock).
func (p *Proc) TAS(a Addr) uint64 { return p.Swap(a, 1) }

// SpinUntil busy-waits until pred holds for the word at a, and returns
// the value that satisfied it. The first check pays a normal load; while
// the predicate is false the processor holds a cached copy and parks
// until the line is invalidated by a writer, then re-reads (a coherence
// miss), modeling test-and-test&set style spinning without simulating
// every polling iteration.
func (p *Proc) SpinUntil(a Addr, pred func(uint64) bool) uint64 {
	for {
		v := p.Load(a)
		if pred(v) {
			return v
		}
		l := p.m.lineOf(a)
		if !l.cachedBy(p.cpu) {
			// Invalidated between our load's completion and now (the
			// load retried internally); re-read.
			continue
		}
		c := p.m.touch(l, a)
		c.waiters = append(c.waiters, p)
		p.proc.Block()
	}
}

// SpinWhileEquals busy-waits while the word at a equals v.
func (p *Proc) SpinWhileEquals(a Addr, v uint64) uint64 {
	return p.SpinUntil(a, func(cur uint64) bool { return cur != v })
}

// SpinUntilZero busy-waits until the word at a reads zero.
func (p *Proc) SpinUntilZero(a Addr) {
	p.SpinUntil(a, func(cur uint64) bool { return cur == 0 })
}
