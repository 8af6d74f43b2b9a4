package simlock

import (
	"repro/internal/lockspec"
	"repro/internal/machine"
	"repro/internal/sim"
)

// specLock runs a lockspec.Spec on the simulated machine: every Env
// operation maps onto machine.Proc word accesses, so the spec body pays
// simulated coherence traffic for exactly the accesses it issues.
// Unbounded waits park on the watched cache line (the machine's
// event-driven spin); timed waits poll on the fixed
// lockspec.TimedPollUnits quantum, because a parked spinner may only
// wake long after its deadline.
type specLock struct {
	spec    *lockspec.Spec
	tun     Tuning
	nodes   int
	threads int
	// base[w] + i*stride is the simulated word backing element i of
	// declared word w (lockspec.Ref's flattened addressing), alone on its
	// cache line. Addresses seed the machine's deterministic schedule, so
	// FromSpec allocates words in declaration order, elements in index
	// order.
	base   []machine.Addr
	stride machine.Addr
	// scratch and nodeScratch back Env.Scratch and Env.NodeScratch.
	// They are allocated on first use: most algorithms keep no host-side
	// state, and applications build thousands of locks.
	scratch     [][2]uint64
	nodeScratch []uint64
}

// FromSpec instantiates a spec-backed algorithm on machine m. home is
// the node whose memory backs lock-scoped words; per-node words live in
// their node and per-thread words in the owning thread's node (cpus
// maps thread ids to CPUs, as in Factory).
func FromSpec(spec *lockspec.Spec, m *machine.Machine, home int, cpus []int, tun Tuning) Lock {
	mcfg := m.Config()
	nodes := mcfg.Nodes
	if spec.MaxNodes > 0 && nodes > spec.MaxNodes {
		panic("simlock: " + spec.Name + " supports fewer nodes than the machine has")
	}
	l := &specLock{
		spec:    spec,
		tun:     tun,
		nodes:   nodes,
		threads: len(cpus),
		base:    make([]machine.Addr, len(spec.Words)),
		stride:  machine.Addr(mcfg.WordsPerLine),
	}
	for wi, w := range spec.Words {
		n := w.Elems(nodes, len(cpus))
		per := w.Elems(1, 1) // elements per unit
		l.base[wi] = m.AllocLines(n, func(k int) int {
			switch w.Scope {
			case lockspec.ScopePerNode:
				return k / per
			case lockspec.ScopePerThread:
				return m.NodeOf(cpus[k/per])
			}
			return home
		})
		if w.Init != nil {
			for k := 0; k < n; k++ {
				m.Poke(l.addr(wi, k), w.Init(k, nodes))
			}
		}
	}

	// Wrap in the capability combination the spec declares, so an
	// interface assertion (TimedLock, WordInjector) succeeds exactly
	// when the algorithm has the capability.
	switch timed, inject := spec.Timed, spec.Inject != nil; {
	case timed && inject:
		return specTI{specT{l}}
	case timed:
		return specT{l}
	case inject:
		// No wrapper for injection sans timeout; add one if a spec ever
		// wants it rather than silently dropping the capability.
		panic("simlock: " + spec.Name + " declares Inject without Timed")
	default:
		return l
	}
}

func (l *specLock) Name() string { return l.spec.Name }

func (l *specLock) addr(w, i int) machine.Addr { return l.base[w] + machine.Addr(i)*l.stride }

// env binds p's environment to this lock for one operation. A
// processor executes one lock operation at a time, so it owns a single
// reusable environment (allocated on its first operation) and an
// acquire allocates nothing; its deadline is zero outside a timed
// acquire.
func (l *specLock) env(p *machine.Proc, tid int) *simEnv {
	e, _ := p.Local.(*simEnv)
	if e == nil {
		e = &simEnv{p: p}
		p.Local = e
	}
	e.l, e.tid = l, tid
	return e
}

func (l *specLock) Acquire(p *machine.Proc, tid int) {
	l.spec.Acquire(l.env(p, tid), &l.tun)
}

func (l *specLock) Release(p *machine.Proc, tid int) {
	l.spec.Release(l.env(p, tid), &l.tun)
}

func (l *specLock) acquireTimeout(p *machine.Proc, tid int, d sim.Time) bool {
	if d <= 0 {
		l.Acquire(p, tid)
		return true
	}
	e := l.env(p, tid)
	e.deadline = p.Now() + d
	ok := l.spec.Acquire(e, &l.tun)
	e.deadline = 0
	return ok
}

// Quiescent runs the spec's quiescence probe (every spec declares one).
func (l *specLock) Quiescent(m *machine.Machine) error {
	return l.spec.Quiesce(simPeeker{l: l, m: m})
}

// Capability wrappers: timed, and timed plus word injection.
type specT struct{ *specLock }

func (l specT) AcquireTimeout(p *machine.Proc, tid int, d sim.Time) bool {
	return l.acquireTimeout(p, tid, d)
}

type specTI struct{ specT }

func (l specTI) InjectWord(m *machine.Machine, v uint64) {
	m.Poke(l.addr(l.spec.Inject.W, l.spec.Inject.I), v)
}

// simPeeker is the zero-cost quiescence view.
type simPeeker struct {
	l *specLock
	m *machine.Machine
}

func (q simPeeker) Peek(w, i int) uint64 { return q.m.Peek(q.l.addr(w, i)) }
func (q simPeeker) Nodes() int           { return q.l.nodes }
func (q simPeeker) Threads() int         { return q.l.threads }

// simEnv is one processor's execution environment. deadline 0 means
// unbounded. Deadline checks read only the simulated clock, so a spec
// body's unbounded path issues the same event sequence with or without
// them.
type simEnv struct {
	l        *specLock
	p        *machine.Proc
	tid      int
	deadline sim.Time
}

func (e *simEnv) addr(w, i int) machine.Addr { return e.l.addr(w, i) }

func (e *simEnv) TID() int     { return e.tid }
func (e *simEnv) Node() int    { return e.p.Node() }
func (e *simEnv) Nodes() int   { return e.l.nodes }
func (e *simEnv) Threads() int { return e.l.threads }

func (e *simEnv) Distance(a, b int) int { return e.p.Machine().Distance(a, b) }

// Tag is the first declared word's address — never zero (machine.Alloc
// starts above zero) and unique per lock: the paper's HBO_GT publishes
// the lock's address in is_spinning.
func (e *simEnv) Tag() uint64 { return uint64(e.l.base[0]) }

func (e *simEnv) Load(w, i int) uint64     { return e.p.Load(e.addr(w, i)) }
func (e *simEnv) Store(w, i int, v uint64) { e.p.Store(e.addr(w, i), v) }
func (e *simEnv) Swap(w, i int, v uint64) uint64 {
	return e.p.Swap(e.addr(w, i), v)
}
func (e *simEnv) TAS(w, i int) uint64 { return e.p.TAS(e.addr(w, i)) }
func (e *simEnv) CAS(w, i int, expect, v uint64) uint64 {
	return e.p.CAS(e.addr(w, i), expect, v)
}
func (e *simEnv) CASOnce(w, i int, expect, v uint64) bool {
	return e.p.CAS(e.addr(w, i), expect, v) == expect
}

// FetchAdd is the cas-loop idiom available on SPARC.
func (e *simEnv) FetchAdd(w, i int, delta uint64) uint64 {
	a := e.addr(w, i)
	for {
		v := e.p.Load(a)
		if e.p.CAS(a, v, v+delta) == v {
			return v
		}
	}
}

func (e *simEnv) HolderInc(w, i int) {
	a := e.addr(w, i)
	v := e.p.Load(a)
	e.p.Store(a, v+1)
}

func (e *simEnv) Delay(units int) { e.p.Delay(units) }

func (e *simEnv) Backoff(b, factor, cap int) int {
	e.p.Delay(b)
	if b *= factor; b > cap {
		b = cap
	}
	return b
}

func (e *simEnv) Timed() bool { return e.deadline != 0 }

func (e *simEnv) Expired() bool {
	return e.deadline != 0 && e.p.Now() >= e.deadline
}

// await waits until pred holds for word (w, i) and returns the value
// that satisfied it: parked on the line when unbounded, re-reading on
// the timed quantum until the deadline (then false) otherwise.
func (e *simEnv) await(w, i int, pred func(uint64) bool) (uint64, bool) {
	a := e.addr(w, i)
	if e.deadline == 0 {
		return e.p.SpinUntil(a, pred), true
	}
	for {
		if v := e.p.Load(a); pred(v) {
			return v, true
		}
		if e.p.Now() >= e.deadline {
			return 0, false
		}
		e.p.Delay(lockspec.TimedPollUnits)
	}
}

func (e *simEnv) AwaitZero(w, i int) bool {
	_, ok := e.await(w, i, func(v uint64) bool { return v == 0 })
	return ok
}

func (e *simEnv) AwaitWhile(w, i int, v uint64) (uint64, bool) {
	return e.await(w, i, func(cur uint64) bool { return cur != v })
}

func (e *simEnv) AwaitLink(w, i int) uint64 {
	return e.p.SpinUntil(e.addr(w, i), func(v uint64) bool { return v != 0 })
}

func (e *simEnv) ThrottleWait(w, i int, v uint64) bool {
	_, ok := e.AwaitWhile(w, i, v)
	return ok
}

// GrantWait is a test-and-test&set style wait: spin on a cached copy and
// re-read after each release's invalidation (each release bumps the
// word, so every waiter re-reads once per handover — the ticket lock's
// known O(waiters) refill cost per release).
func (e *simEnv) GrantWait(w, i int, my uint64) bool {
	_, ok := e.await(w, i, func(v uint64) bool { return v == my })
	return ok
}

func (e *simEnv) SlowPath() {}

func (e *simEnv) Scratch() *[2]uint64 {
	if e.l.scratch == nil {
		e.l.scratch = make([][2]uint64, e.l.threads)
	}
	return &e.l.scratch[e.tid]
}

func (e *simEnv) NodeScratch() *uint64 {
	if e.l.nodeScratch == nil {
		e.l.nodeScratch = make([]uint64, e.l.nodes)
	}
	return &e.l.nodeScratch[e.p.Node()]
}
