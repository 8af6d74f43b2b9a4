package core

import (
	"fmt"
	"runtime"
	"sync/atomic"
	"time"

	"repro/internal/lockspec"
)

// This file instantiates lockspec.Spec descriptions as native locks: the
// spec's state words become cache-line-padded atomics, its transition
// bodies run against an Env whose wait primitives busy-wait with
// periodic runtime.Gosched yields and count spin work into the lock's
// Probe. internal/simlock/spec.go instantiates the same specs on the
// simulated machine; every shared word and every atomic transition come
// from the one body, so the two stacks differ in waiting policy only.

// specLock is a native lock built from a spec.
type specLock struct {
	spec    *lockspec.Spec
	tun     Tuning
	yield   int // tun.YieldEvery(), cached
	rt      *Runtime
	nodes   int
	threads int
	tag     uint64 // non-zero identity for throttle words (Env.Tag)
	// words[w][i] is element i (Ref addressing) of declared word w;
	// every element sits alone on its cache line.
	words [][]paddedUint64
	// scratch[t] is thread t's private scratch (Env.Scratch).
	scratch []scratchPad
	// nodeScratch[n] is node n's holder-only word (Env.NodeScratch).
	nodeScratch []nodePad
	// envs[t] is thread t's pooled environment, so an acquire allocates
	// nothing.
	envs []specEnv
	probeHolder
}

// scratchPad keeps each thread's scratch words on their own cache line.
type scratchPad struct {
	s [2]uint64
	_ [48]byte
}

// nodePad keeps each node's holder-only word on its own cache line.
type nodePad struct {
	v uint64
	_ [56]byte
}

// FromSpec instantiates spec as a native lock on runtime r. The
// returned lock additionally implements TimedLock, TryLocker and/or
// InjectWord(uint64) exactly as the spec's metadata declares, so
// capability dispatch (AcquireWithin, the correctness harness's probes)
// can rely on interface assertions.
func FromSpec(spec *lockspec.Spec, r *Runtime, tun Tuning) Lock {
	l := &specLock{
		spec:        spec,
		tun:         tun,
		yield:       tun.YieldEvery(),
		rt:          r,
		nodes:       r.nodes,
		threads:     r.maxThreads,
		tag:         lockIDs.Add(1),
		words:       make([][]paddedUint64, len(spec.Words)),
		scratch:     make([]scratchPad, r.maxThreads),
		nodeScratch: make([]nodePad, r.nodes),
		envs:        make([]specEnv, r.maxThreads),
	}
	for i := range l.envs {
		l.envs[i].l = l
	}
	if spec.MaxNodes > 0 && l.nodes > spec.MaxNodes {
		panic(fmt.Sprintf("core: %s supports at most %d nodes, runtime has %d",
			spec.Name, spec.MaxNodes, l.nodes))
	}
	for w, word := range spec.Words {
		elems := make([]paddedUint64, word.Elems(l.nodes, l.threads))
		if word.Init != nil {
			for i := range elems {
				elems[i].v.Store(word.Init(i, l.nodes))
			}
		}
		l.words[w] = elems
	}

	switch timed, try, inj := spec.Timed, spec.TryBody != nil, spec.Inject != nil; {
	case timed && try && inj:
		return specTimedTryI{specTimedTry{l}}
	case inj:
		panic(fmt.Sprintf("core: spec %s declares Inject without Timed and TryBody", spec.Name))
	case timed && try:
		return specTimedTry{l}
	case timed:
		return specTimed{l}
	case try:
		return specTry{l}
	default:
		return l
	}
}

// Capability wrappers: each exposes exactly the optional interfaces its
// spec declares, so a lock without a try path does not satisfy
// TryLocker (TestQueueLocksDoNotOfferTry pins this for TICKET).
type specTimed struct{ *specLock }        // CLH_TRY, HMCS_T
type specTry struct{ *specLock }          // MCS, RH, HBO_HIER, CNA
type specTimedTry struct{ *specLock }     // TATAS, TATAS_EXP
type specTimedTryI struct{ specTimedTry } // HBO, HBO_GT, HBO_GT_SD

func (l specTimed) AcquireFor(t *Thread, d time.Duration) bool { return l.acquireFor(t, d) }

func (l specTry) TryAcquire(t *Thread) bool { return l.tryAcquire(t) }

func (l specTimedTry) AcquireFor(t *Thread, d time.Duration) bool { return l.acquireFor(t, d) }
func (l specTimedTry) TryAcquire(t *Thread) bool                  { return l.tryAcquire(t) }

// InjectWord overwrites the spec's declared fault-injection word.
func (l specTimedTryI) InjectWord(v uint64) {
	ref := l.spec.Inject
	l.words[ref.W][ref.I].v.Store(v)
}

var (
	_ TimedLock = specTimed{}
	_ TryLocker = specTry{}
	_ TimedLock = specTimedTryI{}
	_ TryLocker = specTimedTryI{}
)

// Name returns the spec's algorithm name.
func (l *specLock) Name() string { return l.spec.Name }

// env returns thread t's environment for one operation. A pooled
// environment is left unbounded, unfired and with no spin count by the
// acquire that last used it, so binding the thread is all an operation
// has to do.
func (l *specLock) env(t *Thread) *specEnv {
	e := &l.envs[t.id]
	e.t = t
	return e
}

// finish reports an acquire's spin work and returns its environment to
// the idle state env relies on.
func (l *specLock) finish(e *specEnv) {
	l.spun(e.t, e.spins)
	e.fired, e.spins = false, 0
}

// Acquire runs the unbounded acquire.
func (l *specLock) Acquire(t *Thread) {
	e := l.env(t)
	l.spec.Acquire(e, &l.tun)
	if e.fired {
		l.finish(e)
	}
}

// acquireFor is the timed acquire backing TimedLock (d <= 0 = no bound).
func (l *specLock) acquireFor(t *Thread, d time.Duration) bool {
	if d <= 0 {
		l.Acquire(t)
		return true
	}
	e := l.env(t)
	e.timed, e.deadline = true, time.Now().Add(d)
	ok := l.spec.Acquire(e, &l.tun)
	e.timed = false
	if e.fired {
		l.finish(e)
	}
	return ok
}

// Release runs the spec's release body.
func (l *specLock) Release(t *Thread) {
	l.spec.Release(l.env(t), &l.tun)
}

// tryAcquire runs the spec's non-blocking attempt.
func (l *specLock) tryAcquire(t *Thread) bool {
	return l.spec.TryBody(l.env(t), &l.tun)
}

// Quiescent runs the spec's quiescence probe over the raw words (every
// spec declares one).
func (l *specLock) Quiescent() error { return l.spec.Quiesce(specPeeker{l}) }

// peek reads a raw word element — test access only.
func (l *specLock) peek(w, i int) uint64 { return l.words[w][i].v.Load() }

// specPeeker is the quiescence probe's raw view of the lock words.
type specPeeker struct{ l *specLock }

func (p specPeeker) Peek(w, i int) uint64 { return p.l.words[w][i].v.Load() }
func (p specPeeker) Nodes() int           { return p.l.nodes }
func (p specPeeker) Threads() int         { return p.l.threads }

// specEnv executes one thread's spec body against the native words.
type specEnv struct {
	l        *specLock
	t        *Thread
	deadline time.Time
	timed    bool
	fired    bool  // Contended probe fired this acquire
	spins    int64 // spin work reported at acquire completion
	_        cacheLinePad
}

var _ lockspec.Env = (*specEnv)(nil)

func (e *specEnv) word(w, i int) *atomic.Uint64 { return &e.l.words[w][i].v }

func (e *specEnv) TID() int     { return e.t.id }
func (e *specEnv) Node() int    { return e.t.node }
func (e *specEnv) Nodes() int   { return e.l.nodes }
func (e *specEnv) Threads() int { return e.l.threads }
func (e *specEnv) Tag() uint64  { return e.l.tag }

func (e *specEnv) Distance(a, b int) int { return e.l.rt.Distance(a, b) }

func (e *specEnv) Load(w, i int) uint64           { return e.word(w, i).Load() }
func (e *specEnv) Store(w, i int, v uint64)       { e.word(w, i).Store(v) }
func (e *specEnv) Swap(w, i int, v uint64) uint64 { return e.word(w, i).Swap(v) }
func (e *specEnv) TAS(w, i int) uint64            { return e.word(w, i).Swap(1) }

// CAS provides the spec's SPARC semantics: it returns expect exactly
// when the swap happened. A failed CompareAndSwap that then observes
// expect (the owner released in between) retries, because returning
// expect without owning would be a false acquisition.
func (e *specEnv) CAS(w, i int, expect, v uint64) uint64 {
	a := e.word(w, i)
	for {
		if a.CompareAndSwap(expect, v) {
			return expect
		}
		if cur := a.Load(); cur != expect {
			return cur
		}
	}
}

func (e *specEnv) CASOnce(w, i int, expect, v uint64) bool {
	return e.word(w, i).CompareAndSwap(expect, v)
}

func (e *specEnv) FetchAdd(w, i int, delta uint64) uint64 {
	return e.word(w, i).Add(delta) - delta
}
func (e *specEnv) HolderInc(w, i int) { e.word(w, i).Add(1) }

func (e *specEnv) Delay(units int) { spinDelay(units, e.l.yield) }

func (e *specEnv) Backoff(b, factor, cap int) int {
	e.noteSpin()
	backoff(&b, factor, cap, e.l.yield)
	return b
}

// noteSpin counts one unit of spin work once the acquire is contended.
func (e *specEnv) noteSpin() {
	if e.fired {
		e.spins++
	}
}

func (e *specEnv) Timed() bool { return e.timed }

func (e *specEnv) Expired() bool {
	return e.timed && time.Now().After(e.deadline)
}

func (e *specEnv) AwaitZero(w, i int) bool {
	a := e.word(w, i)
	if a.Load() == 0 {
		return true
	}
	e.SlowPath()
	for a.Load() != 0 {
		if e.Expired() {
			return false
		}
		e.noteSpin()
		runtime.Gosched()
	}
	return true
}

func (e *specEnv) AwaitWhile(w, i int, v uint64) (uint64, bool) {
	a := e.word(w, i)
	if cur := a.Load(); cur != v {
		return cur, true
	}
	e.SlowPath()
	for {
		cur := a.Load()
		if cur != v {
			return cur, true
		}
		if e.Expired() {
			return 0, false
		}
		e.noteSpin()
		runtime.Gosched()
	}
}

func (e *specEnv) AwaitLink(w, i int) uint64 {
	a := e.word(w, i)
	for {
		if v := a.Load(); v != 0 {
			return v
		}
		e.noteSpin()
		runtime.Gosched()
	}
}

// ThrottleWait polls at BackoffBase-sized delays — except under a
// deadline, where it polls on the fixed TimedPollUnits quantum both
// stacks share, so the abort-check cadence cannot become
// tuning-dependent in one stack only (the drift the hand-written
// native HBO shipped; TestTimedThrottlePollQuantum pins the fix).
func (e *specEnv) ThrottleWait(w, i int, v uint64) bool {
	a := e.word(w, i)
	for a.Load() == v {
		if e.timed {
			if time.Now().After(e.deadline) {
				return false
			}
			spinDelay(lockspec.TimedPollUnits, e.l.yield)
		} else {
			spinDelay(e.l.tun.BackoffBase, e.l.yield)
		}
	}
	return true
}

// GrantWait waits proportionally to the distance from the granted value
// (the ticket lock's proportional backoff). The delay alone never
// reaches spinDelay's yield threshold when few waiters are ahead, so a
// host with fewer CPUs than contenders would strand a preempted lock
// holder behind quantum-burning spinners; one yield per grant probe
// guarantees progress, and with idle CPUs it is nearly free.
func (e *specEnv) GrantWait(w, i int, my uint64) bool {
	a := e.word(w, i)
	if a.Load() == my {
		return true
	}
	e.SlowPath()
	for {
		cur := a.Load()
		if cur == my {
			return true
		}
		if e.Expired() {
			return false
		}
		e.noteSpin()
		ahead := int(my - cur)
		if ahead < 1 {
			ahead = 1
		}
		spinDelay(ahead*16, 1024)
		runtime.Gosched()
	}
}

func (e *specEnv) SlowPath() {
	if !e.fired {
		e.fired = true
		e.l.contended(e.t)
	}
}

func (e *specEnv) Scratch() *[2]uint64 { return &e.l.scratch[e.t.id].s }

func (e *specEnv) NodeScratch() *uint64 { return &e.l.nodeScratch[e.t.node].v }
