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
// Probe. The simulated twin of the same spec lives in
// internal/simlock/spec.go; every shared word and every atomic
// transition come from the one body, so the two stacks cannot drift
// apart by editing one copy.

// specLock is a native lock built from a spec.
type specLock struct {
	spec    *lockspec.Spec
	tun     Tuning
	yield   int // tun.YieldEvery(), cached
	nodes   int
	threads int
	tag     uint64 // non-zero identity for throttle words (Env.Tag)
	// words[w][i] is element i (Ref addressing) of declared word w;
	// every element sits alone on its cache line.
	words [][]paddedUint64
	// scratch[t] is thread t's private scratch (Env.Scratch); nil when
	// the lock was built without a Runtime (see FromSpec).
	scratch []scratchPad
	// envs[t] is thread t's pooled environment, so an acquire allocates
	// nothing; nil when built without a Runtime.
	envs []specEnv
	probeHolder
}

// scratchPad keeps each thread's scratch words on their own cache line.
type scratchPad struct {
	s [4]uint64
	_ [32]byte
}

// FromSpec instantiates spec as a native lock on runtime r. The
// returned lock additionally implements TimedLock, TryLocker,
// Quiescent() error and/or InjectWord(uint64) exactly as the spec's
// metadata declares, so capability dispatch (AcquireWithin, the
// correctness harness's probes) sees the same surface the hand-written
// locks offered.
//
// r may be nil only for specs whose words are all lock-scoped and whose
// bodies do not carry scratch across calls (the single-word locks the
// no-argument constructors build); such a lock allocates a transient
// environment per operation instead of using the per-thread pool.
func FromSpec(spec *lockspec.Spec, r *Runtime, tun Tuning) Lock {
	if !spec.Backed() {
		panic(fmt.Sprintf("core: spec %s has no bodies", spec.Name))
	}
	if spec.SimOnly {
		panic(fmt.Sprintf("core: spec %s is simulator-only", spec.Name))
	}
	l := &specLock{
		spec:  spec,
		tun:   tun,
		yield: tun.YieldEvery(),
		nodes: 1,
		tag:   lockIDs.Add(1),
	}
	if r != nil {
		l.nodes = r.nodes
		l.threads = r.maxThreads
		l.scratch = make([]scratchPad, r.maxThreads)
		l.envs = make([]specEnv, r.maxThreads)
		for i := range l.envs {
			l.envs[i].l = l
		}
	}
	if spec.MaxNodes > 0 && l.nodes > spec.MaxNodes {
		panic(fmt.Sprintf("core: %s supports at most %d nodes, runtime has %d",
			spec.Name, spec.MaxNodes, l.nodes))
	}
	l.words = make([][]paddedUint64, len(spec.Words))
	for w, word := range spec.Words {
		if r == nil && word.Scope != lockspec.ScopeLock {
			panic(fmt.Sprintf("core: spec %s needs a *Runtime (scoped word %q)",
				spec.Name, word.Name))
		}
		elems := make([]paddedUint64, word.Elems(l.nodes, l.threads))
		if word.Init != 0 {
			for i := range elems {
				elems[i].v.Store(word.Init)
			}
		}
		l.words[w] = elems
	}

	timed, try, q, inj := spec.Timed, spec.TryBody != nil, spec.Quiesce != nil, spec.Inject != nil
	if inj && !q {
		panic(fmt.Sprintf("core: spec %s declares Inject without Quiesce", spec.Name))
	}
	switch {
	case timed && try && q && inj:
		return specTimedTryQI{specTimedTryQ{l}}
	case timed && try && q:
		return specTimedTryQ{l}
	case timed && try:
		return specTimedTry{l}
	case timed && q:
		return specTimedQ{l}
	case try && q:
		return specTryQ{l}
	case q:
		return specQ{l}
	case !timed && !try:
		return l
	default:
		panic(fmt.Sprintf("core: spec %s has unsupported capability combination", spec.Name))
	}
}

// Capability wrappers: each exposes exactly the optional interfaces its
// spec declares, so a lock without a try path does not satisfy
// TryLocker (TestQueueLocksDoNotOfferTry pins this for TICKET).
type specTimedTry struct{ *specLock }  // TATAS, TATAS_EXP
type specQ struct{ *specLock }         // TICKET
type specTryQ struct{ *specLock }      // CNA
type specTimedQ struct{ *specLock }    // HMCS_T
type specTimedTryQ struct{ *specLock } // (HBO family before Inject)
type specTimedTryQI struct{ specTimedTryQ }

func (l specTimedTry) AcquireFor(t *Thread, d time.Duration) bool { return l.acquireFor(t, d) }
func (l specTimedTry) TryAcquire(t *Thread) bool                  { return l.tryAcquire(t) }

func (l specQ) Quiescent() error { return l.quiescent() }

func (l specTryQ) TryAcquire(t *Thread) bool { return l.tryAcquire(t) }
func (l specTryQ) Quiescent() error          { return l.quiescent() }

func (l specTimedQ) AcquireFor(t *Thread, d time.Duration) bool { return l.acquireFor(t, d) }
func (l specTimedQ) Quiescent() error                           { return l.quiescent() }

func (l specTimedTryQ) AcquireFor(t *Thread, d time.Duration) bool { return l.acquireFor(t, d) }
func (l specTimedTryQ) TryAcquire(t *Thread) bool                  { return l.tryAcquire(t) }
func (l specTimedTryQ) Quiescent() error                           { return l.quiescent() }

func (l specTimedTryQI) InjectWord(v uint64) { l.injectWord(v) }

var (
	_ TimedLock = specTimedTry{}
	_ TryLocker = specTimedTry{}
	_ TimedLock = specTimedTryQI{}
	_ TryLocker = specTryQ{}
	_ TimedLock = specTimedQ{}
)

// Name returns the spec's algorithm name.
func (l *specLock) Name() string { return l.spec.Name }

// env returns thread t's environment for one operation. A pooled
// environment is left unbounded, unfired and with no spin count by the
// acquire that last used it, so binding the thread is all an operation
// has to do.
func (l *specLock) env(t *Thread) *specEnv {
	var e *specEnv
	if l.envs != nil {
		e = &l.envs[t.id]
	} else {
		e = &specEnv{l: l}
	}
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

// quiescent runs the spec's quiescence probe over the raw words.
func (l *specLock) quiescent() error { return l.spec.Quiesce(specPeeker{l}) }

// injectWord overwrites the spec's declared fault-injection word.
func (l *specLock) injectWord(v uint64) {
	ref := l.spec.Inject
	l.words[ref.W][ref.I].v.Store(v)
}

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
	// local backs Scratch for runtime-free locks (valid within one
	// operation — specs that carry scratch from Acquire to Release have
	// scoped words and therefore always a Runtime-backed pool).
	local [4]uint64
	_     cacheLinePad
}

var _ lockspec.Env = (*specEnv)(nil)

func (e *specEnv) word(w, i int) *atomic.Uint64 { return &e.l.words[w][i].v }

func (e *specEnv) TID() int     { return e.t.id }
func (e *specEnv) Node() int    { return e.t.node }
func (e *specEnv) Nodes() int   { return e.l.nodes }
func (e *specEnv) Threads() int { return e.l.threads }
func (e *specEnv) Tag() uint64  { return e.l.tag }

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

func (e *specEnv) FetchInc(w, i int) uint64 { return e.word(w, i).Add(1) - 1 }
func (e *specEnv) HolderInc(w, i int)       { e.word(w, i).Add(1) }

func (e *specEnv) Delay(units int) { spinDelay(units, e.l.yield) }

func (e *specEnv) Backoff(b *int, factor, cap int) {
	e.noteSpin()
	backoff(b, factor, cap, e.l.yield)
}

// noteSpin counts one unit of spin work once the acquire is contended.
func (e *specEnv) noteSpin() {
	if e.fired {
		e.spins++
	}
}

func (e *specEnv) Expired() bool {
	return e.timed && time.Now().After(e.deadline)
}

func (e *specEnv) AwaitZero(w, i int) bool {
	a := e.word(w, i)
	for a.Load() != 0 {
		if e.timed && time.Now().After(e.deadline) {
			return false
		}
		e.noteSpin()
		runtime.Gosched()
	}
	return true
}

func (e *specEnv) AwaitWhile(w, i int, v uint64) (uint64, bool) {
	a := e.word(w, i)
	for {
		cur := a.Load()
		if cur != v {
			return cur, true
		}
		if e.timed && time.Now().After(e.deadline) {
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
		if e.timed && time.Now().After(e.deadline) {
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

func (e *specEnv) Scratch() *[4]uint64 {
	if e.l.scratch != nil {
		return &e.l.scratch[e.t.id].s
	}
	return &e.local
}
