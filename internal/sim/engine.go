// Package sim provides a deterministic discrete-event simulation engine.
//
// The engine drives a set of cooperating processes, each a runtime
// coroutine (iter.Pull): resuming one is a direct switch on the calling
// thread, with no channel and no trip through the Go scheduler. Exactly
// one process executes between engine steps, so simulations are fully
// deterministic for a given seed regardless of the host scheduler. Events
// with equal timestamps fire in the order they were scheduled.
//
// There is one process kernel and nothing selects another: the event
// order is a property of the heap, not of how a body is suspended, so a
// second kernel could only differ in speed.
//
// There is also one event queue. Events fire in (at, pri, seq) order, and
// that rule is written once: Engine owns the clock, the heap, the sequence
// counter, the tie-break stream and the loop that pops them (runUntil). A
// ParEngine (pdes.go) is N Engines plus a barrier; it adds windows and
// mailboxes and no second queue.
//
// The machine model in internal/machine is built on this engine; nothing
// in this package knows about caches or locks.
package sim

import (
	"fmt"
	"iter"
	"sync"
)

// Time is simulated time in nanoseconds.
type Time int64

// Common durations.
const (
	Nanosecond  Time = 1
	Microsecond Time = 1000
	Millisecond Time = 1000 * 1000
	Second      Time = 1000 * 1000 * 1000
)

// String renders a Time using the most natural unit.
func (t Time) String() string {
	switch {
	case t >= Second:
		return fmt.Sprintf("%.3fs", float64(t)/float64(Second))
	case t >= Millisecond:
		return fmt.Sprintf("%.3fms", float64(t)/float64(Millisecond))
	case t >= Microsecond:
		return fmt.Sprintf("%.3fµs", float64(t)/float64(Microsecond))
	default:
		return fmt.Sprintf("%dns", int64(t))
	}
}

// Seconds converts t to floating-point seconds.
func (t Time) Seconds() float64 { return float64(t) / float64(Second) }

type event struct {
	at  Time
	pri uint64 // tie-break priority (0 unless the engine is perturbed)
	seq uint64
	fn  func()
}

// before orders events by timestamp, ties broken first by the perturbed
// priority and then by schedule order. With no perturbation every pri is
// zero, so the order degenerates to the classic FIFO tie-break.
func (a event) before(b event) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	if a.pri != b.pri {
		return a.pri < b.pri
	}
	return a.seq < b.seq
}

// eventHeap is a hand-rolled binary min-heap over event values. It
// replaces container/heap on the hottest path in the tree: heap.Push
// boxes every event into an interface{} (one allocation per Schedule)
// and dispatches sift compares through the heap.Interface method table.
// The monomorphic version allocates only when the backing array grows,
// and that storage is recycled across engines via heapPool.
type eventHeap []event

// push appends ev and sifts it up.
func (h *eventHeap) push(ev event) {
	s := append(*h, ev)
	i := len(s) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !s[i].before(s[parent]) {
			break
		}
		s[i], s[parent] = s[parent], s[i]
		i = parent
	}
	*h = s
}

// pop removes and returns the minimum event. The vacated tail slot is
// zeroed so the backing array does not pin the event's closure.
func (h *eventHeap) pop() event {
	s := *h
	top := s[0]
	n := len(s) - 1
	s[0] = s[n]
	s[n] = event{}
	s = s[:n]
	i := 0
	for {
		c := 2*i + 1
		if c >= n {
			break
		}
		if r := c + 1; r < n && s[r].before(s[c]) {
			c = r
		}
		if !s[c].before(s[i]) {
			break
		}
		s[i], s[c] = s[c], s[i]
		i = c
	}
	*h = s
	return top
}

// heapPool recycles event-heap backing arrays across engine lifetimes.
// Experiment sweeps construct one engine per simulation cell; reusing
// the storage keeps Schedule allocation-free from the second run on.
var heapPool = sync.Pool{
	New: func() interface{} {
		h := make(eventHeap, 0, 1024)
		return &h
	},
}

// Engine is a discrete-event simulator. The zero value is not usable;
// construct with NewEngine.
type Engine struct {
	now     Time
	events  eventHeap
	seq     uint64
	running int // live processes
	stopped bool
	limited bool // stopped was set by the time limit, not Stop
	killed  bool
	limit   Time // 0 = no limit
	end     Time // exclusive bound of the runUntil in progress
	procs   []*Process
	// tiebreak, when non-nil, assigns each scheduled event a random
	// priority that reorders equal-timestamp events (see Perturb).
	tiebreak *RNG
}

// killSignal unwinds a process body during Shutdown.
type killSignal struct{}

// IsKill reports whether a recovered panic value is the engine's
// internal shutdown signal. Process bodies that install their own
// recover (e.g. the correctness harness, which converts lock panics
// into recorded failures) must re-panic such values so Shutdown can
// unwind them normally.
func IsKill(r any) bool {
	_, ok := r.(killSignal)
	return ok
}

// NewEngine returns an engine with the clock at zero.
func NewEngine() *Engine {
	return &Engine{events: *heapPool.Get().(*eventHeap)}
}

// Now returns the current simulated time.
func (e *Engine) Now() Time { return e.now }

// SetLimit makes Run stop once the clock passes t (0 disables the
// limit). After a limit-induced stop, raising or clearing the limit
// re-arms the engine so Run can resume where it left off; a stop
// requested via Stop is never undone. Run reads the limit when it starts:
// call SetLimit between runs, not from an event.
func (e *Engine) SetLimit(t Time) {
	e.limit = t
	if e.limited && (t == 0 || t > e.now) {
		e.limited = false
		e.stopped = false
	}
}

// Perturb makes equal-timestamp events fire in a pseudo-random order
// drawn from seed instead of the default schedule (FIFO) order. Every
// linearization it produces is one the FIFO engine could legally have
// produced under a different arrival order, so simulations stay valid —
// they just take a different path through the tie-break space. The
// schedule-exploring checker in internal/check uses this to enumerate
// distinct interleavings; the same seed always yields the same order.
// A zero seed restores the default FIFO tie-break. Call before Run.
func (e *Engine) Perturb(seed uint64) {
	if seed == 0 {
		e.tiebreak = nil
		return
	}
	e.tiebreak = NewRNG(seed)
}

// Stop makes Run return after the current event completes.
func (e *Engine) Stop() { e.stopped = true }

// Stopped reports whether Stop has been called (or the time limit hit).
func (e *Engine) Stopped() bool { return e.stopped }

// Schedule runs fn at now+d. Scheduling in the past (d < 0) panics, as
// does scheduling on an engine that has been shut down.
func (e *Engine) Schedule(d Time, fn func()) {
	if d < 0 {
		panic(fmt.Sprintf("sim: schedule %v in the past", d))
	}
	if e.killed {
		panic("sim: Schedule after Shutdown (the engine cannot be reused)")
	}
	e.seq++
	var pri uint64
	if e.tiebreak != nil {
		pri = e.tiebreak.Uint64()
	}
	e.events.push(event{at: e.now + d, pri: pri, seq: e.seq, fn: fn})
}

// Pending returns the number of queued events.
func (e *Engine) Pending() int { return len(e.events) }

// Run executes events in timestamp order until no events remain, Stop is
// called, or the time limit is exceeded. It must be called from the same
// goroutine that constructed the engine. A panic in a process body (or an
// event callback) propagates out of Run to that caller; Shutdown then
// still releases the other processes.
//
// Hitting the time limit leaves the offending event queued (the heap is
// only peeked), so raising the limit with SetLimit and calling Run again
// resumes without losing it.
func (e *Engine) Run() {
	if e.limit == 0 {
		e.runUntil(maxTime)
		return
	}
	e.runUntil(e.limit + 1) // exclusive bound: an event at exactly the limit fires
	if len(e.events) > 0 && !e.stopped {
		e.now = e.limit
		e.stopped = true
		e.limited = true
	}
}

// maxTime is the largest Time: the bound of a run with no limit.
const maxTime = Time(1<<63 - 1)

// runUntil fires queued events with timestamps before end, in (at, pri,
// seq) order, until none is left or Stop is called. It is the one event
// loop: Run bounds it by the limit, a ParEngine partition by its window.
func (e *Engine) runUntil(end Time) {
	e.end = end
	for len(e.events) > 0 && !e.stopped {
		at := e.events[0].at
		if at >= end {
			return
		}
		if at < e.now {
			panic("sim: event time went backwards")
		}
		e.now = at
		ev := e.events.pop()
		ev.fn()
	}
}

// A Process is a simulated thread of control. Its body runs on its own
// coroutine but only ever executes while the engine has handed control to
// it, so process code may freely touch engine state without locking.
type Process struct {
	e       *Engine
	id      int
	resume  func()              // engine side: run the body until it parks or finishes
	yield   func(struct{}) bool // body side: park; false once stop was called
	stop    func()              // nil until the start event has created the coroutine
	done    bool
	blocked bool // parked with no wake event (waiting on Wake)
}

// ID returns the identifier given at Spawn.
func (p *Process) ID() int { return p.id }

// Engine returns the owning engine.
func (p *Process) Engine() *Engine { return p.e }

// Now returns the current simulated time.
func (p *Process) Now() Time { return p.e.now }

// Spawn creates a process whose body starts executing at the current time
// (after previously scheduled same-time events). The body must only
// interact with simulated time via the Process methods. Spawning on an
// engine that has been shut down panics.
//
// A panic in the body is re-raised in whoever resumed the process — the
// event loop, so it leaves Run on the caller's goroutine with the original
// value (the stack is the engine's, not the body's). A body that installs
// its own recover must re-panic values for which IsKill is true.
func (e *Engine) Spawn(id int, body func(p *Process)) *Process {
	if e.killed {
		panic("sim: Spawn after Shutdown (the engine cannot be reused)")
	}
	p := &Process{e: e, id: id}
	e.running++
	e.procs = append(e.procs, p)
	// The coroutine is created by the start event, not here: one that is
	// never resumed would have to be stopped to be freed.
	e.Schedule(0, func() {
		var next func() (struct{}, bool)
		next, p.stop = iter.Pull(func(yield func(struct{}) bool) {
			p.yield = yield
			defer func() {
				p.done = true
				e.running--
				if r := recover(); r != nil && !IsKill(r) {
					panic(r)
				}
			}()
			body(p)
		})
		p.resume = func() { next() }
		p.resume()
	})
	return p
}

// Shutdown unwinds every process that has not finished and releases the
// engine's event storage. It must be called after Run returns (or panics);
// the engine cannot be used afterwards (Spawn and Schedule panic).
// Simulations that stop early (Stop or a time limit) should call
// Shutdown to avoid leaking the coroutines backing parked processes.
func (e *Engine) Shutdown() {
	if e.killed {
		return
	}
	e.killed = true
	e.stopped = true
	for _, p := range e.procs {
		switch {
		case p.done:
		case p.stop == nil:
			// The spawn event never ran; no coroutine exists yet.
			p.done = true
			e.running--
		default:
			p.stop() // park returns false; the body unwinds on killSignal
		}
	}
	// Recycle the heap storage for the next engine. Clear any events
	// still queued (e.g. after a time-limit stop) so their closures are
	// not pinned while the array sits in the pool.
	h := e.events
	for i := range h {
		h[i] = event{}
	}
	h = h[:0]
	e.events = nil
	heapPool.Put(&h)
}

// park suspends the body until the engine resumes it; a stop unwinds it.
func (p *Process) park() {
	if !p.yield(struct{}{}) {
		panic(killSignal{})
	}
}

// Sleep advances the process's local time by d.
func (p *Process) Sleep(d Time) {
	if d < 0 {
		panic("sim: negative sleep")
	}
	if d == 0 {
		return
	}
	e := p.e
	wake := e.now + d
	// Fast path: if no queued event fires before (or at) the wake time,
	// the engine would pop our wake event straight back to us — two
	// coroutine switches for nothing. Advance the clock in place
	// instead. This fires exactly when the wake event would have been
	// the next event popped, so the global event order (and therefore
	// determinism) is unchanged; pending equal-time events keep priority
	// because they were scheduled earlier.
	if !e.stopped && (len(e.events) == 0 || wake < e.events[0].at) && wake < e.end {
		e.now = wake
		return
	}
	e.Schedule(d, p.resume)
	p.park()
}

// Block parks the process indefinitely; another party must call Wake.
func (p *Process) Block() {
	p.blocked = true
	p.park()
}

// Blocked reports whether the process is parked in Block.
func (p *Process) Blocked() bool { return p.blocked }

// Done reports whether the process body has returned.
func (p *Process) Done() bool { return p.done }

// Wake schedules a blocked process to resume at now+d. Waking a process
// that is not blocked panics (it would resume a body that is not parked).
func (p *Process) Wake(d Time) {
	if !p.blocked {
		panic("sim: wake of non-blocked process")
	}
	p.blocked = false
	p.e.Schedule(d, p.resume)
}

// Running returns the number of processes that have not finished.
func (e *Engine) Running() int { return e.running }
