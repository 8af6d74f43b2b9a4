package sim

import (
	"fmt"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"time"
)

// This file implements conservative parallel discrete-event simulation
// (PDES). A ParEngine splits the event set into partitions (logical
// processes), and each partition is a sequential Engine: its clock, heap,
// sequence counter, tie-break stream and event loop are the Engine's own,
// run one window at a time. Partitions only interact through timestamped
// messages that must be sent at least one lookahead ahead of the sender's
// clock, which makes the classic conservative window argument hold: if T
// is the minimum next-event time across all partitions, every event
// before T+lookahead is causally independent of anything another
// partition has yet to do, so all partitions may execute the window
// [T, T+lookahead) concurrently.
//
// Determinism contract (the property everything downstream relies on):
// the simulation result is byte-identical for any worker count,
// including workers=1. Three mechanisms enforce it:
//
//  1. Partition-owned state. During a window a partition touches only
//     its own Engine and its span's outboxes; the simulation model built
//     on top must confine each partition's mutable state the same way
//     (cross-partition effects go through Send).
//  2. Barrier-phase delivery. Messages produced during a window are
//     pushed into the destination heaps only after all partitions have
//     finished it, delivered in partition order, emission order; the
//     heap key does the merge. A destination numbers its arrivals as
//     they are scheduled, so arrivals due at the same time fire in
//     (source partition, emission) order and the rest in time order —
//     arrival interleaving never leaks into event order, and nothing is
//     sorted.
//  3. Partition-stable tie-breaks. Each partition numbers its own
//     events; perturbed runs (Perturb) derive one RNG stream per
//     partition from an FNV-1a mix of (seed, partition), so the
//     tie-break priority of an event never depends on which worker
//     executed which partition first. A delivered message draws its
//     priority when it is delivered, so a window's arrivals at one
//     partition draw in (source partition, emission) order: a pure
//     function of (seed, partition) at every width. (Before the sort
//     went they drew in (timestamp, source, emission) order, so a seed
//     perturbs to a different schedule than it used to; nothing outside
//     this package's tests perturbs a ParEngine.)
//
// A one-partition ParEngine therefore fires the same events in the same
// order, at the same clock readings, as an Engine given the same schedule
// (TestOnePartitionParEngineMatchesEngine): what this file adds is the
// window bound passed to Engine.runUntil, the outboxes and the barrier.
// The Engine used alone remains the right tool for models with globally
// shared state (internal/machine's word-level coherence simulation);
// ParEngine is for models whose state is partitioned, such as the
// cluster-scale interconnect machine in internal/machine.
//
// The barrier is built so that a window costs its events and little else.
// Partitions are grouped into spans of consecutive ids; a span is what a
// worker claims, with one atomic operation, to run and later to deliver
// to, and it keeps its partitions' next-event times where the next window
// can be found without visiting them. Run's helpers are started once, wait
// by a bounded spin and then park, and are never waited for: a phase is
// over when its spans are done, whoever did them. See runWindow.

// Msg is a cross-partition event in flight: fn will execute on the
// destination partition at the given absolute time.
type msg struct {
	at  Time
	dst int
	fn  func()
}

// ParEngine is a conservative parallel discrete-event simulator over a
// fixed set of partitions. Construct with NewParEngine, obtain the
// partition handles with Part, schedule initial events, then call Run.
type ParEngine struct {
	// Fixed at construction (mailCap: before Run); event code reads these.
	parts     []*Part
	spans     []span
	spanLen   int // partitions in a span (the last may have fewer)
	workers   int
	lookahead Time
	mailCap   int
	killed    bool

	now     Time // committed lower bound (start of the current window)
	limit   Time // 0 = no limit
	limited bool
	stopped atomic.Bool

	// The shared phase (see runWindow). end and delivering are written by
	// Run's goroutine while no worker has anything to claim and read by a
	// worker only after it has claimed; left counts the spans not yet done.
	ws         []worker // [0] is Run's own goroutine; empty when Run has no helper
	helpers    sync.WaitGroup
	end        Time // exclusive bound of the window
	delivering bool // the open phase is deliver, not run
	left       atomic.Int64
	failMu     sync.Mutex
	fail       *partPanic
}

// A span is a run of consecutive partitions: what a worker claims at a
// time, in the run phase to fire their events and in the deliver phase to
// fill their heaps. Whoever claims a span works through it alone and in id
// order, which is what keeps out in a deterministic order and every field
// here free of locks.
type span struct {
	id    int
	parts []*Part
	// next[i] is when parts[i]'s earliest queued event is due (maxTime:
	// none), kept by whoever last changed that heap, so nobody has to go
	// through the partitions to find the active ones or the next window;
	// min is the least of them after the span's last delivery.
	next []Time
	min  Time
	// out[j] is what the span's partitions sent to span j's in the window
	// just run, in (source partition, emission) order. The sender appends;
	// span j's deliverer reads it and the others'; the sender empties it
	// at the start of its next run.
	out [][]msg
}

// DefaultMailboxCap bounds how many cross-partition messages a single
// partition may emit within one window before Send panics. The bound
// exists to surface runaway models (a partition flooding a neighbor
// faster than simulated time advances) instead of letting the merge
// buffer grow without limit.
const DefaultMailboxCap = 1 << 20

// spanMin is the least number of partitions worth a claim: a cluster
// window holds two or three events a partition, so a span much shorter
// costs more to hand to another core than to run. spansPerWorker is how
// finely the partitions are cut beyond that: enough spans that a worker
// stuck with a hot partition can leave the rest of its share to the
// others, few enough that delivery, which looks at spans squared outboxes
// a window, stays cheap.
const (
	spanMin        = 16
	spansPerWorker = 4
)

// NewParEngine returns a parallel engine with parts partitions executed
// by up to workers OS-level workers. lookahead is the minimum simulated
// delay of any cross-partition message (Send enforces it); it must be
// positive, because a zero lookahead admits no conservative window.
// workers <= 1 executes windows on the calling goroutine — the
// sequential degenerate case — with identical results.
func NewParEngine(parts, workers int, lookahead Time) *ParEngine {
	if parts < 1 {
		panic("sim: ParEngine needs at least one partition")
	}
	if lookahead <= 0 {
		panic("sim: ParEngine lookahead must be positive")
	}
	if workers < 1 {
		workers = 1
	}
	d := &ParEngine{workers: workers, lookahead: lookahead, mailCap: DefaultMailboxCap}
	// One span for one worker: nothing to share, one outbox to deliver.
	spans := 1
	if workers > 1 {
		spans = max(1, min(parts/spanMin, workers*spansPerWorker))
	}
	d.spanLen = (parts + spans - 1) / spans
	d.parts = make([]*Part, parts)
	next := make([]Time, parts)
	for lo := 0; lo < parts; lo += d.spanLen {
		hi := min(lo+d.spanLen, parts)
		d.spans = append(d.spans, span{id: len(d.spans), parts: d.parts[lo:hi], next: next[lo:hi]})
	}
	for i := range d.spans {
		s := &d.spans[i]
		s.out = make([][]msg, len(d.spans))
		for j := range s.parts {
			s.parts[j] = &Part{d: d, s: s, id: i*d.spanLen + j, q: Engine{events: *heapPool.Get().(*eventHeap)}}
		}
	}
	return d
}

// Workers returns the configured worker width.
func (d *ParEngine) Workers() int { return d.workers }

// Lookahead returns the engine's conservative window size.
func (d *ParEngine) Lookahead() Time { return d.lookahead }

// Part returns partition i's handle.
func (d *ParEngine) Part(i int) *Part { return d.parts[i] }

// Now returns the committed global simulation time: the start of the
// window being (or about to be) executed. Individual partitions may be
// ahead of it by up to one lookahead; use Part.Now inside event code.
func (d *ParEngine) Now() Time { return d.now }

// SetLimit makes Run stop once every remaining event lies past t
// (0 disables the limit). Like Engine.SetLimit, raising or clearing the
// limit after a limit-induced stop re-arms the engine.
func (d *ParEngine) SetLimit(t Time) {
	d.limit = t
	if d.limited && (t == 0 || t > d.now) {
		d.limited = false
	}
}

// Stop makes Run return at the next window boundary. Unlike the
// sequential engine, which stops after the current event, a parallel
// window always completes once started — that is what keeps the result
// independent of which worker observes the flag first. Safe to call
// from event code in any partition.
func (d *ParEngine) Stop() { d.stopped.Store(true) }

// Stopped reports whether Stop has been called or the limit was hit.
func (d *ParEngine) Stopped() bool { return d.stopped.Load() || d.limited }

// Perturb gives every partition its own tie-break RNG stream derived
// from an FNV-1a mix of (seed, partition id), so equal-timestamp events
// within a partition fire in a pseudo-random but partition-stable order:
// the same seed yields the same schedule at every worker width. A zero
// seed restores FIFO tie-breaks. Call before Run.
func (d *ParEngine) Perturb(seed uint64) {
	for _, p := range d.parts {
		s := seed
		if s != 0 {
			s = mixSeed(seed, uint64(p.id))
		}
		p.q.Perturb(s)
	}
}

// Pending returns the total number of queued events across partitions.
func (d *ParEngine) Pending() int {
	n := 0
	for _, p := range d.parts {
		n += p.q.Pending()
	}
	return n
}

// mixSeed folds part into seed with FNV-1a so perturbation streams and
// other per-partition derived seeds are decorrelated but reproducible.
// This is the partition-stable extension of the engine's tie-break
// scheme: the stream depends on (seed, partition), never on global
// schedule order.
func mixSeed(seed, part uint64) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for i := 0; i < 8; i++ {
		h ^= (seed >> (8 * i)) & 0xff
		h *= prime64
	}
	for i := 0; i < 8; i++ {
		h ^= (part >> (8 * i)) & 0xff
		h *= prime64
	}
	if h == 0 {
		h = offset64
	}
	return h
}

// PartitionSeed derives a partition-stable RNG seed from a run seed and
// a partition id (FNV-1a mix, never zero). Models built on ParEngine
// must draw per-partition randomness from streams seeded this way —
// never from one shared stream, whose draw order would depend on
// execution interleaving.
func PartitionSeed(seed uint64, part int) uint64 { return mixSeed(seed, uint64(part)) }

// partPanic carries an event panic from a worker goroutine back to the
// Run caller. The lowest partition id wins when several partitions fail
// in the same window, so crash reports do not depend on scheduling.
type partPanic struct {
	part  int
	value any
}

// Run executes windows until no events remain, Stop is called, or every
// remaining event lies past the time limit. It must be called from the
// goroutine that constructed the engine. A panic inside event code is
// re-raised on this goroutine (lowest partition id first). Helper
// goroutines live only inside Run: started here, stopped and waited for
// on every way out.
func (d *ParEngine) Run() {
	if d.killed {
		panic("sim: Run after Shutdown (the engine cannot be reused)")
	}
	// A helper with no CPU of its own can only take one from Run's
	// goroutine, and one with no span of its own only steals.
	if n := min(d.workers, runtime.GOMAXPROCS(0), len(d.spans)); n > 1 {
		d.startHelpers(n - 1)
		defer d.stopHelpers()
	}
	// What was scheduled and sent from outside Run is not in next or the
	// heaps yet; what the last window sent is delivered and must not be
	// again when Run is called once more.
	defer func() {
		for i := range d.spans {
			d.spans[i].emptyOut()
		}
	}()
	for i := range d.spans {
		s := &d.spans[i]
		for j, p := range s.parts {
			s.next[j] = p.head()
		}
		d.deliver(s)
	}
	for !d.stopped.Load() {
		// The window starts at the earliest queued event anywhere.
		first := maxTime
		for i := range d.spans {
			first = min(first, d.spans[i].min)
		}
		if first == maxTime {
			return // drained
		}
		if first < d.now {
			panic("sim: event time went backwards across windows")
		}
		if d.limit > 0 && first > d.limit {
			d.now = d.limit
			d.limited = true
			return
		}
		d.now = first
		d.end = first + d.lookahead
		if d.limit > 0 && d.end > d.limit+1 {
			// Clamp so no event past the limit executes; events at
			// exactly the limit still do, matching Engine semantics.
			d.end = d.limit + 1
		}
		d.runWindow()
	}
}

// spinBudget is how many times an idle worker polls before it parks, some
// 60 µs: a CPU someone else needs is given up within that time. rouseGap
// is the least time between two wakes of one helper by Run's goroutine. A
// wake costs the waker some 6 µs, and up to 200 µs when the woken thread
// lands on the waker's CPU and polls its budget away there (two threads on
// one CPU is what a process looks like in its first second on the 2-CPU
// host), so the gap keeps the worst case at a tenth of the run.
const (
	spinBudget = 1 << 16
	rouseGap   = 2 * time.Millisecond
)

// A worker is one participant of a shared window: Run's own goroutine
// (ParEngine.ws[0]) or a helper. Worker k of n starts every phase on
// spans [k*spans/n, (k+1)*spans/n), so that it runs the partitions it ran
// last window and fills the heaps it will pop, and their memory stays in
// one core's cache. That share is a preference, not a duty: what a worker
// has not claimed, another may. Each worker sits on its own cache line;
// it polls and claims from its own word, and only a thief or Run's next
// phase touches another's.
type worker struct {
	// work is the unclaimed part [lo, hi) of this worker's share of the
	// spans, lo in the high half; quitWork tells a helper to exit. The
	// owner claims from the front and thieves from the back, so what a
	// worker loses to a thief in one window it mostly loses in the next.
	work   atomic.Uint64
	parked atomic.Bool   // set while the worker may be blocked on wake
	wake   chan struct{} // buffered(1): a token is never lost, a stale one costs one more poll
	roused time.Time     // when Run's goroutine last woke this helper
	_      [16]byte
}

const quitWork = ^uint64(0) // lo == hi: nothing to claim

// take claims one span of the share, the last one for a thief. A claim
// that succeeds is a claim on the phase now open, even if the claimant
// last looked during an earlier one: Run republishes a word only when
// every share is empty and every claimed span done, so the caller must
// read the phase's data after take, not before.
func (w *worker) take(thief bool) (span int, ok bool) {
	for {
		old := w.work.Load()
		lo, hi := int(old>>32), int(uint32(old))
		if lo >= hi {
			return 0, false
		}
		if thief {
			if w.work.CompareAndSwap(old, old-1) {
				return hi - 1, true
			}
		} else if w.work.CompareAndSwap(old, old+1<<32) {
			return lo, true
		}
	}
}

// rouse unparks the worker if it is parked (or about to: it sets parked
// and then looks once more before blocking).
func (w *worker) rouse() {
	if w.parked.Load() {
		select {
		case w.wake <- struct{}{}:
		default:
		}
	}
}

// await polls ready for spinBudget rounds and then parks until a rouse,
// as often as it takes for ready to hold.
func (w *worker) await(ready func() bool) {
	for {
		for i := 0; i < spinBudget; i++ {
			if ready() {
				return
			}
		}
		w.parked.Store(true)
		if !ready() {
			<-w.wake
		}
		w.parked.Store(false)
	}
}

func (d *ParEngine) startHelpers(n int) {
	d.ws = make([]worker, n+1)
	for k := range d.ws {
		d.ws[k].wake = make(chan struct{}, 1)
	}
	d.helpers.Add(n)
	for k := 1; k <= n; k++ {
		go d.help(k)
	}
}

// stopHelpers runs with no phase open: every helper is polling or parked.
func (d *ParEngine) stopHelpers() {
	for k := 1; k < len(d.ws); k++ {
		d.ws[k].work.Store(quitWork)
		d.ws[k].rouse()
	}
	d.helpers.Wait()
	d.ws = nil
}

// help is helper k's life: wait for its share to fill, work, repeat.
func (d *ParEngine) help(k int) {
	defer d.helpers.Done()
	me := &d.ws[k]
	for {
		me.await(func() bool {
			w := me.work.Load()
			return w == quitWork || uint32(w>>32) < uint32(w)
		})
		if me.work.Load() == quitWork {
			return
		}
		d.work(k)
	}
}

// work is worker k's part in the open phase: its own share from the
// front, then what is left of the others' from the back.
func (d *ParEngine) work(k int) {
	did := 0
	for i := range d.ws {
		w := &d.ws[(k+i)%len(d.ws)]
		for {
			j, ok := w.take(i > 0)
			if !ok {
				break
			}
			if s := &d.spans[j]; d.delivering {
				d.deliver(s)
			} else {
				d.runSpan(s)
			}
			did++
		}
	}
	if did > 0 && d.left.Add(int64(-did)) == 0 && k > 0 {
		d.ws[0].rouse()
	}
}

// runWindow executes the window [now, end) and delivers what it sent. A
// window with events in two spans or more is shared, if there are helpers,
// in two phases with a barrier after each: run, then deliver, each span an
// item of both. Nobody is waited for before a phase starts and nobody need
// turn up: a phase is over when its spans are done, Run's goroutine works
// through its own share and then everybody else's, and a helper that the
// OS has taken off its CPU finds its share empty when it comes back. What
// is waited for is a claimed span.
func (d *ParEngine) runWindow() {
	busy := 0
	for i := range d.spans {
		if d.spans[i].min < d.end {
			busy++
		}
	}
	if busy < 2 || len(d.ws) == 0 {
		for i := range d.spans {
			d.spans[i].emptyOut()
			d.spans[i].run(new(int), d.end)
		}
		for i := range d.spans {
			d.deliver(&d.spans[i])
		}
		return
	}
	d.delivering = false
	d.phase()
	if f := d.fail; f != nil {
		d.fail = nil
		panic(f.value)
	}
	d.delivering = true
	d.phase()
}

// phase gives each worker its share of the spans, works, and returns when
// all of them are done.
func (d *ParEngine) phase() {
	n := len(d.spans)
	d.left.Store(int64(n))
	for k := len(d.ws) - 1; k >= 0; k-- {
		w := &d.ws[k]
		w.work.Store(uint64(k*n/len(d.ws))<<32 | uint64((k+1)*n/len(d.ws)))
		// A helper that parks again and again is one with no CPU of its
		// own, or with little to do: woken every time, it would cost this
		// goroutine a wake, and the CPU while it polls, for each.
		if k > 0 && w.parked.Load() && time.Since(w.roused) > rouseGap {
			w.roused = time.Now()
			w.rouse()
		}
	}
	d.work(0)
	d.ws[0].await(func() bool { return d.left.Load() == 0 })
}

// emptyOut forgets what the span sent: it has been delivered. Whoever is
// about to run the span calls it first.
func (s *span) emptyOut() {
	for j := range s.out {
		s.out[j] = s.out[j][:0]
	}
}

// run fires the events before end of the span's partitions from *i on,
// leaving in *i the partition it is at.
func (s *span) run(i *int, end Time) {
	for ; *i < len(s.parts); *i++ {
		if s.next[*i] < end {
			p := s.parts[*i]
			p.sent = 0
			p.q.runUntil(end)
			s.next[*i] = p.head()
		}
	}
}

// runSpan is run for a shared window: an event's panic is recorded, the
// lowest partition id winning, and the partitions after it still run, so
// that what Run re-raises does not depend on who ran what when.
func (d *ParEngine) runSpan(s *span) {
	s.emptyOut()
	for i := 0; i < len(s.parts); i++ { // i++: past the partition that panicked
		func() {
			defer func() {
				if r := recover(); r != nil {
					d.failMu.Lock()
					if id := s.parts[i].id; d.fail == nil || id < d.fail.part {
						d.fail = &partPanic{part: id, value: r}
					}
					d.failMu.Unlock()
				}
			}()
			s.run(&i, d.end)
		}()
	}
}

// deliver moves what every span sent to span to's partitions into their
// heaps: source spans in order, each outbox in the order it was filled,
// which is (source partition, emission) order. No sort is needed. The
// destination Engine numbers arrivals as they are scheduled, so two
// messages due at the same time fire in (source partition, emission)
// order by the heap's own (at, pri, seq) key, and messages due at
// different times are ordered by at. A span is delivered to by one caller,
// whoever that is, so the order does not depend on the width.
func (d *ParEngine) deliver(to *span) {
	for i := range d.spans {
		out := d.spans[i].out[to.id]
		for k := range out {
			m := &out[k]
			j := m.dst - to.id*d.spanLen
			q := &to.parts[j].q
			q.Schedule(m.at-q.now, m.fn)
			m.fn = nil // don't pin the closure in the reused buffer
			to.next[j] = min(to.next[j], m.at)
		}
	}
	to.min = slices.Min(to.next)
}

// Shutdown releases every partition's event storage back to the heap
// pool. The engine cannot be used afterwards.
func (d *ParEngine) Shutdown() {
	if d.killed {
		return
	}
	d.killed = true
	d.stopped.Store(true)
	for _, p := range d.parts {
		p.q.Shutdown()
	}
	for i := range d.spans {
		d.spans[i].out = nil
	}
}

// A Part is one partition (logical process) of a ParEngine: an
// independently clocked event queue whose events run sequentially and
// in timestamp order, possibly concurrently with other partitions.
// Event code running on a partition may freely touch that partition's
// model state without locking, and must touch nothing owned by another
// partition — use Send for cross-partition effects.
type Part struct {
	d    *ParEngine
	s    *span
	id   int
	q    Engine // the partition's clock, heap, sequence and tie-break stream
	sent int    // messages sent in the window being run
}

// ID returns the partition index.
func (p *Part) ID() int { return p.id }

// Engine returns the owning parallel engine.
func (p *Part) Engine() *ParEngine { return p.d }

// Now returns the partition's local clock. Partitions within the same
// window may disagree by less than one lookahead; that skew is the
// parallelism.
func (p *Part) Now() Time { return p.q.now }

// head is when the partition's earliest queued event is due.
func (p *Part) head() Time {
	if len(p.q.events) == 0 {
		return maxTime
	}
	return p.q.events[0].at
}

// Schedule runs fn on this partition at now+delay. Intra-partition
// events never synchronize with other partitions. Scheduling in the
// past panics, as does scheduling after Shutdown.
func (p *Part) Schedule(delay Time, fn func()) { p.q.Schedule(delay, fn) }

// Send schedules fn on partition dst at now+delay. delay must be at
// least the engine's lookahead — that bound is what lets other
// partitions run ahead without waiting — and sending to one's own
// partition is allowed but pointless (Schedule is cheaper). The message
// is delivered at the next window barrier; delivery order is
// deterministic regardless of worker width.
func (p *Part) Send(dst int, delay Time, fn func()) {
	if delay < p.d.lookahead {
		panic(fmt.Sprintf("sim: Send delay %v below lookahead %v", delay, p.d.lookahead))
	}
	if dst < 0 || dst >= len(p.d.parts) {
		panic(fmt.Sprintf("sim: Send to invalid partition %d", dst))
	}
	if p.d.killed {
		panic("sim: Send after Shutdown (the engine cannot be reused)")
	}
	if p.sent >= p.d.mailCap {
		panic(fmt.Sprintf("sim: partition %d exceeded its mailbox cap (%d messages in one window)", p.id, p.d.mailCap))
	}
	p.sent++
	out := &p.s.out[dst/p.d.spanLen]
	*out = append(*out, msg{at: p.q.now + delay, dst: dst, fn: fn})
}

// Pending returns the number of events queued on this partition.
func (p *Part) Pending() int { return p.q.Pending() }
