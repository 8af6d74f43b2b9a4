package sim

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
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
//     its own Engine and outbox; the simulation model built on top must
//     confine each partition's mutable state the same way
//     (cross-partition effects go through Send).
//  2. Barrier-phase delivery. Messages produced during a window are
//     collected after all partitions finish, sorted by (timestamp,
//     source partition, source sequence) and only then pushed into the
//     destination heaps — arrival interleaving never leaks into event
//     order.
//  3. Partition-stable tie-breaks. Each partition numbers its own
//     events; perturbed runs (Perturb) derive one RNG stream per
//     partition from an FNV-1a mix of (seed, partition), so the
//     tie-break priority of an event never depends on which worker
//     executed which partition first.
//
// A one-partition ParEngine therefore fires the same events in the same
// order, at the same clock readings, as an Engine given the same schedule
// (TestOnePartitionParEngineMatchesEngine): what this file adds is the
// window bound passed to Engine.runUntil, the outboxes and the barrier.
// The Engine used alone remains the right tool for models with globally
// shared state (internal/machine's word-level coherence simulation);
// ParEngine is for models whose state is partitioned, such as the
// cluster-scale interconnect machine in internal/machine.

// Msg is a cross-partition event in flight: fn will execute on the
// destination partition at the given absolute time.
type msg struct {
	at     Time
	src    int
	srcSeq uint64
	dst    int
	fn     func()
}

// ParEngine is a conservative parallel discrete-event simulator over a
// fixed set of partitions. Construct with NewParEngine, obtain the
// partition handles with Part, schedule initial events, then call Run.
type ParEngine struct {
	parts     []*Part
	workers   int
	lookahead Time
	now       Time // committed lower bound (start of the current window)
	limit     Time // 0 = no limit
	limited   bool
	stopped   atomic.Bool
	killed    bool
	mailCap   int

	// inbox is the barrier-phase merge buffer, reused across windows.
	inbox []msg
}

// DefaultMailboxCap bounds how many cross-partition messages a single
// partition may emit within one window before Send panics. The bound
// exists to surface runaway models (a partition flooding a neighbor
// faster than simulated time advances) instead of letting the merge
// buffer grow without limit.
const DefaultMailboxCap = 1 << 20

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
	d.parts = make([]*Part, parts)
	for i := range d.parts {
		d.parts[i] = &Part{d: d, id: i, q: Engine{events: *heapPool.Get().(*eventHeap)}}
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
// re-raised on this goroutine (lowest partition id first).
func (d *ParEngine) Run() {
	if d.killed {
		panic("sim: Run after Shutdown (the engine cannot be reused)")
	}
	active := make([]*Part, 0, len(d.parts))
	for !d.stopped.Load() {
		// Find the window start: the earliest queued event anywhere.
		first := Time(-1)
		for _, p := range d.parts {
			if len(p.q.events) > 0 && (first < 0 || p.q.events[0].at < first) {
				first = p.q.events[0].at
			}
		}
		if first < 0 {
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
		end := first + d.lookahead
		if d.limit > 0 && end > d.limit+1 {
			// Clamp so no event past the limit executes; events at
			// exactly the limit still do, matching Engine semantics.
			end = d.limit + 1
		}
		active = active[:0]
		for _, p := range d.parts {
			if len(p.q.events) > 0 && p.q.events[0].at < end {
				active = append(active, p)
			}
		}
		d.runWindow(active, end)
		d.deliver()
	}
}

// runWindow executes every active partition's sub-window, fanning over
// the worker pool when it pays.
func (d *ParEngine) runWindow(active []*Part, end Time) {
	w := d.workers
	if w > len(active) {
		w = len(active)
	}
	if w <= 1 {
		for _, p := range active {
			p.q.runUntil(end)
		}
		return
	}
	var (
		next atomic.Int64
		wg   sync.WaitGroup
		mu   sync.Mutex
		fail *partPanic
	)
	next.Store(-1)
	for i := 0; i < w; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1))
				if i >= len(active) {
					return
				}
				p := active[i]
				func() {
					defer func() {
						if r := recover(); r != nil {
							mu.Lock()
							if fail == nil || p.id < fail.part {
								fail = &partPanic{part: p.id, value: r}
							}
							mu.Unlock()
						}
					}()
					p.q.runUntil(end)
				}()
			}
		}()
	}
	wg.Wait()
	if fail != nil {
		panic(fail.value)
	}
}

// deliver merges every partition's outbox into the destination heaps in
// a deterministic order: (timestamp, source partition, source sequence).
// Runs single-threaded between windows.
func (d *ParEngine) deliver() {
	d.inbox = d.inbox[:0]
	for _, p := range d.parts {
		d.inbox = append(d.inbox, p.outbox...)
		p.outbox = p.outbox[:0]
	}
	if len(d.inbox) == 0 {
		return
	}
	sort.Slice(d.inbox, func(i, j int) bool {
		a, b := d.inbox[i], d.inbox[j]
		if a.at != b.at {
			return a.at < b.at
		}
		if a.src != b.src {
			return a.src < b.src
		}
		return a.srcSeq < b.srcSeq
	})
	for i := range d.inbox {
		m := &d.inbox[i]
		q := &d.parts[m.dst].q
		q.Schedule(m.at-q.now, m.fn)
		m.fn = nil // don't pin the closure in the reused buffer
	}
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
		p.outbox = nil
	}
	d.inbox = nil
}

// A Part is one partition (logical process) of a ParEngine: an
// independently clocked event queue whose events run sequentially and
// in timestamp order, possibly concurrently with other partitions.
// Event code running on a partition may freely touch that partition's
// model state without locking, and must touch nothing owned by another
// partition — use Send for cross-partition effects.
type Part struct {
	d      *ParEngine
	id     int
	q      Engine // the partition's clock, heap, sequence and tie-break stream
	outbox []msg
}

// ID returns the partition index.
func (p *Part) ID() int { return p.id }

// Engine returns the owning parallel engine.
func (p *Part) Engine() *ParEngine { return p.d }

// Now returns the partition's local clock. Partitions within the same
// window may disagree by less than one lookahead; that skew is the
// parallelism.
func (p *Part) Now() Time { return p.q.now }

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
	if len(p.outbox) >= p.d.mailCap {
		panic(fmt.Sprintf("sim: partition %d exceeded its mailbox cap (%d messages in one window)", p.id, p.d.mailCap))
	}
	p.q.seq++
	p.outbox = append(p.outbox, msg{at: p.q.now + delay, src: p.id, srcSeq: p.q.seq, dst: dst, fn: fn})
}

// Pending returns the number of events queued on this partition.
func (p *Part) Pending() int { return p.q.Pending() }
