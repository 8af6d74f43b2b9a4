// Package lockspec is the single source of truth for lock algorithms.
//
// Every algorithm is described once, as a Spec: the shared state words it
// declares (with their placement scope), the acquire/release transition
// bodies written against the Env abstraction, an optional non-blocking
// try path, an optional timeout path, and the quiescence/fault-injection
// probes the correctness harness consumes. One Spec instantiates into
// both lock stacks:
//
//   - internal/simlock builds a simulated lock whose Env maps every
//     operation onto machine.Proc word accesses (Load/Store/CAS/Swap,
//     Delay, event-driven parked spins), so the spec runs under the
//     deterministic NUCA simulator and its schedule explorer;
//   - internal/core builds a native lock whose Env maps the same
//     operations onto sync/atomic words with cache-line padding,
//     core.Probe contention hooks and runtime.Gosched-yielding waits.
//
// The two instantiations necessarily differ in *waiting policy* — the
// simulator parks a spinner until the watched line is invalidated, while
// native Go can only poll and yield — but every state word, every atomic
// transition and their order come from the one body, so the twin drift
// the differential checker (internal/check) used to hunt by comparison
// can no longer be introduced by editing one copy.
//
// The registry (registry.go) lists every algorithm, so name lists,
// capability flags, CLI help and the README lock table in both stacks
// derive from one table.
package lockspec

import "fmt"

// Scope places a declared word.
type Scope int

const (
	// ScopeLock homes the word(s) at the lock's home node.
	ScopeLock Scope = iota
	// ScopePerNode declares Count words per NUCA node, each homed at
	// its node (the HBO family's is_spinning words, HMCS-T's per-node
	// queues).
	ScopePerNode
	// ScopePerThread declares Count words per thread, homed at the
	// thread's node (queue-lock nodes, CNA's qnode fields).
	ScopePerThread
	// ScopeLockPerThread declares Count words per thread, all homed at
	// the lock's home node (Anderson's slot array — one slot per
	// contender, but centralized, which is its NUMA weakness).
	ScopeLockPerThread
)

// Word declares one named piece of shared lock state. Every element
// occupies its own cache line in both instantiations.
type Word struct {
	Name  string
	Scope Scope
	Count int // elements per unit; 0 means 1
	// Init, when non-nil, gives element i's initial value on a machine
	// of the given node count; nil means every element starts at zero.
	Init func(i, nodes int) uint64
}

// count returns the per-unit multiplicity.
func (w Word) count() int {
	if w.Count <= 0 {
		return 1
	}
	return w.Count
}

// Elems returns the total element count of word w for the given
// topology.
func (w Word) Elems(nodes, threads int) int {
	switch w.Scope {
	case ScopePerNode:
		return nodes * w.count()
	case ScopePerThread, ScopeLockPerThread:
		return threads * w.count()
	default:
		return w.count()
	}
}

// Ref names one element of a declared word: W indexes Spec.Words, I the
// flattened element (node*Count+k for per-node scope, tid*Count+k for
// per-thread scope).
type Ref struct{ W, I int }

// Env is the execution environment a spec body runs against. Word
// operands are (w, i) pairs in Ref's flattened addressing.
//
// The wait primitives (AwaitZero, AwaitWhile, AwaitLink, GrantWait) and
// Backoff embody each stack's waiting policy: the simulator parks
// unbounded spins on the watched cache line and polls timed spins on a
// fixed 64-unit quantum; the native side busy-waits with periodic
// runtime.Gosched yields and counts spin work into the lock's Probe.
// Expired reports deadline passage for timed acquires and is always
// false in an unbounded acquire; it performs no shared-memory access,
// so a body's unbounded path issues the same access sequence whether or
// not it contains Expired checks.
type Env interface {
	// TID returns the acquiring thread's dense id.
	TID() int
	// Node returns the acquiring thread's NUCA node.
	Node() int
	// Nodes returns the machine's node count.
	Nodes() int
	// Threads returns the thread-id capacity.
	Threads() int
	// Distance classifies how far apart two nodes are: 0 same node, 1
	// same cluster (or any other node of a flat machine), 2 across
	// clusters. Any integer is a valid operand, so a corrupted lock
	// word's decoded owner is merely "far away".
	Distance(a, b int) int
	// Tag returns a non-zero value identifying this lock instance,
	// suitable for publication in throttle words (the HBO family's
	// is_spinning protocol).
	Tag() uint64

	// Load reads element (w, i).
	Load(w, i int) uint64
	// Store writes element (w, i).
	Store(w, i int, v uint64)
	// Swap atomically writes v and returns the previous value.
	Swap(w, i int, v uint64) uint64
	// TAS is Swap(w, i, 1): test&set returning the previous value.
	TAS(w, i int) uint64
	// CAS compares-and-swaps with SPARC semantics: it returns expect
	// exactly when the swap happened, else the observed value. (The
	// native emulation retries a failed compare-and-swap that then
	// observes expect, because returning expect without owning would be
	// a false acquisition.)
	CAS(w, i int, expect, v uint64) uint64
	// CASOnce is a single compare-and-swap attempt reporting success —
	// the non-blocking primitive for try paths and tail swings whose
	// failure has its own handling.
	CASOnce(w, i int, expect, v uint64) bool
	// FetchAdd atomically adds delta (two's complement) and returns the
	// previous value (built from a load+CAS loop on the simulator, as
	// on SPARC).
	FetchAdd(w, i int, delta uint64) uint64
	// HolderInc increments a word only the lock holder writes (a plain
	// load+store on the simulator — the ticket lock's release idiom).
	HolderInc(w, i int)

	// Delay burns roughly units iterations of the empty backoff loop.
	Delay(units int)
	// Backoff delays b units and returns b grown by factor up to cap
	// (the paper's backoff helper, Figure 1 lines 11–16; by value, so a
	// body's backoff state never escapes to the heap).
	Backoff(b, factor, cap int) int
	// Timed reports whether the acquire runs under a deadline at all.
	// A body whose bounded wait must poll where its unbounded wait
	// parks (CLH_TRY's backoff-paced spin) branches on it.
	Timed() bool
	// Expired reports whether the acquire's deadline has passed. Always
	// false for unbounded acquires; never touches shared memory.
	Expired() bool
	// AwaitZero waits until element (w, i) reads zero; false means the
	// deadline expired first.
	AwaitZero(w, i int) bool
	// AwaitWhile waits while element (w, i) equals v, returning the
	// first differing value; ok=false means the deadline expired first.
	AwaitWhile(w, i int, v uint64) (val uint64, ok bool)
	// AwaitLink waits until element (w, i) reads non-zero, ignoring any
	// deadline — the must-complete handshake of queue locks (an
	// enqueuer that swapped the tail is guaranteed to link shortly).
	AwaitLink(w, i int) uint64
	// ThrottleWait waits while element (w, i) equals v with the HBO
	// family's throttle-wait policy: the simulator parks (or, timed,
	// polls on the fixed quantum); the native side polls at
	// BackoffBase-sized delays — except under a deadline, where it
	// polls on the same fixed quantum the simulator uses, so the
	// abort-check cadence cannot silently become tuning-dependent in
	// one stack only (that exact drift shipped in the hand-written
	// native HBO and is pinned by TestTimedThrottlePollQuantum).
	// False means the deadline expired first.
	ThrottleWait(w, i int, v uint64) bool
	// GrantWait waits until element (w, i) equals my. The native side
	// waits proportionally to (my - current), the ticket lock's
	// proportional backoff; the simulator parks. False means the
	// deadline expired first.
	GrantWait(w, i int, my uint64) bool
	// SlowPath marks the acquire contended: the native side fires the
	// lock's Probe.Contended hook (once per acquire) and begins
	// counting spin work; the simulator ignores it. AwaitZero,
	// AwaitWhile and GrantWait also mark it themselves once they
	// actually have to wait, so a body whose only slow path is such a
	// wait need not call it.
	SlowPath()
	// Scratch returns this thread's private scratch words for this lock
	// (queue-slot indices and the like). Scratch is host storage — it
	// models the paper's "thread-private register" and costs nothing in
	// either instantiation.
	Scratch() *[2]uint64
	// NodeScratch returns the host word the acquiring thread's node
	// shares for this lock. Only the lock holder may touch it (RH's
	// local-handover streak); like Scratch it costs nothing in either
	// instantiation.
	NodeScratch() *uint64
}

// Peeker reads lock state without simulated cost or synchronization —
// the quiescence probe's view. Call only when no acquires are in
// flight.
type Peeker interface {
	Peek(w, i int) uint64
	Nodes() int
	Threads() int
}

// Meta is the registry metadata every algorithm carries.
type Meta struct {
	Name string
	// Doc is the one-line description the README lock table renders.
	Doc string
	// Paper marks the HPCA 2003 paper's eight algorithms.
	Paper bool
	// NUCA marks node-locality-exploiting algorithms.
	NUCA bool
	// Timed marks algorithms with a genuinely timed, abortable acquire.
	Timed bool
	// Try marks algorithms offering a native non-blocking TryAcquire.
	Try bool
	// MaxNodes bounds the machine shapes the algorithm supports
	// (RH is two-node by construction); 0 means unbounded.
	MaxNodes int
}

// Spec is one algorithm: metadata, state words and transition bodies.
type Spec struct {
	Meta
	Words []Word
	// Acquire runs the acquisition; it returns false only when the
	// environment's deadline expired (an unbounded Env never expires).
	// An abort must restore every protocol invariant, so Quiesce
	// passes after any mix of aborts.
	Acquire func(e Env, tun *Tuning) bool
	// Release releases a held lock.
	Release func(e Env, tun *Tuning)
	// TryBody, when non-nil, is the single non-blocking acquisition
	// attempt backing the native TryLocker.
	TryBody func(e Env, tun *Tuning) bool
	// Quiesce, when non-nil, verifies all shared state is idle.
	Quiesce func(q Peeker) error
	// Inject, when non-nil, names the raw lock word the fault-injection
	// harness may overwrite.
	Inject *Ref
}

// WordIndex returns the index of the named word (programmer input; it
// panics on an unknown name).
func (s *Spec) WordIndex(name string) int {
	for i, w := range s.Words {
		if w.Name == name {
			return i
		}
	}
	panic(fmt.Sprintf("lockspec: %s has no word %q", s.Name, name))
}
