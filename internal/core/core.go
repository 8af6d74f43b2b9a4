// Package core runs the lock algorithms of internal/lockspec — the HBO
// paper's eight and the extensions beyond it — as native Go locks over
// sync/atomic. No algorithm is written here: FromSpec (spec.go) turns a
// spec's declared words into cache-line-padded atomics and runs its
// transition bodies against an Env that supplies the native waiting
// policy (busy-waits that yield to the scheduler, spin work counted into
// the lock's Probe). internal/simlock instantiates the same specs on the
// simulated machine.
//
// Go offers no thread-local storage and no CPU pinning, so the NUCA node
// a goroutine runs in cannot be discovered from inside the runtime. The
// library instead works with logical node ids: the caller registers each
// worker goroutine with a node id (however it chooses to map workers to
// nodes — OS pinning via external tools, sharding, or simply spreading
// round-robin) and passes the returned *Thread to Acquire/Release. This
// is the substitution DESIGN.md documents for the paper's "node_id in a
// thread-private register".
package core

import (
	"fmt"
	"sync/atomic"

	"repro/internal/lockspec"
)

// Runtime holds the logical topology and the thread registry that locks
// are built against. Queue locks size their per-thread queue-node arrays
// from MaxThreads.
type Runtime struct {
	nodes       int
	clusterSize int // nodes per cluster; <=1 means flat
	maxThreads  int
	nextID      atomic.Int64
}

// NewRuntime creates a runtime for a machine with the given number of
// logical NUCA nodes, supporting up to maxThreads registered threads.
func NewRuntime(nodes, maxThreads int) *Runtime {
	if nodes < 1 {
		panic("core: NewRuntime needs at least one node")
	}
	if maxThreads < 1 {
		panic("core: NewRuntime needs at least one thread")
	}
	return &Runtime{nodes: nodes, maxThreads: maxThreads}
}

// NewRuntimeHierarchical creates a runtime whose nodes are grouped into
// clusters of clusterSize (a hierarchical NUCA — e.g. a NUMA machine
// built from chip multiprocessors). HBO_HIER uses the extra level;
// other locks treat the machine as flat.
func NewRuntimeHierarchical(nodes, clusterSize, maxThreads int) *Runtime {
	r := NewRuntime(nodes, maxThreads)
	if clusterSize < 1 {
		panic("core: clusterSize must be >= 1")
	}
	r.clusterSize = clusterSize
	return r
}

// Distance classifies how far apart two nodes are: 0 same node, 1 same
// cluster (or any other node on a flat runtime), 2 across clusters.
func (r *Runtime) Distance(a, b int) int {
	switch {
	case a == b:
		return 0
	case r.clusterSize <= 1:
		return 1
	case a/r.clusterSize == b/r.clusterSize:
		return 1
	default:
		return 2
	}
}

// Nodes returns the number of logical NUCA nodes.
func (r *Runtime) Nodes() int { return r.nodes }

// MaxThreads returns the registration capacity.
func (r *Runtime) MaxThreads() int { return r.maxThreads }

// Thread identifies a registered worker: a dense id used to index
// per-thread lock state, and the logical NUCA node the worker runs in.
// A Thread must be used by one goroutine at a time.
type Thread struct {
	id   int
	node int
	rt   *Runtime
}

// RegisterThread allocates a Thread bound to the given logical node.
// It is safe to call from multiple goroutines.
func (r *Runtime) RegisterThread(node int) *Thread {
	if node < 0 || node >= r.nodes {
		panic(fmt.Sprintf("core: node %d out of range [0,%d)", node, r.nodes))
	}
	id := int(r.nextID.Add(1)) - 1
	if id >= r.maxThreads {
		panic(fmt.Sprintf("core: more than %d threads registered", r.maxThreads))
	}
	return &Thread{id: id, node: node, rt: r}
}

// ID returns the thread's dense id.
func (t *Thread) ID() int { return t.id }

// Node returns the thread's logical NUCA node.
func (t *Thread) Node() int { return t.node }

// Lock is a mutual-exclusion lock acquired on behalf of a registered
// thread. Implementations are safe for concurrent use; each *Thread may
// participate in one acquire at a time per lock.
type Lock interface {
	Name() string
	Acquire(t *Thread)
	Release(t *Thread)
}

// Locker adapts a Lock plus a Thread to sync.Locker, for APIs that want
// the standard interface.
type Locker struct {
	L Lock
	T *Thread
}

// Lock acquires the underlying lock for the bound thread.
func (lk Locker) Lock() { lk.L.Acquire(lk.T) }

// Unlock releases the underlying lock for the bound thread.
func (lk Locker) Unlock() { lk.L.Release(lk.T) }

// Names lists the algorithms in the paper's table order, derived from
// the lockspec registry.
func Names() []string { return lockspec.PaperNames() }

// ExtendedNames lists the additional algorithms beyond the paper's
// eight; see internal/simlock.ExtendedNames for their provenance.
func ExtendedNames() []string { return lockspec.ExtendedNames() }

// AllNames lists the paper's eight plus the extensions.
func AllNames() []string { return lockspec.AllNames() }

// New builds the named lock on runtime r with tuning tun from its
// lockspec registry entry. It panics on an unknown name.
func New(name string, r *Runtime, tun Tuning) Lock {
	s := lockspec.Lookup(name)
	if s == nil {
		panic(fmt.Sprintf("core: unknown lock %q", name))
	}
	return FromSpec(s, r, tun)
}

// lockIDs hands out the unique non-zero tags locks publish in throttle
// words (lockspec.Env.Tag).
var lockIDs atomic.Uint64

// cacheLinePad separates hot words; 64 bytes covers common hardware.
type cacheLinePad struct{ _ [64]byte }

// paddedUint64 is an atomic word alone on its cache line.
type paddedUint64 struct {
	v atomic.Uint64
	_ [56]byte
}
