package hbo

import (
	"net/http"
	"time"

	"repro/internal/core"
	"repro/internal/lockspec"
	"repro/internal/obs"
)

// Algorithm selects a lock algorithm.
type Algorithm string

// The eight algorithms of the paper, in its table order.
const (
	TATAS    Algorithm = "TATAS"
	TATASExp Algorithm = "TATAS_EXP"
	MCS      Algorithm = "MCS"
	CLH      Algorithm = "CLH"
	RH       Algorithm = "RH"
	HBO      Algorithm = "HBO"
	HBOGT    Algorithm = "HBO_GT"
	HBOGTSD  Algorithm = "HBO_GT_SD"
)

// Extensions beyond the paper: classic baselines from its related work
// and the follow-on designs it inspired.
const (
	// Ticket is the FIFO ticket lock with proportional backoff.
	Ticket Algorithm = "TICKET"
	// Anderson is Anderson's array-based queue lock.
	Anderson Algorithm = "ANDERSON"
	// Reactive switches between TATAS_EXP and MCS by contention
	// (Lim & Agarwal's approach, the paper's section 3 alternative).
	Reactive Algorithm = "REACTIVE"
	// HBOHier is the hierarchical HBO the paper sketches in §4.1;
	// pair it with NewRuntimeHierarchical.
	HBOHier Algorithm = "HBO_HIER"
	// Cohort is a ticket-ticket cohort lock (Dice-Marathe-Shavit), the
	// NUMA-lock lineage HBO helped start.
	Cohort Algorithm = "COHORT"
	// CLHTry is CLH with the Scott & Scherer timeout splice-out: a FIFO
	// queue lock whose waiters can give up.
	CLHTry Algorithm = "CLH_TRY"
	// CNA is the compact NUMA-aware queue lock (Dice & Kogan, EuroSys
	// 2019): an MCS queue whose releaser passes within its node first,
	// parking remote waiters on a secondary queue.
	CNA Algorithm = "CNA"
	// HMCST is HMCS-T (Chabbi et al.), a two-level hierarchical MCS
	// queue lock with timed-out (abortable) acquires.
	HMCST Algorithm = "HMCS_T"
)

// AlgorithmNames lists the paper's eight algorithms in its table order.
func AlgorithmNames() []Algorithm {
	var out []Algorithm
	for _, n := range core.Names() {
		out = append(out, Algorithm(n))
	}
	return out
}

// ExtendedAlgorithmNames lists the additional algorithms this library
// implements beyond the paper.
func ExtendedAlgorithmNames() []Algorithm {
	var out []Algorithm
	for _, n := range core.ExtendedNames() {
		out = append(out, Algorithm(n))
	}
	return out
}

// AllAlgorithmNames lists the paper's eight plus the extensions.
func AllAlgorithmNames() []Algorithm {
	return append(AlgorithmNames(), ExtendedAlgorithmNames()...)
}

// NUCAAware reports whether the algorithm exploits node locality,
// derived from the lockspec registry's NUCA flag.
func (a Algorithm) NUCAAware() bool { return lockspec.NUCAAware(string(a)) }

// Runtime describes the logical NUCA topology and registers worker
// threads. See core.Runtime.
type Runtime = core.Runtime

// Thread is a registered worker handle carrying its logical node id.
type Thread = core.Thread

// Lock is a mutual-exclusion lock operated on behalf of a registered
// Thread.
type Lock = core.Lock

// Locker adapts a Lock and a Thread to sync.Locker.
type Locker = core.Locker

// Tuning collects backoff constants; see DefaultTuning.
type Tuning = core.Tuning

// NewRuntime creates a runtime with the given number of logical NUCA
// nodes, supporting up to maxThreads registered worker threads.
func NewRuntime(nodes, maxThreads int) *Runtime {
	return core.NewRuntime(nodes, maxThreads)
}

// NewRuntimeHierarchical creates a runtime whose nodes form clusters of
// clusterSize — a hierarchical NUCA, e.g. a NUMA machine built from
// chip multiprocessors. The HBOHier algorithm exploits the extra level.
func NewRuntimeHierarchical(nodes, clusterSize, maxThreads int) *Runtime {
	return core.NewRuntimeHierarchical(nodes, clusterSize, maxThreads)
}

// DefaultTuning returns backoff constants that behave reasonably on
// commodity hardware. Like the paper says of its own constants, they
// are best re-tuned per deployment.
func DefaultTuning() Tuning { return core.DefaultTuning() }

// NewLock builds the given algorithm on runtime rt with default tuning.
// It panics on an unknown algorithm (configuration is programmer input).
func NewLock(a Algorithm, rt *Runtime) Lock {
	return core.New(string(a), rt, core.DefaultTuning())
}

// NewLockTuned builds the given algorithm with explicit tuning.
func NewLockTuned(a Algorithm, rt *Runtime, tun Tuning) Lock {
	return core.New(string(a), rt, tun)
}

// TryLocker is implemented by the algorithms that support non-blocking
// acquisition attempts (TATAS, TATASExp, MCS, RH, HBO, HBOGT, HBOGTSD,
// HBOHier). Use a type assertion:
//
//	if tl, ok := lock.(hbo.TryLocker); ok && tl.TryAcquire(t) { ... }
type TryLocker = core.TryLocker

// AcquireTimeout repeatedly attempts TryAcquire with exponential backoff
// until it succeeds or d elapses, reporting success.
func AcquireTimeout(l TryLocker, t *Thread, d time.Duration) bool {
	return core.AcquireTimeout(l, t, d, core.DefaultTuning())
}

// AcquireWithin acquires l for t within d using the strongest bounded
// path the algorithm offers: a native timed acquire (core.TimedLock),
// a polled try-acquire with exponential backoff, or — for queue locks
// with no abortable path — an unbounded blocking acquire that always
// reports true. d <= 0 always blocks. This is the dispatch hbolockd
// uses to arbitrate lease shards with any configured algorithm.
func AcquireWithin(l Lock, t *Thread, d time.Duration) bool {
	return core.AcquireWithin(l, t, d, core.DefaultTuning())
}

// Instrument wraps l with live runtime metrics under name in the
// process-wide registry: acquire/contention/abort counts, sampled
// wait/hold latency histograms and node-handoff locality, recorded
// into node-sharded counters so observing a lock adds no cross-node
// coherence traffic (see internal/obs). The wrapper preserves l's
// TryLocker/TimedLock capabilities. Serve the metrics with
// MetricsHandler.
func Instrument(l Lock, name string) Lock {
	return obs.Instrumented(l, name)
}

// MetricsHandler exposes every Instrument-ed lock's live metrics:
// /metrics (Prometheus text format), /debug/vars (expvar JSON),
// /snapshot (obs-snapshot/v1) and /report (hbo-run-report/v1).
// Typical use:
//
//	go http.ListenAndServe("localhost:9141", hbo.MetricsHandler())
//
// cmd/locktop renders the same endpoint as a live terminal view.
func MetricsHandler() http.Handler {
	return obs.Default.Handler()
}
