package core

import (
	"time"

	"repro/internal/lockspec"
)

// TimedLock is implemented by native locks with a genuinely timed,
// abortable acquire path. AcquireFor attempts the acquisition for at
// most d (d <= 0 means no bound, equivalent to Acquire) and reports
// whether the lock was obtained. An aborted attempt restores every
// protocol invariant, so a Quiescent probe (where the lock has one)
// passes after any mix of aborts.
//
// This is distinct from the AcquireTimeout helper, which polls a
// TryLocker from outside: AcquireFor runs *inside* the lock's own
// waiting loops, so it keeps the algorithm's backoff behaviour (and,
// for the HBO family, its throttle-word protocol) while waiting.
// Plain queue locks are absent — their enqueue commits the thread,
// and retracting it needs a full abandonment protocol; the two queue
// locks that carry one (CLH_TRY's Scott & Scherer splice-out, HMCS_T's
// status-word abort race) are timed here exactly as on the simulator.
type TimedLock interface {
	Lock
	AcquireFor(t *Thread, d time.Duration) bool
}

// TimedNames lists the native locks that implement TimedLock, derived
// from the lockspec registry.
func TimedNames() []string { return lockspec.TimedNames() }

// AcquireWithin is the capability-dispatching timed acquire: the
// plumbing callers use when the lock algorithm is configuration (the
// lock service arbitrates its shards with whatever -lock names). It
// picks the strongest bounded path the lock offers:
//
//   - a TimedLock waits inside its own algorithm (AcquireFor), keeping
//     its backoff and throttle-word protocol while honouring d;
//   - a TryLocker is polled from outside with exponential backoff
//     (AcquireTimeout);
//   - a plain queue lock has no abortable path — AcquireWithin falls
//     back to the unbounded Acquire and always reports true, so
//     configuring one trades deadline fidelity for FIFO order.
//
// Wrapped locks (internal/obs instrumentation) surface the same
// interfaces, so dispatch sees through them. d <= 0 always blocks.
func AcquireWithin(l Lock, t *Thread, d time.Duration, tun Tuning) bool {
	if d <= 0 {
		l.Acquire(t)
		return true
	}
	if tl, ok := l.(TimedLock); ok {
		return tl.AcquireFor(t, d)
	}
	if tr, ok := l.(TryLocker); ok {
		return AcquireTimeout(tr, t, d, tun)
	}
	l.Acquire(t)
	return true
}

// Bounded reports whether AcquireWithin can actually honour a deadline
// for l (it implements TimedLock or TryLocker, possibly via a
// wrapper). Callers that need hard backpressure — the lock service's
// shard arbitration — use this to warn when a configured algorithm
// can only block.
func Bounded(l Lock) bool {
	if _, ok := l.(TimedLock); ok {
		return true
	}
	_, ok := l.(TryLocker)
	return ok
}
