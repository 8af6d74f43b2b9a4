package core

import "time"

// TryLocker is implemented by algorithms whose spec carries a TryBody:
// a non-blocking acquisition attempt. Queue locks whose enqueue commits
// the thread (CLH, TICKET, ANDERSON, COHORT) cannot offer it without the
// timeout protocols of Scott & Scherer (PPoPP 2001) — cited by the
// paper — and are deliberately left out.
type TryLocker interface {
	Lock
	// TryAcquire attempts one acquisition without waiting and reports
	// whether the lock was obtained.
	TryAcquire(t *Thread) bool
}

// AcquireTimeout repeatedly attempts TryAcquire with exponential backoff
// until it succeeds or the deadline passes, reporting success. Polling a
// try-lock forfeits queue-lock ordering guarantees, which is why only
// algorithms whose blocking path is itself a polling loop offer
// TryAcquire; for those, this helper is the natural timed acquire.
// (True timeout-capable queue locks are a research topic of their own —
// Scott & Scherer PPoPP 2001, Scott PODC 2002, both cited by the paper.)
func AcquireTimeout(l TryLocker, t *Thread, d time.Duration, tun Tuning) bool {
	deadline := time.Now().Add(d)
	b := tun.BackoffBase
	if b < 1 {
		b = 64
	}
	y := tun.YieldEvery()
	for {
		if l.TryAcquire(t) {
			return true
		}
		if time.Now().After(deadline) {
			return false
		}
		backoff(&b, max(tun.BackoffFactor, 2), max(tun.BackoffCap, b), y)
	}
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}
