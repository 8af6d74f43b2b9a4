package lockspec

import "fmt"

// tatasQuiesce is the one-word locks' probe: the word reads free.
func tatasQuiesce(name string) func(Peeker) error {
	return func(q Peeker) error {
		if v := q.Peek(0, 0); v != 0 {
			return fmt.Errorf("%s: lock word %d not free at quiescence", name, v)
		}
		return nil
	}
}

// tatasSpec is the traditional test-and-test&set lock: tas to acquire,
// spin with plain loads while the lock is held, store zero to release.
// An aborted timed attempt leaves no state behind — a failed tas writes
// 1 over an already-set word — so giving up is just ceasing to retry.
func tatasSpec() *Spec {
	return &Spec{
		Meta: Meta{
			Name:  "TATAS",
			Doc:   "test-and-test&set; one word, spin on cached copy",
			Paper: true, Timed: true, Try: true,
		},
		Words: []Word{{Name: "lock"}},
		Acquire: func(e Env, tun *Tuning) bool {
			for {
				if e.TAS(0, 0) == 0 {
					return true
				}
				// Test: spin with ordinary loads until the lock reads
				// free, then retry the tas. The refill burst after a
				// release is modeled by every spinner re-reading and
				// re-tas-ing.
				e.SlowPath()
				if !e.AwaitZero(0, 0) {
					return false
				}
			}
		},
		Release: func(e Env, tun *Tuning) { e.Store(0, 0, 0) },
		TryBody: func(e Env, tun *Tuning) bool {
			return e.Load(0, 0) == 0 && e.TAS(0, 0) == 0
		},
		Quiesce: tatasQuiesce("TATAS"),
	}
}

// tatasExpSpec adds Ethernet-style exponential backoff between tas
// attempts (the paper's TATAS_EXP, section 3). The timed path is the
// same loop with a deadline check at every backoff boundary.
func tatasExpSpec() *Spec {
	return &Spec{
		Meta: Meta{
			Name:  "TATAS_EXP",
			Doc:   "TATAS + exponential backoff between attempts",
			Paper: true, Timed: true, Try: true,
		},
		Words: []Word{{Name: "lock"}},
		Acquire: func(e Env, tun *Tuning) bool {
			if e.TAS(0, 0) == 0 {
				return true
			}
			e.SlowPath()
			b := tun.BackoffBase
			for {
				if e.Expired() {
					return false
				}
				b = e.Backoff(b, tun.BackoffFactor, tun.BackoffCap)
				if e.Load(0, 0) != 0 {
					continue
				}
				if e.TAS(0, 0) == 0 {
					return true
				}
			}
		},
		Release: func(e Env, tun *Tuning) { e.Store(0, 0, 0) },
		TryBody: func(e Env, tun *Tuning) bool {
			return e.Load(0, 0) == 0 && e.TAS(0, 0) == 0
		},
		Quiesce: tatasQuiesce("TATAS_EXP"),
	}
}
