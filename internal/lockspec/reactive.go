package lockspec

import "fmt"

// Word layout for the reactive lock: its own three words, then the MCS
// queue it routes contenders through in queue mode.
const (
	reMode    = 0 // 0 = spin, 1 = queue in front of the word
	reCounter = 1 // hysteresis counter, written only while holding the lock
	reWord    = 2 // the TATAS_EXP-style word that carries mutual exclusion
	reTail    = 3 // MCS queue tail
	reQnode   = 4 // MCS qnodes
)

// Hysteresis thresholds: switch to the queue after this many contended
// spin-mode acquisitions in a row, and back to spin mode after this
// many queue acquisitions with no successor waiting.
const (
	reactToQueue = 8
	reactToSpin  = 16
)

// reactiveSpec is a simplified reactive lock in the spirit of Lim &
// Agarwal (ASPLOS 1994), the "alternative approach" of the paper's
// section 3: low contention is served by a bare TATAS_EXP protocol and
// high contention routes waiters through an MCS queue, with the holder
// switching modes using hysteresis.
//
// Unlike the original's consensus-object protocol, mutual exclusion
// here always rests on the TATAS word: queue mode only *orders* the
// contenders in front of it (the MCS head acquires an almost-free TATAS
// word). A thread that raced a mode switch merely contends on the TATAS
// word directly, degrading fairness for one handover, never safety.
func reactiveSpec() *Spec {
	return &Spec{
		Meta: Meta{
			Name: "REACTIVE",
			Doc:  "Lim-Agarwal reactive lock; switches TATAS_EXP <-> MCS by contention",
		},
		Words: append([]Word{{Name: "mode"}, {Name: "counter"}, {Name: "word"}}, mcsWords()...),
		Acquire: func(e Env, tun *Tuning) bool {
			viaQueue := e.Load(reMode, 0) == 1
			// Release leaves through the protocol the acquire entered by.
			sc := e.Scratch()
			sc[0] = 0
			if viaQueue {
				sc[0] = 1
				mcsAcquire(e, reTail, reQnode)
			}
			contended := e.TAS(reWord, 0) != 0
			if contended {
				// The TATAS_EXP contention loop.
				e.SlowPath()
				b := tun.BackoffBase
				for {
					b = e.Backoff(b, tun.BackoffFactor, tun.BackoffCap)
					if e.Load(reWord, 0) == 0 && e.TAS(reWord, 0) == 0 {
						break
					}
				}
			}
			// Holding the lock now; run the hysteresis bookkeeping.
			c := e.Load(reCounter, 0)
			switch {
			case viaQueue && e.Load(reQnode, e.TID()*2+mcsNext) != 0:
				c = 0 // a successor is queued: contention persists
			case viaQueue:
				c++
				if c >= reactToSpin {
					e.Store(reMode, 0, 0)
					c = 0
				}
			case contended:
				c++
				if c >= reactToQueue {
					e.Store(reMode, 0, 1)
					c = 0
				}
			case c > 0:
				c--
			}
			e.Store(reCounter, 0, c)
			return true
		},
		Release: func(e Env, tun *Tuning) {
			e.Store(reWord, 0, 0)
			if e.Scratch()[0] != 0 {
				mcsRelease(e, reTail, reQnode)
			}
		},
		Quiesce: func(q Peeker) error {
			if v := q.Peek(reWord, 0); v != 0 {
				return fmt.Errorf("REACTIVE: lock word %d not free at quiescence", v)
			}
			if v := q.Peek(reTail, 0); v != 0 {
				return fmt.Errorf("REACTIVE: queue tail %d not empty at quiescence", v)
			}
			return nil
		},
	}
}
