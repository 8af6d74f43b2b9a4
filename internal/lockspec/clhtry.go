package lockspec

import "fmt"

// Word layout for CLH_TRY. Queue nodes are two words, status then prev;
// handles and scratch are CLH's (0 is the initial dummy node, tid+1 the
// node thread tid brought).
const (
	ctTail  = 0 // handle of the tail node; starts at the dummy
	ctNode  = 1 // per-thread nodes
	ctDummy = 2 // the initial, already granted node, homed with the lock

	ctStatus = 0 // node offset: status word
	ctPrev   = 1 // node offset: the predecessor a leaver publishes
)

// Node status values. GRANTED is zero so a freshly released node reads
// like CLH's classic "flag = 0".
const (
	ctGranted   uint64 = 0
	ctWaiting   uint64 = 1
	ctLeaving   uint64 = 2
	ctAbandoned uint64 = 3
)

// ctRef resolves a node handle to its status word; the prev word
// follows it.
func ctRef(h uint64) (w, i int) { return clhRef(h, ctDummy, ctNode, 2) }

// clhTrySpec is a CLH queue lock with timeout, in the spirit of Scott &
// Scherer's try locks (PPoPP 2001), which the paper cites when
// discussing queue locks under preemption. A waiter that gives up
// splices itself out of the queue with a handshake:
//
//   - the leaver publishes its predecessor in its node's prev word and
//     marks the node LEAVING;
//   - its successor (spinning on the node) acknowledges by marking it
//     ABANDONED and redirects its spin to the published predecessor;
//   - a leaver with no successor swings the tail back to its
//     predecessor instead.
//
// As Scott's later work (PODC 2002) observes, the handshake makes the
// timeout bounded-but-not-wait-free: a leaver whose successor also
// leaves may briefly wait for the tail to come back. As in HMCS-T, an
// abandoned node stays readable until the one thread that can still
// reach it has acknowledged it, and only its owner reuses it. The
// blocking acquire is plain CLH that also follows LEAVING handshakes
// from timed waiters ahead of it; it parks on the predecessor's status,
// where a timed waiter polls it between backoffs.
func clhTrySpec() *Spec {
	return &Spec{
		Meta: Meta{
			Name:  "CLH_TRY",
			Doc:   "CLH with Scott-Scherer timeout splice-out",
			Timed: true,
		},
		Words: []Word{
			{Name: "tail"},
			{Name: "node", Scope: ScopePerThread, Count: 2},
			{Name: "dummy", Count: 2},
		},
		Acquire: func(e Env, tun *Tuning) bool {
			sc := e.Scratch()
			me := clhOwn(sc, e.TID())
			mw, mi := ctRef(me)
			e.Store(mw, mi+ctStatus, ctWaiting)
			prev := e.Swap(ctTail, 0, me)
			b := tun.BackoffBase
			for {
				pw, pi := ctRef(prev)
				var st uint64
				if e.Timed() {
					st = e.Load(pw, pi+ctStatus)
				} else {
					st, _ = e.AwaitWhile(pw, pi+ctStatus, ctWaiting)
				}
				switch st {
				case ctGranted:
					// Acquired. Adopt the predecessor's node for next
					// time; ours stays live for our successor and is
					// released by us.
					sc[clhMine], sc[clhHeld] = prev+1, me
					return true
				case ctLeaving:
					// Predecessor is timing out: take its predecessor
					// and acknowledge so it can recycle the node.
					earlier := e.Load(pw, pi+ctPrev)
					e.Store(pw, pi+ctStatus, ctAbandoned)
					prev = earlier
					continue
				}
				if e.Expired() {
					break
				}
				e.SlowPath()
				b = e.Backoff(b, tun.BackoffFactor, tun.BackoffCap)
			}

			// Splice out: publish our predecessor, then announce we are
			// leaving.
			e.Store(mw, mi+ctPrev, prev)
			e.Store(mw, mi+ctStatus, ctLeaving)
			b = tun.BackoffBase
			for {
				// No successor? Swing the tail back to our predecessor;
				// the node was never observed and is reusable as-is.
				if e.CASOnce(ctTail, 0, me, prev) {
					return false
				}
				// A successor exists (or existed): wait for its
				// acknowledgment.
				if e.Load(mw, mi+ctStatus) == ctAbandoned {
					return false
				}
				// The successor may itself be leaving and may swing the
				// tail back to us, so retry the tail CAS rather than
				// parking.
				b = e.Backoff(b, tun.BackoffFactor, tun.BackoffCap)
			}
		},
		Release: func(e Env, tun *Tuning) {
			w, i := ctRef(e.Scratch()[clhHeld])
			e.Store(w, i+ctStatus, ctGranted)
		},
		Quiesce: func(q Peeker) error {
			// Nodes left LEAVING or ABANDONED by timed-out waiters are
			// idle once off the queue; the tail is the one node the next
			// arrival will wait on, and it must read granted.
			w, i := ctRef(q.Peek(ctTail, 0))
			if v := q.Peek(w, i+ctStatus); v != ctGranted {
				return fmt.Errorf("CLH_TRY: tail node status %d at quiescence (abandoned node left on the queue)", v)
			}
			return nil
		},
	}
}
