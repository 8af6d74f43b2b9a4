package lockspec

import "fmt"

// An MCS queue is a tail word plus one two-word qnode per thread, homed
// in the thread's node so waiters spin on node-local memory. Handles
// are thread ids encoded +1 so zero means nil. The word indices are
// parameters because REACTIVE embeds the same queue behind its own
// words.
const (
	mcsNext   = 0 // qnode offset: successor handle, 0 = none
	mcsLocked = 1 // qnode offset: 1 while waiting for the grant
)

func mcsWords() []Word {
	return []Word{{Name: "tail"}, {Name: "qnode", Scope: ScopePerThread, Count: 2}}
}

func mcsAcquire(e Env, tailW, qW int) {
	me := e.TID()
	enc := uint64(me) + 1
	e.Store(qW, me*2+mcsNext, 0)
	prev := e.Swap(tailW, 0, enc)
	if prev == 0 {
		return // lock was free
	}
	e.Store(qW, me*2+mcsLocked, 1)
	e.Store(qW, (int(prev)-1)*2+mcsNext, enc) // prev.next = me
	e.SlowPath()
	e.AwaitZero(qW, me*2+mcsLocked)
}

func mcsRelease(e Env, tailW, qW int) {
	me := e.TID()
	next := e.Load(qW, me*2+mcsNext)
	if next == 0 {
		if e.CASOnce(tailW, 0, uint64(me)+1, 0) {
			return // no successor
		}
		// A successor is linking itself; wait for the pointer.
		next = e.AwaitLink(qW, me*2+mcsNext)
	}
	e.Store(qW, (int(next)-1)*2+mcsLocked, 0)
}

// mcsSpec is the queue lock of Mellor-Crummey and Scott (1991): threads
// enqueue and each spins on its own flag, so a release disturbs only
// the successor. The try path succeeds only when the queue is empty —
// it swings the tail from nil to this thread's node in one step, so no
// waiting can occur.
func mcsSpec() *Spec {
	const tail, qnode = 0, 1
	return &Spec{
		Meta: Meta{
			Name:  "MCS",
			Doc:   "Mellor-Crummey & Scott list queue lock; each waiter spins on its own node",
			Paper: true, Try: true,
		},
		Words: mcsWords(),
		Acquire: func(e Env, tun *Tuning) bool {
			mcsAcquire(e, tail, qnode)
			return true
		},
		Release: func(e Env, tun *Tuning) { mcsRelease(e, tail, qnode) },
		TryBody: func(e Env, tun *Tuning) bool {
			e.Store(qnode, e.TID()*2+mcsNext, 0)
			return e.CASOnce(tail, 0, 0, uint64(e.TID())+1)
		},
		Quiesce: func(q Peeker) error {
			if v := q.Peek(tail, 0); v != 0 {
				return fmt.Errorf("MCS: tail %d not empty at quiescence", v)
			}
			return nil
		},
	}
}

// Word layout for CLH. A request-flag handle is 0 for the initial dummy
// flag and tid+1 for the flag thread tid brought to the lock; flags
// migrate between threads, so which one a thread enqueues next lives in
// its scratch.
const (
	clhTail  = 0 // handle of the current tail flag; starts at the dummy
	clhDummy = 1 // the initial, already granted flag, homed with the lock
	clhFlag  = 2 // per-thread request flags: 1 pending, 0 granted
)

// Scratch layout for CLH and CLH_TRY: the flag the thread enqueues next
// (stored +1 so a fresh thread's zero means "its own") and the flag its
// current hold releases.
const (
	clhMine = 0
	clhHeld = 1
)

// clhOwn returns the handle the thread with scratch sc enqueues next.
func clhOwn(sc *[2]uint64, tid int) uint64 {
	if v := sc[clhMine]; v != 0 {
		return v - 1
	}
	return uint64(tid) + 1
}

// clhRef resolves a flag handle against the dummy and per-thread words.
func clhRef(h uint64, dummyW, flagW, per int) (w, i int) {
	if h == 0 {
		return dummyW, 0
	}
	return flagW, (int(h) - 1) * per
}

// clhSpec is the queue lock of Craig and of Magnusson, Landin and
// Hagersten: each thread enqueues a request flag and spins on its
// predecessor's; on release it recycles the predecessor's flag for its
// next acquire, so the lock needs one flag more than it has threads.
func clhSpec() *Spec {
	return &Spec{
		Meta: Meta{
			Name:  "CLH",
			Doc:   "Craig/Landin-Hagersten implicit-queue lock; spin on predecessor's node",
			Paper: true,
		},
		Words: []Word{{Name: "tail"}, {Name: "dummy"}, {Name: "flag", Scope: ScopePerThread}},
		Acquire: func(e Env, tun *Tuning) bool {
			sc := e.Scratch()
			me := clhOwn(sc, e.TID())
			w, i := clhRef(me, clhDummy, clhFlag, 1)
			e.Store(w, i, 1) // pending
			prev := e.Swap(clhTail, 0, me)
			w, i = clhRef(prev, clhDummy, clhFlag, 1)
			e.AwaitZero(w, i)
			// Adopt the predecessor's flag for the next acquire; ours
			// stays live (the successor spins on it) until Release.
			sc[clhMine], sc[clhHeld] = prev+1, me
			return true
		},
		Release: func(e Env, tun *Tuning) {
			w, i := clhRef(e.Scratch()[clhHeld], clhDummy, clhFlag, 1)
			e.Store(w, i, 0)
		},
		Quiesce: func(q Peeker) error {
			w, i := clhRef(q.Peek(clhTail, 0), clhDummy, clhFlag, 1)
			if v := q.Peek(w, i); v != 0 {
				return fmt.Errorf("CLH: tail flag still pending (%d) at quiescence", v)
			}
			return nil
		},
	}
}
