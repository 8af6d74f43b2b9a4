package lockspec

import "fmt"

// Word layout for CNA. Queue handles are thread ids encoded +1 so zero
// means nil.
const (
	cnaTail     = 0 // main-queue tail: enc(tid) of the last enqueuer
	cnaHandoffs = 1 // holder-only counter of grants that bypassed the secondary queue
	cnaNext     = 2 // per-thread successor link: enc(tid) or 0
	cnaSpin     = 3 // per-thread grant word: 0 waiting, 1 granted, >=2 granted with secondary head enc = v-1
	cnaNode     = 4 // per-thread NUCA node, published at enqueue for the holder's locality walk
	cnaSTail    = 5 // per-thread secondary-queue tail enc, handed to the grantee before the grant store
)

func cnaEnc(tid int) uint64 { return uint64(tid) + 1 }

// cnaSpec is Compact NUMA-aware Locks (Dice & Kogan, EuroSys 2019): an
// MCS-style queue lock whose releaser keeps the lock on its own NUCA
// node by granting the first same-node waiter in the main queue and
// parking the remote waiters it skipped on a secondary queue. Unlike
// MCS there is no per-thread qnode structure to carry around — the
// queue state is a fixed set of per-thread words (hence "compact") and
// the secondary queue reuses the same next links.
//
// Fairness: the upstream design flips a random coin to decide when to
// flush the secondary queue back into the main one; this repo's twin
// stacks demand determinism (the schedule explorer replays
// interleavings byte-for-byte), so the coin is a holder-only handoff
// counter — after Tuning.FairEvery grants that bypassed the secondary
// queue, the releaser splices it back in front of the main queue.
//
// Invariants the bodies maintain:
//
//   - next[x] is written only by x's successor-enqueuer (the link
//     handshake) or by the current holder (splices). A node moved to
//     the secondary queue always had next != 0, so no late enqueuer
//     can link onto it — the main tail is never moved.
//   - the secondary tail's next is meaningless; it is overwritten
//     before the tail is exposed (appends and flushes store it, and
//     swinging the main tail onto the secondary clears it first).
//   - spin[t] of the holder stays at its grant value until release
//     reads it, carrying the secondary-queue head across handoffs;
//     stail[t] carries the tail and is stored before the grant.
func cnaSpec() *Spec {
	s := &Spec{
		Meta: Meta{
			Name: "CNA",
			Doc:  "compact NUMA-aware MCS (Dice-Kogan); remote waiters parked on a secondary queue",
			NUCA: true, Try: true,
		},
		Words: []Word{
			{Name: "tail"},
			{Name: "handoffs"},
			{Name: "next", Scope: ScopePerThread},
			{Name: "spin", Scope: ScopePerThread},
			{Name: "node", Scope: ScopePerThread},
			{Name: "stail", Scope: ScopePerThread},
		},
		Quiesce: func(q Peeker) error {
			// Every granted thread's Acquire returned, so a non-empty
			// main or secondary queue means a waiter was lost.
			if v := q.Peek(cnaTail, 0); v != 0 {
				return fmt.Errorf("CNA: tail %d not empty at quiescence", v)
			}
			return nil
		},
	}
	s.Acquire = func(e Env, tun *Tuning) bool {
		me := e.TID()
		e.Store(cnaNext, me, 0)
		e.Store(cnaSpin, me, 0)
		e.Store(cnaNode, me, uint64(e.Node()))
		prev := e.Swap(cnaTail, 0, cnaEnc(me))
		if prev == 0 {
			// Uncontended: grant ourselves with an empty secondary queue.
			e.Store(cnaSpin, me, 1)
			return true
		}
		e.Store(cnaNext, int(prev)-1, cnaEnc(me))
		e.SlowPath()
		e.AwaitLink(cnaSpin, me)
		return true
	}
	s.TryBody = func(e Env, tun *Tuning) bool {
		me := e.TID()
		e.Store(cnaNext, me, 0)
		e.Store(cnaNode, me, uint64(e.Node()))
		e.Store(cnaSpin, me, 1)
		return e.CASOnce(cnaTail, 0, 0, cnaEnc(me))
	}
	s.Release = func(e Env, tun *Tuning) {
		me := e.TID()
		v := e.Load(cnaSpin, me)
		var secHead, secTail uint64 // enc; 0 = empty secondary queue
		if v >= 2 {
			secHead = v - 1
			secTail = e.Load(cnaSTail, me)
		}
		succ := e.Load(cnaNext, me)
		if succ == 0 {
			if secHead == 0 {
				// Nobody anywhere: swing the tail out.
				if e.CASOnce(cnaTail, 0, cnaEnc(me), 0) {
					return
				}
			} else {
				// Main queue drained but remote waiters are parked: the
				// secondary queue becomes the main queue. Clear the
				// parked tail's stale next before exposing it as the
				// main tail, then grant the parked head.
				e.Store(cnaNext, int(secTail)-1, 0)
				if e.CASOnce(cnaTail, 0, cnaEnc(me), secTail) {
					e.Store(cnaHandoffs, 0, 0)
					e.Store(cnaSpin, int(secHead)-1, 1)
					return
				}
			}
			// An enqueuer swapped the tail but has not linked yet.
			succ = e.AwaitLink(cnaNext, me)
		}

		grant := func(t uint64, head, tail uint64) {
			if head != 0 {
				e.Store(cnaSTail, int(t)-1, tail)
				e.Store(cnaSpin, int(t)-1, head+1)
			} else {
				e.Store(cnaSpin, int(t)-1, 1)
			}
		}
		flush := func() {
			// Splice the whole secondary queue in front of the main
			// successor and grant its head, with no secondary.
			e.Store(cnaHandoffs, 0, 0)
			e.Store(cnaNext, int(secTail)-1, succ)
			e.Store(cnaSpin, int(secHead)-1, 1)
		}

		if secHead != 0 {
			// Holder-only counter: plain read-modify-write.
			h := e.Load(cnaHandoffs, 0) + 1
			if int(h) >= tun.FairEvery() {
				flush()
				return
			}
			e.Store(cnaHandoffs, 0, h)
		}

		// Locality walk: find the first waiter on our node whose chain
		// position is fully linked. Stop at an unlinked next — the tail
		// (or an in-flight enqueue) must never be moved.
		myNode := uint64(e.Node())
		var local, localPred uint64
		for cur, prev := succ, uint64(0); cur != 0; {
			if e.Load(cnaNode, int(cur)-1) == myNode {
				local, localPred = cur, prev
				break
			}
			nxt := e.Load(cnaNext, int(cur)-1)
			if nxt == 0 {
				break
			}
			prev, cur = cur, nxt
		}

		switch {
		case local == 0:
			// No same-node waiter visible: the lock leaves the node, so
			// flush any parked remote waiters rather than strand them.
			if secHead != 0 {
				flush()
			} else {
				grant(succ, 0, 0)
			}
		case localPred == 0:
			// The direct successor is local: plain handoff, secondary
			// queue passed along.
			grant(local, secHead, secTail)
		default:
			// Park the remote prefix [succ .. localPred] on the
			// secondary queue (every node in it has next != 0) and
			// grant the local waiter behind it.
			if secHead != 0 {
				e.Store(cnaNext, int(secTail)-1, succ)
			} else {
				secHead = succ
			}
			secTail = localPred
			grant(local, secHead, secTail)
		}
	}
	return s
}
