package lockspec

import "fmt"

// Word layout for HMCS-T. Two abortable-MCS levels: one queue per NUCA
// node (local) and one global queue of node representatives. Queue
// handles encode a slot in the owning unit's K=2 node ring, +1 so zero
// means nil: local handle = tid*2+slot, global handle = node*2+slot.
const (
	hmGTail = 0 // global-queue tail: enc(global handle) or 0
	hmLTail = 1 // per-node local-queue tail: enc(local handle) or 0
	hmGStat = 2 // per-node x2: gnode status words
	hmGNext = 3 // per-node x2: gnode successor links
	hmLStat = 4 // per-thread x2: lnode status words
	hmLNext = 5 // per-thread x2: lnode successor links
)

// Status-word protocol (both levels). The abort handshake is a CAS
// race on the status word: an expiring waiter CASes W -> A, a granter
// CASes W -> grant; exactly one wins, and the loser follows the
// winner's decision (an "aborted" waiter that lost the race must
// accept the lock, even past its deadline).
//
// A local grant value additionally carries the handoff context:
// value = ((passes+1) << 32) | gEnc, where passes counts consecutive
// same-node handoffs and gEnc is the enc of the gnode that holds the
// global lock on the node's behalf. The offset keeps every grant value
// >= hmGrantBase and clear of the small control values. The global
// level passes nothing, so its grant value is plain hmGrantBase.
const (
	hmFree       uint64 = 0 // slot unused, reusable by its owner
	hmWait       uint64 = 1 // enqueued, waiting
	hmAbandoned  uint64 = 2 // waiter timed out; node awaits a releaser's sweep
	hmMustGlobal uint64 = 3 // local lock passed, but the global lock must be (re)acquired
	hmGrantBase  uint64 = 4 // >= hmGrantBase: granted
)

func hmLocalGrant(passes int, gEnc uint64) uint64 {
	return (uint64(passes)+1)<<32 | gEnc
}

// hmcstSpec is HMCS-T — the Hierarchical MCS lock with timeouts
// (Chabbi, Amer, Wen & Liu; an abortable HMCS). Threads queue on their
// node's local MCS lock; the local winner queues the node's
// representative on the global MCS lock. The global holder hands the
// lock to local successors up to Tuning.PassLimit consecutive
// same-node passes (carried in the grant value), then releases the
// global lock and tells its successor hmMustGlobal.
//
// Timeout protocol (the T in HMCS-T): every wait is abortable via the
// status-word CAS race above. An abandoned node stays enqueued — its
// links may be read at any moment — until a releaser's sweep walks
// past it: the sweeper reads the node's successor link, attempts the
// grant CAS on that successor, and only then frees the swept node
// (status back to hmFree), so a slot is never recycled while a
// traversal can still reach it. Each unit owns K=2 slots; an acquire
// needing a slot while both are abandoned-in-queue polls until a sweep
// frees one (every abandoned node has a live chain ahead of it, so the
// sweep always comes; a timed acquire gives up instead).
func hmcstSpec() *Spec {
	s := &Spec{
		Meta: Meta{
			Name: "HMCS_T",
			Doc:  "hierarchical MCS with timeout (Chabbi et al.); abortable two-level queues",
			NUCA: true, Timed: true,
		},
		Words: []Word{
			{Name: "gtail"},
			{Name: "ltail", Scope: ScopePerNode},
			{Name: "gstat", Scope: ScopePerNode, Count: 2},
			{Name: "gnext", Scope: ScopePerNode, Count: 2},
			{Name: "lstat", Scope: ScopePerThread, Count: 2},
			{Name: "lnext", Scope: ScopePerThread, Count: 2},
		},
		Quiesce: func(q Peeker) error {
			if v := q.Peek(hmGTail, 0); v != 0 {
				return fmt.Errorf("HMCS_T: global tail %d not empty at quiescence", v)
			}
			for n := 0; n < q.Nodes(); n++ {
				if v := q.Peek(hmLTail, n); v != 0 {
					return fmt.Errorf("HMCS_T: ltail[%d] = %d not empty at quiescence", n, v)
				}
				for k := 0; k < 2; k++ {
					if v := q.Peek(hmGStat, n*2+k); v != hmFree {
						return fmt.Errorf("HMCS_T: gstat[%d][%d] = %d at quiescence (gnode leaked)", n, k, v)
					}
				}
			}
			for t := 0; t < q.Threads(); t++ {
				for k := 0; k < 2; k++ {
					if v := q.Peek(hmLStat, t*2+k); v != hmFree {
						return fmt.Errorf("HMCS_T: lstat[%d][%d] = %d at quiescence (lnode leaked)", t, k, v)
					}
				}
			}
			return nil
		},
	}

	// amcsRelease releases one abortable-MCS level from the node
	// myEnc, granting grantVal to the first waiting successor and
	// sweeping abandoned nodes. It returns the granted node's enc, or
	// 0 when the queue emptied. Order is load-bearing: a swept node's
	// successor link is read, and the grant CAS on that successor
	// attempted, before the swept node is freed for reuse.
	amcsRelease := func(e Env, statW, nextW, tailW, tailI int, myEnc uint64, grantVal uint64) uint64 {
		cur := myEnc
		for {
			nxt := e.Load(nextW, int(cur)-1)
			if nxt == 0 {
				if e.CASOnce(tailW, tailI, cur, 0) {
					e.Store(statW, int(cur)-1, hmFree)
					return 0
				}
				// An enqueuer swapped the tail; its link always lands
				// (linking precedes any abort), so wait it out even
				// past a deadline — releases must complete.
				nxt = e.AwaitLink(nextW, int(cur)-1)
			}
			granted := e.CAS(statW, int(nxt)-1, hmWait, grantVal) == hmWait
			e.Store(statW, int(cur)-1, hmFree)
			if granted {
				return nxt
			}
			cur = nxt // successor abandoned: sweep on
		}
	}

	// claimSlot finds a free slot in the unit's K=2 ring (base is the
	// flattened index of slot 0) and claims it by storing hmWait with
	// a cleared link. Only the unit's owner claims (a thread its own
	// lnodes; a node's unique chain head its gnodes), so observing
	// hmFree is enough. Returns the slot, or -1 on deadline expiry.
	claimSlot := func(e Env, statW, nextW, base int) int {
		for {
			for k := 0; k < 2; k++ {
				if e.Load(statW, base+k) == hmFree {
					e.Store(nextW, base+k, 0)
					e.Store(statW, base+k, hmWait)
					return k
				}
			}
			if e.Expired() {
				return -1
			}
			e.Delay(TimedPollUnits)
		}
	}

	// acquireGlobal enqueues the node's representative on the global
	// queue and waits, returning the gnode's enc (0 means the deadline
	// expired; the aborted gnode stays queued until a sweep frees it).
	acquireGlobal := func(e Env, tun *Tuning) uint64 {
		node := e.Node()
		slot := claimSlot(e, hmGStat, hmGNext, node*2)
		if slot < 0 {
			return 0
		}
		h := node*2 + slot
		enc := uint64(h) + 1
		prev := e.Swap(hmGTail, 0, enc)
		if prev == 0 {
			return enc // global winner; status stays hmWait, freed at release
		}
		e.Store(hmGNext, int(prev)-1, enc)
		e.SlowPath()
		if _, ok := e.AwaitWhile(hmGStat, h, hmWait); ok {
			return enc // any non-W value here is a grant
		}
		if e.CAS(hmGStat, h, hmWait, hmAbandoned) == hmWait {
			return 0 // abort won; the gnode awaits a sweep
		}
		return enc // a granter beat our abort: accept, even past the deadline
	}

	s.Acquire = func(e Env, tun *Tuning) bool {
		me, node := e.TID(), e.Node()
		slot := claimSlot(e, hmLStat, hmLNext, me*2)
		if slot < 0 {
			return false
		}
		h := me*2 + slot
		enc := uint64(h) + 1
		e.Scratch()[0] = uint64(slot)

		goGlobal := false
		prev := e.Swap(hmLTail, node, enc)
		if prev == 0 {
			goGlobal = true // local winner
		} else {
			e.Store(hmLNext, int(prev)-1, enc)
			e.SlowPath()
			v, ok := e.AwaitWhile(hmLStat, h, hmWait)
			if !ok {
				// Deadline passed: race the abort CAS against a grant.
				old := e.CAS(hmLStat, h, hmWait, hmAbandoned)
				if old == hmWait {
					return false
				}
				v = old // the grant that beat us
			}
			if v >= hmGrantBase {
				// Inherited the global lock from a same-node holder.
				e.Scratch()[1] = v & 0xffffffff
				return true
			}
			goGlobal = true // v == hmMustGlobal
		}
		gEnc := acquireGlobal(e, tun)
		if gEnc == 0 {
			// Global level timed out (or both gnodes still await
			// sweeps): pass local leadership on and report failure.
			amcsRelease(e, hmLStat, hmLNext, hmLTail, node, enc, hmMustGlobal)
			return false
		}
		_ = goGlobal
		e.Scratch()[1] = gEnc
		return true
	}

	s.Release = func(e Env, tun *Tuning) {
		me, node := e.TID(), e.Node()
		h := me*2 + int(e.Scratch()[0])
		gEnc := e.Scratch()[1]
		v := e.Load(hmLStat, h)
		passes := 0
		if v >= hmGrantBase {
			passes = int(v >> 32)
		}
		if passes < tun.PassLimit() {
			// Try to hand the global lock to a local successor.
			if amcsRelease(e, hmLStat, hmLNext, hmLTail, node, uint64(h)+1,
				hmLocalGrant(passes, gEnc)) != 0 {
				return
			}
			// Local queue drained: release the global lock too.
			amcsRelease(e, hmGStat, hmGNext, hmGTail, 0, gEnc, hmGrantBase)
			return
		}
		// Pass limit reached: release the global lock first, then tell
		// the local successor to queue globally itself.
		amcsRelease(e, hmGStat, hmGNext, hmGTail, 0, gEnc, hmGrantBase)
		amcsRelease(e, hmLStat, hmLNext, hmLTail, node, uint64(h)+1, hmMustGlobal)
	}
	return s
}
