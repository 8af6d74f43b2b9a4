package lockspec

import "fmt"

// Lock-word values for the HBO family. The paper cas-es the acquiring
// thread's node_id into the lock; node ids are shifted by one so FREE
// can be zero.
const hboFree uint64 = 0

func hboNodeVal(node int) uint64 { return uint64(node) + 1 }

// The per-node is_spinning word holds the lock's tag (Env.Tag — the
// lock word's address on the simulator, a process-unique id natively)
// while a node winner is remote-spinning, blocking its neighbors, and
// hboDummy otherwise.
const hboDummy uint64 = 0

type hboMode int

const (
	modeHBO hboMode = iota
	modeGT
	modeGTSD
	modeHier
)

// Word layout for the HBO family. GT modes append the per-node
// is_spinning throttle words; plain HBO declares only the lock word.
const (
	hboLock = 0
	hboSpin = 1
)

// hboSpec is the paper's Figure 1. mode selects plain HBO (the
// emphasized GT lines skipped), HBO_GT (global-traffic throttling via
// per-node is_spinning words), HBO_GT_SD (GT plus the node-centric
// starvation detection of Figure 2), or HBO_HIER (the same lock word
// under hboHierAcquire's distance-ranked backoff). The timed path is the
// same protocol with the deadline checked at backoff boundaries — deadline
// checks touch no shared word, so the unbounded path issues the exact
// access sequence of the paper's pseudocode. An abort restores every
// protocol invariant: the lock word is never claimed, the aborting
// waiter's is_spinning throttle is reset to the dummy value — the same
// store the successful remote path issues — and any nodes the GT_SD
// anger logic stopped are released.
func hboSpec(name string, mode hboMode) *Spec {
	gt := mode == modeGT || mode == modeGTSD
	doc := "hierarchical backoff lock (Figure 1); lock stays in its node"
	switch mode {
	case modeGT:
		doc = "HBO + per-node traffic throttling (is_spinning words)"
	case modeGTSD:
		doc = "HBO_GT + node-centric starvation detection (Figure 2)"
	case modeHier:
		doc = "hierarchical HBO (paper §4.1); third backoff tier across clusters"
	}
	words := []Word{{Name: "lock"}}
	if gt {
		// "not necessarily allocated in the local memory" — each node's
		// throttle word is homed locally, the intended deployment.
		words = append(words, Word{Name: "is_spinning", Scope: ScopePerNode})
	}
	s := &Spec{
		Meta: Meta{
			Name:  name,
			Doc:   doc,
			Paper: mode != modeHier, NUCA: true, Timed: mode != modeHier, Try: true,
		},
		Words: words,
		Release: func(e Env, tun *Tuning) {
			// hbo_release (Figure 1, lines 62–65).
			e.Store(hboLock, 0, hboFree)
		},
		TryBody: func(e Env, tun *Tuning) bool {
			if gt && e.Load(hboSpin, e.Node()) == e.Tag() {
				return false // a neighbor holds the node back; don't barge
			}
			return e.CASOnce(hboLock, 0, hboFree, hboNodeVal(e.Node()))
		},
		Quiesce: func(q Peeker) error {
			if v := q.Peek(hboLock, 0); v != hboFree {
				return fmt.Errorf("%s: lock word %d not free at quiescence", name, v)
			}
			if gt {
				for n := 0; n < q.Nodes(); n++ {
					if v := q.Peek(hboSpin, n); v != hboDummy {
						return fmt.Errorf("%s: is_spinning[%d] = %d at quiescence (node left throttled)",
							name, n, v)
					}
				}
			}
			return nil
		},
	}
	if mode == modeHier {
		s.Acquire = hboHierAcquire
		return s
	}
	// The harness corrupts the lock word to prove GT_SD bounds-checks the
	// owner it decodes; HBO_HIER only ever passes it to Distance.
	s.Inject = &Ref{W: hboLock, I: 0}
	// Acquire is hbo_acquire (Figure 1, lines 1–10) with
	// hbo_acquire_slowpath (lines 17–61; Figure 2 replaces the remote
	// loop's tail in GT_SD mode). The paper's goto start / goto restart
	// structure is kept verbatim.
	s.Acquire = func(e Env, tun *Tuning) bool {
		my := hboNodeVal(e.Node())
		if gt {
			// Line 5: while (L == is_spinning[my_node_id]) ; // spin
			if !e.ThrottleWait(hboSpin, e.Node(), e.Tag()) {
				return false
			}
		}
		tmp := e.CAS(hboLock, 0, hboFree, my)
		if tmp == hboFree {
			return true // lock was free, and is now locked
		}

		// Slow path.
		e.SlowPath()

		// SD state (Figure 2): per-acquire anger counter and stopped
		// nodes.
		getAngry := 0
		angry := false
		var stopped []int
		releaseStopped := func() {
			for _, n := range stopped {
				e.Store(hboSpin, n, hboDummy)
			}
			stopped = stopped[:0]
		}

	start:
		if tmp == my { // local lock (Figure 1, lines 23–36)
			b := tun.BackoffBase
			for {
				if e.Expired() {
					return false // local waiters publish no auxiliary state
				}
				b = e.Backoff(b, tun.BackoffFactor, tun.BackoffCap)
				tmp = e.CAS(hboLock, 0, hboFree, my)
				if tmp == hboFree {
					return true
				}
				if tmp != my {
					b = e.Backoff(b, tun.BackoffFactor, tun.BackoffCap)
					goto restart
				}
			}
		}

		// Remote lock (Figure 1, lines 37–52).
		{
			b := tun.RemoteBackoffBase
			bcap := tun.RemoteBackoffCap
			if gt {
				e.Store(hboSpin, e.Node(), e.Tag())
			}
			for {
				if e.Expired() {
					if gt {
						// Abort mirrors the successful exit: un-throttle
						// our node's neighbors and release any stopped
						// nodes, so the abandoned attempt leaves the
						// protocol idle.
						e.Store(hboSpin, e.Node(), hboDummy)
						releaseStopped()
					}
					return false
				}
				b = e.Backoff(b, tun.BackoffFactor, bcap)
				tmp = e.CAS(hboLock, 0, hboFree, my)
				if tmp == hboFree {
					if gt {
						// Release the threads from our node.
						e.Store(hboSpin, e.Node(), hboDummy)
						releaseStopped()
					}
					return true
				}
				if tmp == my {
					if gt {
						e.Store(hboSpin, e.Node(), hboDummy)
						releaseStopped()
					}
					goto restart
				}
				if mode == modeGTSD {
					// Figure 2, lines 57–63: the lock is still in some
					// remote node; get angry. An angry node spins more
					// frequently and stops the owning node's other
					// threads from re-acquiring.
					getAngry++
					if getAngry >= tun.GetAngryLimit {
						getAngry = 0
						owner := int(tmp) - 1
						// Bounds-guard the decoded owner before indexing
						// is_spinning: a corrupted lock word must not take
						// down the whole machine.
						if owner >= 0 && owner < e.Nodes() &&
							owner != e.Node() && !containsInt(stopped, owner) {
							stopped = append(stopped, owner)
							e.Store(hboSpin, owner, e.Tag())
						}
						if !angry {
							angry = true
							b = tun.BackoffBase
							bcap = tun.BackoffCap
						}
					}
				}
			}
		}

	restart:
		// Figure 1, lines 55–60. No auxiliary state is held here: both
		// jumps to restart reset is_spinning and the stopped list first.
		if gt {
			if !e.ThrottleWait(hboSpin, e.Node(), e.Tag()) {
				return false
			}
		}
		tmp = e.CAS(hboLock, 0, hboFree, my)
		if tmp == hboFree {
			return true
		}
		if e.Expired() {
			return false
		}
		goto start
	}
	return s
}

// hboHierAcquire is the hierarchical generalization the paper sketches
// in section 4.1: "This scheme can be expanded in a hierarchical way,
// using more than two sets of constants, for a hierarchical NUCA." The
// lock word still holds the owner's node id; a contender chooses its
// backoff schedule by its *distance* to the owner — same node, same
// cluster, or across clusters — so the lock prefers the closest waiters
// at every level of the hierarchy. On a flat machine there are two
// distance classes, i.e. plain HBO's constants.
func hboHierAcquire(e Env, tun *Tuning) bool {
	node := e.Node()
	my := hboNodeVal(node)
	tmp := e.CAS(hboLock, 0, hboFree, my)
	if tmp == hboFree {
		return true
	}
	e.SlowPath()
	for {
		dist := e.Distance(node, int(tmp)-1)
		var b, bcap int
		switch dist {
		case 0:
			b, bcap = tun.BackoffBase, tun.BackoffCap
		case 1:
			b, bcap = tun.RemoteBackoffBase, tun.RemoteBackoffCap
		default:
			b, bcap = tun.FarBackoffBase, tun.FarBackoffCap
			if b <= 0 {
				b = 4 * tun.RemoteBackoffBase
			}
			if bcap <= 0 {
				bcap = 4 * tun.RemoteBackoffCap
			}
		}
		for {
			b = e.Backoff(b, tun.BackoffFactor, bcap)
			tmp = e.CAS(hboLock, 0, hboFree, my)
			if tmp == hboFree {
				return true
			}
			// If the owner moved to a different distance class,
			// re-dispatch onto that class's schedule.
			if e.Distance(node, int(tmp)-1) != dist {
				break
			}
		}
	}
}

func containsInt(s []int, v int) bool {
	for _, x := range s {
		if x == v {
			return true
		}
	}
	return false
}
