package lockspec

import "fmt"

// Word layout for the cohort lock: a global ticket lock, and per node a
// local ticket lock plus the node's cohort state.
const (
	coGNext  = 0 // global ticket lock: next ticket
	coGOwner = 1 // global ticket lock: ticket served
	coNode   = 2 // the per-node word; offsets below

	coNext      = 0 // local ticket lock: next ticket
	coOwner     = 1 // local ticket lock: ticket served
	coOwnGlobal = 2 // non-zero while the node holds the global lock
	coStreak    = 3 // consecutive in-node handovers
)

// cohortLimit caps consecutive in-node handovers: long enough to
// amortize global handovers, short enough to bound cross-node
// starvation (the same trade GET_ANGRY_LIMIT makes for HBO_GT_SD).
const cohortLimit = 64

// cohortSpec implements lock cohorting (Dice, Marathe & Shavit, PPoPP
// 2012), the line of NUMA-aware locks that HBO helped inspire: a global
// ticket lock arbitrates between nodes while a per-node ticket lock
// arbitrates within a node. A releaser that sees a local successor
// hands over the local lock and keeps the global one (cheap, in-node),
// passing global ownership along the cohort; after cohortLimit
// consecutive in-node handovers the global lock is released for
// fairness.
//
// Compared with HBO, cohorting gets node affinity *deterministically*
// (no backoff races) at the price of two lock words per acquire on the
// cold path — the same trade queue locks make against TATAS.
func cohortSpec() *Spec {
	return &Spec{
		Meta: Meta{
			Name: "COHORT",
			Doc:  "Dice-Marathe-Shavit ticket-ticket cohort lock; node-local handoffs",
			NUCA: true,
		},
		Words: []Word{
			{Name: "global_next"},
			{Name: "global_owner"},
			{Name: "node", Scope: ScopePerNode, Count: 4},
		},
		Acquire: func(e Env, tun *Tuning) bool {
			n := e.Node() * 4
			// Local ticket first: serializes the node's threads cheaply.
			my := e.FetchAdd(coNode, n+coNext, 1)
			e.Scratch()[0] = my
			e.GrantWait(coNode, n+coOwner, my)
			// We now own the node's local lock. If the node already
			// holds the global lock (handed along the cohort), done.
			if e.Load(coNode, n+coOwnGlobal) != 0 {
				return true
			}
			// Cold path: take the global ticket lock for the node.
			g := e.FetchAdd(coGNext, 0, 1)
			e.GrantWait(coGOwner, 0, g)
			e.Store(coNode, n+coOwnGlobal, 1)
			return true
		},
		Release: func(e Env, tun *Tuning) {
			n := e.Node() * 4
			my := e.Scratch()[0]
			// A local successor exists if someone took a ticket after ours.
			succ := e.Load(coNode, n+coNext) > my+1
			streak := e.Load(coNode, n+coStreak)
			if succ && streak < cohortLimit {
				// Hand over in-node: keep the global lock with the node.
				e.Store(coNode, n+coStreak, streak+1)
				e.Store(coNode, n+coOwner, my+1)
				return
			}
			// Release globally: drop the node's global ownership first so
			// the local successor (if any) re-competes for the global lock.
			e.Store(coNode, n+coStreak, 0)
			e.Store(coNode, n+coOwnGlobal, 0)
			e.HolderInc(coGOwner, 0)
			e.Store(coNode, n+coOwner, my+1)
		},
		Quiesce: func(q Peeker) error {
			if n, o := q.Peek(coGNext, 0), q.Peek(coGOwner, 0); n != o {
				return fmt.Errorf("COHORT: global next %d != owner %d at quiescence", n, o)
			}
			for node := 0; node < q.Nodes(); node++ {
				n := node * 4
				if nx, o := q.Peek(coNode, n+coNext), q.Peek(coNode, n+coOwner); nx != o {
					return fmt.Errorf("COHORT: node %d next %d != owner %d at quiescence", node, nx, o)
				}
				if v := q.Peek(coNode, n+coOwnGlobal); v != 0 {
					return fmt.Errorf("COHORT: node %d still owns the global lock at quiescence", node)
				}
			}
			return nil
		},
	}
}
