package lockspec

import "fmt"

// Word layout for RH: per node, the node's copy of the lock followed by
// its local-waiter count.
const (
	rhNode    = 0 // the one per-node word
	rhCopy    = 0 // offset: this node's lock copy
	rhWaiters = 1 // offset: threads of this node in the slow path
)

// RH lock-copy values. Thread values start at rhTaken+1.
const (
	rhFree   uint64 = 0 // anyone may take the lock
	rhLFree  uint64 = 1 // only threads in this node may take it
	rhRemote uint64 = 2 // the lock lives in the other node
	rhTaken  uint64 = 3 // a node winner has claimed the remote-spin role
)

func rhThreadVal(tid int) uint64 { return rhTaken + 1 + uint64(tid) }

// rhSpec is the authors' earlier proof-of-concept NUCA-aware lock
// (Radović & Hagersten, SC 2002), which the paper uses as a baseline.
// It supports exactly two nodes: every node holds its own copy of the
// lock, a releaser hands over locally by tagging its copy L_FREE, and
// one "node winner" per node spins on the other node's copy to migrate
// the lock.
//
// The paper gives only a prose description (section 3), so two details
// are implementation choices, documented in EXPERIMENTS.md:
//
//   - The releaser needs to know whether local waiters exist to choose
//     between an L_FREE local handover and leaving the lock globally
//     FREE; a per-node waiter count sits next to each copy.
//   - To bound (not eliminate — the paper calls RH starvation-prone)
//     remote starvation, a node winner may also steal an L_FREE copy
//     after RHFairTries failed attempts, and a node releases globally
//     after RHGlobalEvery consecutive local handovers (the streak is
//     holder-only bookkeeping in NodeScratch, standing in for the
//     algorithm's fairness heuristic).
func rhSpec() *Spec {
	return &Spec{
		Meta: Meta{
			Name:  "RH",
			Doc:   "Radovic-Hagersten two-copy lock; node winner steals the remote copy",
			Paper: true, NUCA: true, Try: true, MaxNodes: 2,
		},
		Words: []Word{{Name: "node", Scope: ScopePerNode, Count: 2,
			Init: func(i, nodes int) uint64 {
				// The lock starts logically in node 0: copy 0 FREE,
				// copy 1 REMOTE.
				if nodes == 2 && i == 1*2+rhCopy {
					return rhRemote
				}
				return 0
			}}},
		Acquire: func(e Env, tun *Tuning) bool {
			my := e.Node()*2 + rhCopy
			val := rhThreadVal(e.TID())
			tmp := e.CAS(rhNode, my, rhFree, val)
			if tmp == rhFree {
				return true
			}
			if tmp == rhLFree && e.CAS(rhNode, my, rhLFree, val) == rhLFree {
				return true
			}
			e.SlowPath()
			waiters := e.Node()*2 + rhWaiters
			e.FetchAdd(rhNode, waiters, 1)
			rhSlowpath(e, tun)
			e.FetchAdd(rhNode, waiters, ^uint64(0))
			return true
		},
		Release: func(e Env, tun *Tuning) {
			node := e.Node()
			if e.Nodes() == 2 {
				// Prefer a local handover when neighbors wait.
				local := e.Load(rhNode, node*2+rhWaiters)
				streak := e.NodeScratch()
				if local > 0 && *streak < uint64(tun.RHGlobalEvery) {
					*streak++
					e.Store(rhNode, node*2+rhCopy, rhLFree)
					return
				}
				*streak = 0
			}
			e.Store(rhNode, node*2+rhCopy, rhFree)
		},
		// TryBody takes the caller's node copy when it is free or
		// locally free. When the lock lives in the other node, it makes
		// one non-blocking steal attempt, claiming and, on failure,
		// returning the node-winner role.
		TryBody: func(e Env, tun *Tuning) bool {
			my := e.Node()*2 + rhCopy
			val := rhThreadVal(e.TID())
			if e.CASOnce(rhNode, my, rhFree, val) || e.CASOnce(rhNode, my, rhLFree, val) {
				return true
			}
			if e.Nodes() != 2 || !e.CASOnce(rhNode, my, rhRemote, rhTaken) {
				return false
			}
			v := e.Load(rhNode, (1-e.Node())*2+rhCopy)
			if (v == rhFree || v == rhLFree) && rhMigrate(e, v) {
				return true
			}
			if !e.CASOnce(rhNode, my, rhTaken, rhRemote) {
				panic("lockspec: RH node-winner copy stolen")
			}
			return false
		},
		Quiesce: func(q Peeker) error {
			for n := 0; n < q.Nodes(); n++ {
				if v := q.Peek(rhNode, n*2+rhCopy); v != rhFree && v != rhRemote {
					return fmt.Errorf("RH: copy[%d] = %d at quiescence, want FREE or REMOTE", n, v)
				}
				if v := q.Peek(rhNode, n*2+rhWaiters); v != 0 {
					return fmt.Errorf("RH: waiters[%d] = %d at quiescence", n, v)
				}
			}
			return nil
		},
	}
}

// rhMigrate claims the other node's copy for this node's winner, who
// holds its own copy as rhTaken, and converts that into ownership.
func rhMigrate(e Env, v uint64) bool {
	node := e.Node()
	if !e.CASOnce(rhNode, (1-node)*2+rhCopy, v, rhRemote) {
		return false
	}
	if !e.CASOnce(rhNode, node*2+rhCopy, rhTaken, rhThreadVal(e.TID())) {
		panic("lockspec: RH node-winner copy stolen")
	}
	return true
}

// rhRemoteSpin is the node winner's role: migrate the lock from the
// other node. Test first, then cas: the steal costs two remote
// transactions, which is why the paper measures RH's uncontested
// remote handover at ~2x the other locks (Table 1).
func rhRemoteSpin(e Env, tun *Tuning) {
	other := (1-e.Node())*2 + rhCopy
	b := tun.RHRemoteBase
	for tries := 0; ; tries++ {
		v := e.Load(rhNode, other)
		if v == rhFree || (v == rhLFree && tries >= tun.RHFairTries) {
			if rhMigrate(e, v) {
				return
			}
		}
		b = e.Backoff(b, tun.BackoffFactor, tun.RHRemoteCap)
	}
}

// rhSlowpath contends for the node's copy, or for the node-winner role
// when the lock lives in the other node.
func rhSlowpath(e Env, tun *Tuning) {
	my := e.Node()*2 + rhCopy
	val := rhThreadVal(e.TID())
	b := tun.BackoffBase
	for {
		tmp := e.CAS(rhNode, my, rhFree, val)
		if tmp == rhFree {
			return
		}
		if tmp == rhLFree {
			if e.CAS(rhNode, my, rhLFree, val) == rhLFree {
				return
			}
			continue
		}
		if tmp == rhRemote && e.Nodes() == 2 {
			// Try to become the node winner.
			if e.CAS(rhNode, my, rhRemote, rhTaken) == rhRemote {
				rhRemoteSpin(e, tun)
				return
			}
		}
		b = e.Backoff(b, tun.BackoffFactor, tun.BackoffCap)
	}
}
