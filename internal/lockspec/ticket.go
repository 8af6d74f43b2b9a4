package lockspec

import "fmt"

// Word layout for the ticket lock.
const (
	tkNext  = 0 // next ticket to hand out
	tkOwner = 1 // ticket currently served
)

// ticketSpec is the classic ticket lock with proportional backoff: a
// fetch-and-increment (built from cas on the simulator, as on SPARC)
// takes a ticket, and the holder's release publishes the next ticket
// number. The grant wait is GrantWait — proportional backoff natively,
// a parked test-and-test&set-style spin on the simulator. The paper's
// related work (Mellor-Crummey & Scott 1991) uses it as the
// fair-but-centralized baseline between TATAS and queue locks.
func ticketSpec() *Spec {
	return &Spec{
		Meta: Meta{
			Name: "TICKET",
			Doc:  "FIFO ticket lock with proportional backoff",
		},
		Words: []Word{{Name: "next"}, {Name: "owner"}},
		Acquire: func(e Env, tun *Tuning) bool {
			my := e.FetchAdd(tkNext, 0, 1)
			e.GrantWait(tkOwner, 0, my)
			return true
		},
		Release: func(e Env, tun *Tuning) {
			// Only the holder writes owner, so a plain increment is safe.
			e.HolderInc(tkOwner, 0)
		},
		Quiesce: func(q Peeker) error {
			if n, o := q.Peek(tkNext, 0), q.Peek(tkOwner, 0); n != o {
				return fmt.Errorf("TICKET: next %d != owner %d at quiescence", n, o)
			}
			return nil
		},
	}
}

// Word layout for the Anderson lock. The ring has one slot per thread
// plus one; ring position 0 is its own word because it alone starts
// granted.
const (
	andTail  = 0 // slot counter
	andFirst = 1 // ring position 0
	andRest  = 2 // ring positions 1..threads
)

// andSlot resolves a ticket to its slot in the ring.
func andSlot(threads int, pos uint64) (w, i int) {
	k := int(pos % uint64(threads+1))
	if k == 0 {
		return andFirst, 0
	}
	return andRest, k - 1
}

// andersonSpec is Anderson's array-based queue lock: a
// fetch-and-increment assigns each contender a slot in a circular flag
// array; the releaser sets the successor slot. Each waiter spins on its
// own word, but the array lives in one node, which is exactly the NUMA
// weakness that motivated distributed queue locks (and, later,
// NUCA-aware locks).
func andersonSpec() *Spec {
	return &Spec{
		Meta: Meta{
			Name: "ANDERSON",
			Doc:  "Anderson array queue lock; slots in one circular flag array",
		},
		Words: []Word{
			{Name: "tail"},
			{Name: "slot0", Init: func(int, int) uint64 { return 1 }},
			{Name: "slots", Scope: ScopeLockPerThread},
		},
		Acquire: func(e Env, tun *Tuning) bool {
			pos := e.FetchAdd(andTail, 0, 1)
			e.Scratch()[0] = pos
			w, i := andSlot(e.Threads(), pos)
			e.AwaitWhile(w, i, 0)
			e.Store(w, i, 0) // reset for the next lap around the ring
			return true
		},
		Release: func(e Env, tun *Tuning) {
			w, i := andSlot(e.Threads(), e.Scratch()[0]+1)
			e.Store(w, i, 1)
		},
		Quiesce: func(q Peeker) error {
			// Exactly the slot the next arrival takes is granted.
			tail := q.Peek(andTail, 0)
			for k := 0; k <= q.Threads(); k++ {
				pos := tail + uint64(k)
				w, i := andSlot(q.Threads(), pos)
				want := uint64(0)
				if k == 0 {
					want = 1
				}
				if v := q.Peek(w, i); v != want {
					return fmt.Errorf("ANDERSON: slot of ticket %d = %d at quiescence, want %d", pos, v, want)
				}
			}
			return nil
		},
	}
}
