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
			my := e.FetchInc(tkNext, 0)
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
