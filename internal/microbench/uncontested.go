package microbench

import (
	"fmt"

	"repro/internal/machine"
	"repro/internal/sim"
	"repro/internal/simlock"
)

// Scenario selects the previous owner of the lock in the uncontested
// probe (Table 1's three columns).
type Scenario int

const (
	// SameProcessor re-acquires on the CPU that held the lock last.
	SameProcessor Scenario = iota
	// SameNode acquires on a different CPU in the previous owner's node.
	SameNode
	// RemoteNode acquires on a CPU in another node.
	RemoteNode
)

// String names the scenario the way Table 1's header does.
func (s Scenario) String() string {
	switch s {
	case SameProcessor:
		return "Same Processor"
	case SameNode:
		return "Same Node"
	case RemoteNode:
		return "Remote Node"
	}
	return fmt.Sprintf("Scenario(%d)", int(s))
}

// Scenarios lists all three in table order.
func Scenarios() []Scenario { return []Scenario{SameProcessor, SameNode, RemoteNode} }

// Uncontested measures the cost of a single acquire-release pair on an
// otherwise idle machine, with the lock previously owned per scenario.
// It returns the averaged latency over rounds repetitions.
func Uncontested(cfg machine.Config, lockName string, sc Scenario, rounds int) sim.Time {
	if rounds < 1 {
		rounds = 1
	}
	m := machine.New(cfg)
	defer m.Release()

	// Thread 0 is the previous owner, thread 1 the measuring thread.
	ownerCPU := 0
	measureCPU := 0
	switch sc {
	case SameProcessor:
		ownerCPU, measureCPU = 0, 0
	case SameNode:
		ownerCPU, measureCPU = 1, 0
	case RemoteNode:
		if cfg.Nodes < 2 {
			panic("microbench: RemoteNode scenario needs >= 2 nodes")
		}
		ownerCPU, measureCPU = cfg.CPUsPerNode, 0
	}
	cpus := []int{ownerCPU, measureCPU}
	l := buildLock(lockName, m, cpus, simlock.DefaultTuning())

	var total sim.Time
	// The two phases alternate per round: the owner takes and drops the
	// lock (warming its cache), then the measurer times one pair.
	// Phases are sequenced by simulated-time rendezvous on host state:
	// a strict handoff through Work delays would be fragile, so each
	// phase runs as its own spawn generation on a fresh machine when
	// the CPUs differ.
	if sc == SameProcessor {
		m.Spawn(0, func(p *machine.Proc) {
			// Warm both threads' lock-private state (queue nodes), then
			// measure with the previous owner being this same CPU.
			l.Acquire(p, 1)
			l.Release(p, 1)
			l.Acquire(p, 0)
			l.Release(p, 0)
			for r := 0; r < rounds; r++ {
				t0 := p.Now()
				l.Acquire(p, 1)
				l.Release(p, 1)
				total += p.Now() - t0
			}
		})
		m.Run()
		return total / sim.Time(rounds)
	}

	// Different CPUs: ping-pong via host-side turn variable. The owner
	// and the measurer alternate; each waits for its turn with pure
	// simulated delays (polling a host flag costs nothing, so we use a
	// sim-memory doorbell to keep time flowing realistically).
	turn := m.Alloc(0, 1) // 0: owner's turn, 1: measurer's turn
	m.Spawn(ownerCPU, func(p *machine.Proc) {
		for r := 0; r <= rounds; r++ {
			p.SpinWhileEquals(turn, 1)
			l.Acquire(p, 0)
			l.Release(p, 0)
			p.Store(turn, 1)
		}
	})
	m.Spawn(measureCPU, func(p *machine.Proc) {
		for r := 0; r <= rounds; r++ {
			p.SpinWhileEquals(turn, 0)
			// Let the doorbell traffic settle out of the lock lines.
			p.Work(10 * sim.Microsecond)
			t0 := p.Now()
			l.Acquire(p, 1)
			l.Release(p, 1)
			if r > 0 { // round 0 warms the measurer's queue nodes
				total += p.Now() - t0
			}
			p.Store(turn, 0)
		}
	})
	m.Run()
	return total / sim.Time(rounds)
}
