// Package simlock runs the lock algorithms of internal/lockspec — the
// eight the HBO paper evaluates (TATAS, TATAS_EXP, MCS, CLH, RH, HBO,
// HBO_GT, HBO_GT_SD) and the extensions beyond it — as programs for the
// simulated NUCA machine in internal/machine.
//
// No algorithm is written here: FromSpec (spec.go) allocates a spec's
// declared words in simulated memory and runs its transition bodies
// against an Env whose every operation is a machine.Proc word access,
// so a body pays simulated coherence traffic for exactly the loads,
// stores and atomics it issues. What this package contributes is the
// simulator's waiting policy (unbounded waits park on the watched cache
// line, timed waits poll on a fixed quantum) and its tuning defaults.
// internal/core instantiates the same specs over sync/atomic for real
// programs.
package simlock

import (
	"fmt"

	"repro/internal/lockspec"
	"repro/internal/machine"
	"repro/internal/sim"
)

// Lock is a mutual-exclusion lock operated by simulated processors.
// tid identifies the acquiring thread (dense ids, one per simulated
// thread) so queue locks can find their per-thread queue nodes.
type Lock interface {
	Name() string
	Acquire(p *machine.Proc, tid int)
	Release(p *machine.Proc, tid int)
}

// TimedLock is implemented by locks with an abortable, timed acquire
// path. AcquireTimeout attempts the acquisition for at most d of
// simulated time (d <= 0 means no bound, equivalent to Acquire) and
// reports whether the lock was obtained. An aborted attempt restores
// every protocol invariant — lock word untouched, auxiliary words
// (e.g. the HBO family's is_spinning throttles) back to idle — so a
// Quiescer probe passes after any mix of aborts.
//
// Backoff locks (TATAS, TATAS_EXP, HBO family) abandon trivially: a
// waiter owns no queue state, so it stops retrying and clears any
// throttle word it published. Queue locks commit the thread at enqueue
// time; of those only CLH_TRY implements the Scott & Scherer splice-out
// handshake, and the rest are deliberately non-abortable (see
// TimedNames).
type TimedLock interface {
	Lock
	AcquireTimeout(p *machine.Proc, tid int, d sim.Time) bool
}

// TimedNames lists the registered locks that implement TimedLock,
// derived from the lockspec registry. MCS, CLH, TICKET, ANDERSON,
// REACTIVE, RH, HBO_HIER, COHORT and CNA are deliberately
// non-abortable: their enqueue (or node-election) step publishes state
// a departing waiter cannot retract without a full abandonment
// protocol, which only CLH_TRY (splice-out) and HMCS_T (status-word
// abort race) carry. A test pins this membership so a lock gaining or
// losing a timed path updates the documentation.
func TimedNames() []string { return lockspec.TimedNames() }

// Quiescer verifies that a lock's shared state (queue tails, ticket
// counters, the HBO family's per-node is_spinning words) is back at a
// known idle value once no acquires are in flight. Every spec declares
// the probe, so every lock New builds is a Quiescer; the correctness
// harness checks it after every schedule.
type Quiescer interface {
	Quiescent(m *machine.Machine) error
}

// WordInjector is implemented by locks whose spec exposes its raw lock
// word to the correctness harness, which corrupts it and checks the
// acquirer survives.
type WordInjector interface {
	InjectWord(m *machine.Machine, v uint64)
}

// Tuning collects the backoff constants that the paper tunes "by trial
// and error for each individual architecture". Units are iterations of
// the empty delay loop (machine.Latencies.BackoffUnit each). The type
// is shared with internal/core via lockspec, so one value can configure
// an algorithm in either stack (the native-only fields, like
// YieldThreshold, are ignored here).
type Tuning = lockspec.Tuning

// DefaultTuning returns constants tuned for the WildFire latency preset
// (BackoffUnit = 4 ns): local backoff 128 ns .. 2 µs, remote backoff
// 8 µs .. 65 µs. The remote cap must dwarf the local handover time —
// every failed remote cas drags the lock line across the interconnect,
// so remote spinners probe rarely and the lock stays in its node (the
// tuning lesson the paper's Figure 9 sweep teaches).
func DefaultTuning() Tuning {
	return Tuning{
		BackoffBase:       32,
		BackoffFactor:     2,
		BackoffCap:        4096,
		RemoteBackoffBase: 4096,
		RemoteBackoffCap:  32768,
		GetAngryLimit:     8,
		RHRemoteBase:      2048,
		RHRemoteCap:       16384,
		RHFairTries:       4,
		RHGlobalEvery:     64,
	}
}

// Factory builds a lock instance on machine m. home is the node whose
// memory backs the lock variable; cpus maps thread ids to the CPUs they
// run on (queue locks home each thread's queue node in that thread's
// node).
type Factory func(m *machine.Machine, home int, cpus []int, tun Tuning) Lock

// Names lists the algorithms in the order the paper's tables use,
// derived from the lockspec registry.
func Names() []string { return lockspec.PaperNames() }

// ExtendedNames lists the additional algorithms this library implements
// beyond the paper's eight: classic baselines from its related work
// (TICKET, ANDERSON, REACTIVE), the hierarchical HBO the paper sketches
// in section 4.1 (HBO_HIER), the cohort-lock family that HBO helped
// inspire (COHORT), a timeout-capable CLH (CLH_TRY), and the modern
// NUMA locks CNA and HMCS_T.
func ExtendedNames() []string { return lockspec.ExtendedNames() }

// AllNames lists the paper's eight plus the extensions.
func AllNames() []string { return lockspec.AllNames() }

// NUCAAware reports whether the named algorithm exploits node locality
// (the paper's "NUCA-aware" group).
func NUCAAware(name string) bool { return lockspec.NUCAAware(name) }

// New builds the named lock from its lockspec registry entry. It panics
// on an unknown name (experiment configuration is programmer input).
func New(name string, m *machine.Machine, home int, cpus []int, tun Tuning) Lock {
	s := lockspec.Lookup(name)
	if s == nil {
		panic(fmt.Sprintf("simlock: unknown lock %q", name))
	}
	return FromSpec(s, m, home, cpus, tun)
}
