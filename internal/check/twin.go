package check

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
)

// The twin layer. Every lock is one lockspec body instantiated twice:
// on the simulated machine (internal/simlock, deterministic,
// schedule-explorable) and over sync/atomic (internal/core, real
// goroutines, race-detector checkable). State words, transitions and
// probes cannot differ between the two — they are the same code — so
// what is left to cross-check is the one thing each stack supplies
// itself, its waiting policy (parked spins vs. yield-paced polling), and
// the Env that carries it:
//
//   - hard parity: if one instantiation passes its correctness oracles
//     and the other fails, an Env primitive or wait loop has diverged;
//   - lenient qualitative cross-checks: node-handoff locality and
//     fairness bursts are compared against each side's own TATAS
//     baseline with a wide dead-band. The sim side is deterministic and
//     checked tightly; the native side runs under the Go scheduler on
//     whatever host CPUs exist (often one), so only gross inversions
//     count as divergence there.

// TwinStress parameterizes the native-side stress run.
type TwinStress struct {
	Threads int
	Iters   int
	Timeout time.Duration // wall-clock watchdog for the native run
}

// DefaultTwinStress is sized to finish quickly even with the race
// detector on while still interleaving heavily.
func DefaultTwinStress() TwinStress {
	return TwinStress{Threads: 4, Iters: 300, Timeout: 30 * time.Second}
}

// TwinResult is one lock's differential comparison.
type TwinResult struct {
	Lock         string   `json:"lock"`
	SimFailures  []string `json:"sim_failures,omitempty"`
	CoreFailures []string `json:"core_failures,omitempty"`
	// Divergences are mismatches between the two instantiations — the
	// failures unique to this layer.
	Divergences  []string `json:"divergences,omitempty"`
	SimLocality  float64  `json:"sim_locality"`
	CoreLocality float64  `json:"core_locality"`
	SimMaxBurst  int      `json:"sim_max_burst"`
	CoreMaxBurst int      `json:"core_max_burst"`
}

// Passed reports whether the twins agree and both are correct.
func (r *TwinResult) Passed() bool {
	return len(r.SimFailures) == 0 && len(r.CoreFailures) == 0 && len(r.Divergences) == 0
}

// coreOutcome is the native-side stress result.
type coreOutcome struct {
	failures []string
	locality float64
	maxBurst int
}

// coreQuiescer is the native counterpart of simlock.Quiescer.
type coreQuiescer interface{ Quiescent() error }

// coreStress runs a native lock under the schedule explorer's oracles:
// an atomic critical-section token (mutual exclusion), a wall-clock
// watchdog (progress), and the quiescence probe where available. The
// oracles are all atomic or independently locked so a broken lock under
// test produces oracle failures, not data-race reports.
func coreStress(l core.Lock, rt *core.Runtime, s TwinStress) coreOutcome {
	var out coreOutcome
	var inCS, violations atomic.Int64
	var mu sync.Mutex // guards order independently of the lock under test
	type entry struct{ tid, node int }
	order := make([]entry, 0, s.Threads*s.Iters)

	var wg sync.WaitGroup
	for tid := 0; tid < s.Threads; tid++ {
		th := rt.RegisterThread(tid % rt.Nodes())
		tid := tid
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < s.Iters; i++ {
				l.Acquire(th)
				if tok := inCS.Add(1); tok != 1 {
					violations.Add(1)
				}
				mu.Lock()
				order = append(order, entry{tid, th.Node()})
				mu.Unlock()
				// Periodically yield while inside the critical section:
				// on a host with few CPUs an entire acquire/release
				// cycle otherwise fits in one scheduler quantum, and a
				// mutual-exclusion violation needs two threads *in* the
				// section at once to be observable. Every iteration
				// would be too often — a waiter spinning without a
				// voluntary yield (e.g. TICKET's proportional spin)
				// then burns a full preemption quantum per handoff.
				if i%16 == 0 {
					runtime.Gosched()
				}
				inCS.Add(-1)
				l.Release(th)
			}
		}()
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(s.Timeout):
		// The stuck goroutines leak; a checker that already failed has
		// nothing left to protect.
		out.failures = append(out.failures,
			fmt.Sprintf("progress: native stress did not finish within %v", s.Timeout))
		return out
	}

	if v := violations.Load(); v > 0 {
		out.failures = append(out.failures,
			fmt.Sprintf("mutual-exclusion: %d critical-section token violations", v))
	}
	if len(order) != s.Threads*s.Iters {
		out.failures = append(out.failures,
			fmt.Sprintf("lost-update: %d acquisitions recorded, want %d",
				len(order), s.Threads*s.Iters))
	}
	if q, ok := l.(coreQuiescer); ok {
		if err := q.Quiescent(); err != nil {
			out.failures = append(out.failures, fmt.Sprintf("quiescence: %v", err))
		}
	}
	burst, sameNode, handoffs := 0, 0, 0
	lastTID, lastNode := -1, -1
	for _, e := range order {
		if e.tid == lastTID {
			burst++
		} else {
			burst = 1
			lastTID = e.tid
		}
		if burst > out.maxBurst {
			out.maxBurst = burst
		}
		if lastNode >= 0 {
			handoffs++
			if e.node == lastNode {
				sameNode++
			}
		}
		lastNode = e.node
	}
	if handoffs > 0 {
		out.locality = float64(sameNode) / float64(handoffs)
	}
	return out
}

// coreTwinTuning mirrors exploreTuning for the native side: small
// backoffs and a hair-trigger starvation detector.
func coreTwinTuning() core.Tuning {
	tun := core.DefaultTuning()
	tun.BackoffBase = 16
	tun.BackoffCap = 256
	tun.RemoteBackoffBase = 32
	tun.RemoteBackoffCap = 128
	tun.GetAngryLimit = 2
	// Yield aggressively inside backoff loops: the stress runner yields
	// while holding the lock, and a spinner that does not yield back
	// starves the holder for a whole preemption quantum when the host
	// has fewer CPUs than contenders.
	tun.YieldThreshold = 8
	return tun
}

// CheckTwin checks one lock's two instantiations against each other.
// baseline is the TATAS result from the same session (nil
// when comparing TATAS itself), anchoring the qualitative dead-bands.
func CheckTwin(name string, seed uint64, s TwinStress, baseline *TwinResult) TwinResult {
	res := TwinResult{Lock: name}

	// Sim side: a short deterministic schedule sweep.
	lr := ExploreLock(name, nil, seed, Budget{Schedules: 8, MaxRuns: 8, MaxFailures: 3})
	for _, f := range lr.Failures {
		res.SimFailures = append(res.SimFailures, f.Failures...)
	}
	res.SimLocality = lr.MeanLocality
	res.SimMaxBurst = lr.MaxBurst

	// Native side: goroutine stress under the same oracles.
	rt := core.NewRuntime(2, s.Threads)
	l := core.New(name, rt, coreTwinTuning())
	out := coreStress(l, rt, s)
	res.CoreFailures = out.failures
	res.CoreLocality = out.locality
	res.CoreMaxBurst = out.maxBurst

	// Hard parity: one twin clean, the other failing.
	simOK, coreOK := len(res.SimFailures) == 0, len(res.CoreFailures) == 0
	if simOK != coreOK {
		res.Divergences = append(res.Divergences, fmt.Sprintf(
			"oracle parity: sim passed=%v but native passed=%v", simOK, coreOK))
	}

	// Lenient qualitative cross-checks against each side's own TATAS
	// baseline. The sim side is deterministic, so its dead-bands are
	// modest; the native side runs under the host scheduler and is
	// skipped when the baseline itself shows no node alternation (on a
	// single-CPU host whole scheduler quanta serialize, pushing every
	// native lock to locality ~1.0 and burst ~Iters).
	//
	// HBO_GT trades fairness for node locality (the paper's headline
	// property), so its locality must not fall grossly below the
	// unthrottled baseline. HBO_GT_SD spends that locality back on
	// starvation freedom — the paper's own framing of the SD lines —
	// so for it the fairness direction is checked instead: its worst
	// same-thread burst must not exceed the baseline's.
	if baseline != nil {
		switch name {
		case "HBO_GT":
			if res.SimLocality < baseline.SimLocality-0.25 {
				res.Divergences = append(res.Divergences, fmt.Sprintf(
					"locality: sim %s locality %.2f far below sim TATAS baseline %.2f",
					name, res.SimLocality, baseline.SimLocality))
			}
			if baseline.CoreLocality > 0.05 && baseline.CoreLocality < 0.95 &&
				res.CoreLocality < baseline.CoreLocality-0.5 {
				res.Divergences = append(res.Divergences, fmt.Sprintf(
					"locality: native %s locality %.2f grossly below native TATAS baseline %.2f",
					name, res.CoreLocality, baseline.CoreLocality))
			}
		case "HBO_GT_SD":
			if res.SimMaxBurst > baseline.SimMaxBurst+2 {
				res.Divergences = append(res.Divergences, fmt.Sprintf(
					"fairness: sim %s max burst %d exceeds sim TATAS baseline %d (starvation detector regressed)",
					name, res.SimMaxBurst, baseline.SimMaxBurst))
			}
		}
	}
	return res
}

// CheckTwins checks every named lock (nil = the whole registry). The
// native side uses real goroutines, so unlike the schedule explorer the
// results are not bit-deterministic across runs.
func CheckTwins(names []string, seed uint64, s TwinStress) []TwinResult {
	if names == nil {
		names = core.AllNames()
	}
	// TATAS runs first to establish the qualitative baselines.
	base := CheckTwin("TATAS", seed, s, nil)
	results := make([]TwinResult, 0, len(names))
	for _, name := range names {
		if name == "TATAS" {
			results = append(results, base)
			continue
		}
		results = append(results, CheckTwin(name, seed, s, &base))
	}
	return results
}
