package microbench

import (
	"repro/internal/fault"
	"repro/internal/sim"
)

// DegradedConfig parameterizes the graceful-degradation benchmark: the
// new microbenchmark (Figure 4) run on a machine degraded by an
// internal/fault plan, optionally through the lock's timed acquire
// path.
type DegradedConfig struct {
	NewBenchConfig
	// Fault is the injection plan; it is written into Machine.Fault
	// before construction (any plan already present there is replaced).
	Fault fault.Config
	// Timeout, when positive and the lock implements simlock.TimedLock,
	// switches every acquire to AcquireTimeout with this budget in a
	// retry-until-acquired loop, counting expiries. Locks without a
	// timed path run their blocking acquire.
	Timeout sim.Time
}

// DegradedResult extends the benchmark result with degradation
// accounting.
type DegradedResult struct {
	NewBenchResult
	// Acquisitions counts successful critical-section entries.
	Acquisitions int
	// Aborts counts timed-acquire expiries; every abort was retried, so
	// Acquisitions matches the fault-free benchmark.
	Aborts int
	// Faults reports how many fault windows and NACKs the machine
	// actually served during the run.
	Faults fault.Stats
}

// AbortRate returns aborts per attempt (acquisitions + aborts).
func (r DegradedResult) AbortRate() float64 {
	attempts := r.Acquisitions + r.Aborts
	if attempts == 0 {
		return 0
	}
	return float64(r.Aborts) / float64(attempts)
}

// DegradedBench runs the new microbenchmark on a degraded machine. It is
// NewBench's own loop (runBench), so a zero fault plan with Timeout 0
// reproduces NewBench exactly, and any divergence under faults is
// attributable to the injection.
func DegradedBench(cfg DegradedConfig) DegradedResult {
	cfg.Machine.Fault = cfg.Fault
	return runBench(cfg.NewBenchConfig, cfg.Timeout)
}
