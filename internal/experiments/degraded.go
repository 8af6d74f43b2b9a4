package experiments

import (
	"fmt"

	"repro/internal/fault"
	"repro/internal/machine"
	"repro/internal/microbench"
	"repro/internal/report"
	"repro/internal/sim"
	"repro/internal/simlock"
	"repro/internal/stats"
	"repro/internal/trace"
)

// Graceful-degradation study (beyond the paper): the new microbenchmark
// re-run on machines degraded by internal/fault's four fault classes,
// through the locks' timed acquire path where one exists. The paper's
// claim is that HBO's locality pays off on a *healthy* NUCA machine;
// these drivers measure what each algorithm gives back when the machine
// misbehaves — latency spikes, interconnect storms, preempted holders
// and NACKed transactions — as throughput, fairness and abort-rate
// degradation curves.

// degTimeout is the per-attempt acquire budget used by the degraded
// drivers for locks with a timed path. At the Table 2 operating point a
// 28-way contended wait runs to a few milliseconds, so the budget is a
// handful of multiples of that: fault-free runs abort well under 1% of
// attempts, while spike/storm/pause windows push an order of magnitude
// more waits over budget.
const degTimeout = 16 * sim.Millisecond

// degIntensities returns the fault-intensity sweep (0 rows are the
// fault-free baseline, run separately).
func degIntensities(o Options) []float64 {
	if o.Quick {
		return []float64{0.5, 1.0}
	}
	return []float64{0.25, 0.5, 0.75, 1.0}
}

// degFault returns the named schedule's plan; intensity 0 means
// fault-free.
func degFault(schedule string, seed uint64, intensity float64) fault.Config {
	if intensity == 0 {
		return fault.Config{}
	}
	fc, err := fault.Preset(schedule, seed, intensity)
	if err != nil {
		panic(err) // schedules come from fault.Schedules()
	}
	return fc
}

// runDegraded executes one degraded cell: the Table 2 critical section on
// machine cfg under plan fc, through the timed acquire path. wrap may be
// nil.
func runDegraded(cfg machine.Config, name string, fc fault.Config, threads, iters, private int,
	wrap func(simlock.Lock) simlock.Lock) microbench.DegradedResult {
	return microbench.DegradedBench(microbench.DegradedConfig{
		NewBenchConfig: microbench.NewBenchConfig{
			Machine:      cfg,
			Lock:         name,
			Threads:      threads,
			Iterations:   iters,
			CriticalWork: 1500,
			PrivateWork:  private,
			Tuning:       simlock.DefaultTuning(),
			WrapLock:     wrap,
		},
		Fault:   fc,
		Timeout: degTimeout,
	})
}

// Deg1 sweeps fault intensity for the composite "all" schedule and
// reports per-lock degradation curves: iteration time normalized to the
// lock's own fault-free baseline, the abort rate of the timed acquire
// path, and the fairness spread.
func Deg1(o Options) []*stats.Table {
	threads, iters, private := newBenchDefaults(o)
	const schedule = "all"
	intens := degIntensities(o)
	names := lockNames()
	timed := map[string]bool{}
	for _, n := range simlock.TimedNames() {
		timed[n] = true
	}

	rows := len(intens) + 1 // leading fault-free baseline row
	cells := make([]microbench.DegradedResult, rows*len(names))
	o.parfor(len(cells), func(i int) {
		ri, ni := i/len(names), i%len(names)
		intensity := 0.0
		if ri > 0 {
			intensity = intens[ri-1]
		}
		cells[i] = runDegraded(wildfire(17), names[ni], degFault(schedule, 17*2654435761+1, intensity),
			threads, iters, private, nil)
	})

	cols := append([]string{"Intensity"}, names...)
	tTime := stats.NewTable(
		fmt.Sprintf("Degradation 1a: iteration time vs fault intensity, normalized to fault-free "+
			"(schedule %q, %d processors)", schedule, threads), cols...)
	tAbort := stats.NewTable(
		fmt.Sprintf("Degradation 1b: timed-acquire abort rate (budget %v; '-' = no timed path)",
			degTimeout), cols...)
	tFair := stats.NewTable(
		"Degradation 1c: completion-time spread, %", cols...)
	for ri := 0; ri < rows; ri++ {
		label := "0 (clean)"
		if ri > 0 {
			label = stats.F(intens[ri-1], 2)
		}
		timeRow := []string{label}
		abortRow := []string{label}
		fairRow := []string{label}
		for ni := range names {
			c := cells[ri*len(names)+ni]
			base := cells[ni] // row 0 = fault-free
			norm := 0.0
			if base.IterationTime > 0 {
				norm = float64(c.IterationTime) / float64(base.IterationTime)
			}
			timeRow = append(timeRow, stats.F(norm, 2))
			if timed[names[ni]] {
				abortRow = append(abortRow, stats.F(c.AbortRate(), 3))
			} else {
				abortRow = append(abortRow, "-")
			}
			fairRow = append(fairRow, stats.F(c.FinishSpreadPercent(), 1))
		}
		tTime.AddRow(timeRow...)
		tAbort.AddRow(abortRow...)
		tFair.AddRow(fairRow...)
	}
	return []*stats.Table{tTime, tAbort, tFair}
}

// deg2Nodes returns the node-count sweep of the second degradation
// study.
func deg2Nodes(o Options) []int {
	if o.Quick {
		return []int{2, 4}
	}
	return []int{2, 4, 8}
}

// deg2Names drops the RH lock, which only supports two-node machines.
func deg2Names() []string {
	var out []string
	for _, n := range lockNames() {
		if n != "RH" {
			out = append(out, n)
		}
	}
	return out
}

// Deg2 fixes the fault plan ("all" at intensity 0.75) and sweeps the
// machine's node count, reporting the slowdown each lock suffers
// relative to its own clean run on the same shape — does NUCA-aware
// locality still pay when the machine is sick and bigger?
func Deg2(o Options) []*stats.Table {
	const (
		schedule  = "all"
		intensity = 0.75
		cpusPer   = 8
	)
	iters := 20
	if o.Quick {
		iters = 8
	}
	nodes := deg2Nodes(o)
	names := deg2Names()
	type cell struct{ clean, degraded microbench.DegradedResult }
	cells := make([]cell, len(nodes)*len(names))
	o.parfor(len(cells), func(i int) {
		ni, li := i/len(names), i%len(names)
		cfg := wildfire(uint64(23 + ni))
		cfg.Nodes = nodes[ni]
		cfg.CPUsPerNode = cpusPer
		threads := 4 * nodes[ni] // constant per-node contention
		run := func(intens float64) microbench.DegradedResult {
			return runDegraded(cfg, names[li], degFault(schedule, 4099, intens), threads, iters, 4000, nil)
		}
		cells[i] = cell{clean: run(0), degraded: run(intensity)}
	})

	cols := append([]string{"Nodes"}, names...)
	t := stats.NewTable(
		fmt.Sprintf("Degradation 2: slowdown under schedule %q at intensity %.2f vs node count "+
			"(%d CPUs/node, 4 threads/node)", schedule, intensity, cpusPer), cols...)
	for ni, n := range nodes {
		row := []string{fmt.Sprint(n)}
		for li := range names {
			c := cells[ni*len(names)+li]
			slow := 0.0
			if c.clean.IterationTime > 0 {
				slow = float64(c.degraded.IterationTime) / float64(c.clean.IterationTime)
			}
			row = append(row, stats.F(slow, 2))
		}
		t.AddRow(row...)
	}
	return []*stats.Table{t}
}

// DegradedReport runs the degraded-mode benchmark (the Table 2
// operating point under the named fault schedule) once per paper lock
// with the observability stack attached, and emits a report whose
// fault section carries the exact replay coordinates. Byte-identical
// for a fixed (seed, schedule, intensity).
func DegradedReport(o Options, seed uint64, schedule string, intensity float64) (*Report, error) {
	fc, err := fault.Preset(schedule, seed, intensity)
	if err != nil {
		return nil, err
	}
	threads, iters, private := newBenchDefaults(o)
	cfg := wildfire(seed)
	rep := &Report{
		Schema:     ReportSchema,
		Tool:       "hbobench",
		Experiment: "degraded",
		Seed:       seed,
		Host:       report.Host(),
		Machine: MachineSummary{
			Nodes:       cfg.Nodes,
			CPUsPerNode: cfg.CPUsPerNode,
			Preset:      "WildFire",
		},
		Params: map[string]int{
			"threads":       threads,
			"iterations":    iters,
			"critical_work": 1500,
			"private_work":  private,
			"timeout_ns":    int(degTimeout),
		},
		Fault: &FaultReport{Schedule: schedule, Seed: seed, Intensity: intensity},
	}
	names := lockNames()
	rep.Locks = make([]LockReport, len(names))
	o.parfor(len(names), func(i int) {
		an := trace.NewAnalyzer()
		res := runDegraded(cfg, names[i], fc, threads, iters, private,
			func(l simlock.Lock) simlock.Lock { return trace.Wrap(l, an) })
		st := an.Aggregate()
		lr := BuildLockReport(names[i], st, threads, res.Traffic, res.Lines)
		lr.Aborts = res.Aborts
		lr.AbortRate = res.AbortRate()
		lr.IterationTimeNS = int64(res.IterationTime)
		lr.TotalTimeNS = int64(res.TotalTime)
		fs := res.Faults
		lr.FaultStats = &fs
		rep.Locks[i] = lr
	})
	return rep, nil
}
