package microbench

import (
	"repro/internal/machine"
	"repro/internal/sim"
	"repro/internal/simlock"
)

// NewBenchConfig parameterizes the paper's new microbenchmark
// (Figure 4): each thread loops { acquire; modify critical_work elements
// of a shared vector; release; static + random private work }.
type NewBenchConfig struct {
	Machine    machine.Config
	Lock       string
	Threads    int
	Iterations int // per thread
	// CriticalWork is the number of shared-vector elements modified in
	// the critical section (the paper's contention knob, 0..~2500).
	CriticalWork int
	// PrivateWork is the static non-critical delay in vector elements;
	// a uniformly random extra delay in [0, PrivateWork) is added, per
	// the paper ("one static delay and one random delay of similar
	// sizes").
	PrivateWork int
	Tuning      simlock.Tuning
	// WrapLock, when non-nil, decorates the lock before the run —
	// the hook observability layers (trace.Wrap) attach through.
	WrapLock func(simlock.Lock) simlock.Lock
}

// NewBenchResult reports one run.
type NewBenchResult struct {
	Lock          string
	Threads       int
	CriticalWork  int
	TotalTime     sim.Time
	IterationTime sim.Time
	HandoffRatio  float64
	Traffic       machine.Stats
	// Lines attributes the traffic per cache line; lock-internal lines
	// are labeled "lock" and the shared vector "cs_data", so reports
	// can split lock-line vs data-line traffic like Tables 2/6.
	Lines []machine.LineStats
	// FinishTimes holds each thread's completion time (fairness study).
	FinishTimes []sim.Time
}

// Cache-geometry and work-cost constants for translating the paper's
// "vector elements" into simulated memory traffic. The benchmark arrays
// are int vectors: intsPerLine elements share one 64-byte line, and each
// element update costs elementWork of pure ALU time on a 250 MHz CPU.
const (
	intsPerLine = 16
	elementWork = sim.Time(8) // ~2 cycles load-add-store per element
)

// NewBench runs the paper's new microbenchmark.
func NewBench(cfg NewBenchConfig) NewBenchResult {
	return runBench(cfg, 0).NewBenchResult
}

// runBench is the one benchmark loop behind NewBench and DegradedBench.
// A positive timeout on a lock that implements simlock.TimedLock makes
// every acquire an AcquireTimeout retried until it succeeds; otherwise
// the acquire blocks.
func runBench(cfg NewBenchConfig, timeout sim.Time) DegradedResult {
	m := machine.New(cfg.Machine)
	defer m.Release()
	cpus := Placement(cfg.Machine, cfg.Threads)
	w0 := m.AllocatedWords()
	var l simlock.Lock = buildLock(cfg.Lock, m, cpus, cfg.Tuning)
	if lockWords := m.AllocatedWords() - w0; lockWords > 0 {
		m.LabelRange(machine.Addr(w0), lockWords, "lock")
	}
	if cfg.WrapLock != nil {
		l = cfg.WrapLock(l)
	}
	var timed simlock.TimedLock
	if timeout > 0 {
		timed, _ = l.(simlock.TimedLock)
	}

	// Shared critical-section vector: one simulated line per
	// intsPerLine elements (at least one line so even CriticalWork=0
	// touches the lock's data neighborhood realistically: with zero
	// critical work the paper's loop body is empty, so honour that).
	csLines := cfg.CriticalWork / intsPerLine
	var csVec machine.Addr
	if csLines > 0 {
		csVec = m.Alloc(0, csLines)
		m.LabelRange(csVec, csLines, "cs_data")
	}

	hc := newHandoffCounter()
	finish := make([]sim.Time, cfg.Threads)
	totalAcquires := 0
	aborts := 0

	for tid := 0; tid < cfg.Threads; tid++ {
		tid := tid
		m.Spawn(cpus[tid], func(p *machine.Proc) {
			rng := sim.NewRNG(cfg.Machine.Seed*1000003 + uint64(tid) + 1)
			// Stagger thread start-up the way real fork skew does;
			// without it every thread's first acquire lands at t=0 and
			// the HBO_GT gate (is_spinning) never gets a chance to form.
			if cfg.PrivateWork > 0 {
				p.Work(elementWork * sim.Time(rng.Intn(2*cfg.PrivateWork)))
			}
			for i := 0; i < cfg.Iterations; i++ {
				if timed != nil {
					for !timed.AcquireTimeout(p, tid, timeout) {
						aborts++
						p.Delay(100)
					}
				} else {
					l.Acquire(p, tid)
				}
				hc.record(p.Node())
				totalAcquires++
				// for (j = 0; j < critical_work; j++) cs_work[j]++;
				for line := 0; line < csLines; line++ {
					a := csVec + machine.Addr(line)
					p.Store(a, p.Load(a)+1)
					p.Work(elementWork * intsPerLine)
				}
				if rem := cfg.CriticalWork % intsPerLine; rem > 0 {
					p.Work(elementWork * sim.Time(rem))
				}
				l.Release(p, tid)
				// Private work: static + random, on thread-private data
				// (cached after the first pass, so pure compute time).
				p.Work(elementWork * sim.Time(cfg.PrivateWork))
				if cfg.PrivateWork > 0 {
					p.Work(elementWork * sim.Time(rng.Intn(cfg.PrivateWork)))
				}
			}
			finish[tid] = p.Now()
		})
	}
	m.Run()

	res := DegradedResult{
		NewBenchResult: NewBenchResult{
			Lock:         cfg.Lock,
			Threads:      cfg.Threads,
			CriticalWork: cfg.CriticalWork,
			TotalTime:    m.Now(),
			Traffic:      m.Stats(),
			Lines:        m.LineStats(),
			FinishTimes:  finish,
		},
		Acquisitions: totalAcquires,
		Aborts:       aborts,
		Faults:       m.FaultStats(),
	}
	if totalAcquires > 0 {
		res.IterationTime = m.Now() / sim.Time(totalAcquires)
	}
	res.HandoffRatio = hc.Ratio()
	return res
}

// FinishSpreadPercent returns the fairness metric of Figure 8: the
// percentage difference in completion time between the first and the
// last thread to finish.
func (r NewBenchResult) FinishSpreadPercent() float64 {
	if len(r.FinishTimes) == 0 {
		return 0
	}
	min, max := r.FinishTimes[0], r.FinishTimes[0]
	for _, t := range r.FinishTimes {
		if t < min {
			min = t
		}
		if t > max {
			max = t
		}
	}
	if min == 0 {
		return 0
	}
	return 100 * float64(max-min) / float64(min)
}
