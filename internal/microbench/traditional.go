package microbench

import (
	"repro/internal/machine"
	"repro/internal/sim"
	"repro/internal/simlock"
)

// TraditionalResult reports one traditional-microbenchmark run.
type TraditionalResult struct {
	Lock          string
	Threads       int
	Iterations    int      // per thread
	TotalTime     sim.Time // wall time of the parallel phase
	IterationTime sim.Time // TotalTime / total acquisitions
	HandoffRatio  float64  // node handoffs per acquisition
	Traffic       machine.Stats
}

// TraditionalConfig parameterizes the run.
type TraditionalConfig struct {
	Machine    machine.Config
	Lock       string
	Threads    int
	Iterations int // per thread
	Tuning     simlock.Tuning
}

// doneSentinel is written to last_owner by exiting threads so parked
// observers re-evaluate (the paper excludes the last remaining thread
// from the observe-a-new-owner rule so it can run to completion).
const doneSentinel = ^uint64(0)

// Traditional runs the paper's traditional microbenchmark (section 5.2):
// a tight acquire-release loop whose critical section updates a global
// last_owner variable plus a statistics word, where a thread must
// observe a new owner before contending again.
func Traditional(cfg TraditionalConfig) TraditionalResult {
	m := machine.New(cfg.Machine)
	defer m.Release()
	cpus := Placement(cfg.Machine, cfg.Threads)
	l := buildLock(cfg.Lock, m, cpus, cfg.Tuning)

	lastOwner := m.Alloc(0, 1)
	statsWord := m.Alloc(0, 1)
	m.Poke(lastOwner, doneSentinel)

	hc := newHandoffCounter()
	remaining := cfg.Threads
	totalAcquires := 0

	for tid := 0; tid < cfg.Threads; tid++ {
		tid := tid
		me := uint64(tid)
		rng := sim.NewRNG(cfg.Machine.Seed*999983 + uint64(tid) + 1)
		m.Spawn(cpus[tid], func(p *machine.Proc) {
			// Thread-creation skew (see NewBench).
			p.Work(rng.Timen(5 * sim.Microsecond))
			for i := 0; i < cfg.Iterations; i++ {
				if remaining > 1 {
					// Wait to observe an owner other than ourselves.
					p.SpinWhileEquals(lastOwner, me)
				}
				l.Acquire(p, tid)
				hc.record(p.Node())
				totalAcquires++
				// Critical-section work: publish ownership, bump stats.
				p.Store(lastOwner, me)
				p.Store(statsWord, p.Load(statsWord)+1)
				l.Release(p, tid)
			}
			remaining--
			// Wake any observer parked on our id.
			p.Store(lastOwner, doneSentinel)
		})
	}
	m.Run()

	res := TraditionalResult{
		Lock:       cfg.Lock,
		Threads:    cfg.Threads,
		Iterations: cfg.Iterations,
		TotalTime:  m.Now(),
		Traffic:    m.Stats(),
	}
	if totalAcquires > 0 {
		res.IterationTime = m.Now() / sim.Time(totalAcquires)
	}
	res.HandoffRatio = hc.Ratio()
	return res
}
