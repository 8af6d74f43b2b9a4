// Package apps models the lock behaviour of the seven SPLASH-2 programs
// the paper studies (Table 3: Barnes, Cholesky, FMM, Radiosity, Raytrace,
// Volrend, Water-Nsq) as workloads for the simulated NUCA machine.
//
// The paper's application results are driven by each program's lock
// topology — how many locks exist, how often they are taken, how hot the
// hottest ones are, and how much computation separates lock calls — not
// by the programs' numerics. Each model reproduces the documented
// topology: the lock population and call counts come straight from
// Table 3, the hot-lock structure from the paper's description (e.g.
// Raytrace's central task queue plus global statistics counters), and
// the serial execution time is calibrated so the simulated single-CPU
// Raytrace run lands at the paper's 5.0 s.
package apps

import (
	"fmt"
	"sort"

	"repro/internal/machine"
	"repro/internal/sim"
	"repro/internal/simlock"
	"repro/internal/simsync"
)

// HotSpot gives one lock index a fixed share of all lock calls; calls
// not claimed by any hotspot spread uniformly over the whole population.
type HotSpot struct {
	Lock int
	P    float64
}

// Spec describes one application model.
type Spec struct {
	Name    string
	Problem string
	// TotalLocks and LockCalls reproduce Table 3 (32-thread counts).
	TotalLocks int
	LockCalls  int
	// SerialSeconds is the single-CPU execution time the model is
	// calibrated to.
	SerialSeconds float64
	// CSLines is the number of shared cache lines a critical section
	// touches (the data guarded by the lock), CSWork the ALU time spent
	// inside it.
	CSLines int
	CSWork  sim.Time
	// Hot lists the contended locks. An empty list means uniformly
	// distributed lock calls (fine-grained locking).
	Hot []HotSpot
	// Imbalance is the relative spread of per-call work (0.5 = ±50%).
	Imbalance float64
	// LockPhase is the fraction of the program's compute time that
	// accompanies lock calls. Real SPLASH-2 programs concentrate their
	// synchronization in phases (Barnes' tree build, Cholesky's task
	// dispatch); the remaining (1-LockPhase) of the work runs lock-free
	// in parallel. 0 is treated as 1 (all work interleaves with locks).
	LockPhase float64
	// Phases is the number of barrier-separated timesteps the program
	// runs (tree rebuild + force phases in Barnes, MD timesteps in
	// Water). Threads meet at a tree barrier between phases, so lock
	// unfairness surfaces as barrier wait — the paper's section 6
	// setting. 0 is treated as 1.
	Phases int
	// Studied marks the programs the paper examines further (the ▶ rows
	// of Table 3; >10,000 lock calls).
	Studied bool
}

// NonStudied returns the SPLASH-2 programs the paper lists in Table 3
// but does not examine further (fewer than 10,000 lock calls): their
// lock populations are tiny, so lock choice cannot matter. They appear
// here so the regenerated Table 3 is complete.
func NonStudied() []Spec {
	return []Spec{
		{Name: "FFT", Problem: "1M points", TotalLocks: 1, LockCalls: 32, SerialSeconds: 20},
		{Name: "LU-c", Problem: "1024x1024 matrices, 16x16 blocks", TotalLocks: 1, LockCalls: 32, SerialSeconds: 30},
		{Name: "LU-nc", Problem: "1024x1024 matrices, 16x16 blocks", TotalLocks: 1, LockCalls: 32, SerialSeconds: 35},
		{Name: "Ocean-c", Problem: "514x514", TotalLocks: 6, LockCalls: 6304, SerialSeconds: 25},
		{Name: "Ocean-nc", Problem: "258x258", TotalLocks: 6, LockCalls: 6656, SerialSeconds: 22},
		{Name: "Radix", Problem: "4M integers, radix 1024", TotalLocks: 1, LockCalls: 32, SerialSeconds: 15},
		{Name: "Water-Sp", Problem: "2197 molecules", TotalLocks: 222, LockCalls: 510, SerialSeconds: 40},
	}
}

// AllSpecs returns every Table 3 program, studied and not, in the
// paper's alphabetical-ish order.
func AllSpecs() []Spec {
	all := append([]Spec{}, Specs()...)
	all = append(all, NonStudied()...)
	sort.Slice(all, func(i, j int) bool { return all[i].Name < all[j].Name })
	return all
}

// Specs returns the seven studied applications in the paper's order.
// Serial times are calibrated so the 28-CPU simulated runs land in the
// neighbourhood of Table 5 (see EXPERIMENTS.md for measured vs. paper).
func Specs() []Spec {
	return []Spec{
		{
			Name: "Barnes", Problem: "29k particles",
			TotalLocks: 130, LockCalls: 69193,
			SerialSeconds: 30.0,
			CSLines:       1, CSWork: 400,
			// Tree-cell locks, hammered during the tree-build phase
			// (~2% of the compute); the root cells are hottest.
			Hot:       []HotSpot{{Lock: 0, P: 0.15}, {Lock: 1, P: 0.08}},
			Imbalance: 0.4,
			LockPhase: 0.02,
			Phases:    4,
			Studied:   true,
		},
		{
			Name: "Cholesky", Problem: "tk29.O",
			TotalLocks: 67, LockCalls: 74284,
			SerialSeconds: 44.0,
			CSLines:       2, CSWork: 500,
			// Supernode task-queue dispatch (~3% of the compute) takes
			// a fair share of the calls.
			Hot:       []HotSpot{{Lock: 0, P: 0.30}},
			Imbalance: 0.6,
			LockPhase: 0.03,
			Studied:   true,
		},
		{
			Name: "FMM", Problem: "32k particles",
			TotalLocks: 2052, LockCalls: 80528,
			SerialSeconds: 92.0,
			CSLines:       1, CSWork: 400,
			// Thousands of fine-grained locks plus a mildly hot
			// list-insertion point, all within the interaction phases.
			Hot:       []HotSpot{{Lock: 0, P: 0.12}},
			Imbalance: 0.3,
			LockPhase: 0.01,
			Phases:    2,
			Studied:   true,
		},
		{
			Name: "Radiosity", Problem: "room, -ae 5000.0 -en 0.050 -bf 0.10",
			TotalLocks: 3975, LockCalls: 295627,
			SerialSeconds: 26.0,
			CSLines:       1, CSWork: 300,
			// Distributed task queues with stealing: a handful of
			// queue locks absorb a noticeable share of calls.
			Hot: []HotSpot{
				{Lock: 0, P: 0.08}, {Lock: 1, P: 0.06},
				{Lock: 2, P: 0.05}, {Lock: 3, P: 0.04},
			},
			Imbalance: 0.5,
			LockPhase: 0.15,
			Phases:    3,
			Studied:   true,
		},
		{
			Name: "Raytrace", Problem: "car",
			TotalLocks: 35, LockCalls: 366450,
			SerialSeconds: 5.0,
			CSLines:       2, CSWork: 300,
			// The paper: "locks are used to protect task queues; locks
			// are also used for some global variables that track
			// statistics". One scorching task-queue lock plus a hot
			// counter make Raytrace the high-contention case.
			Hot:       []HotSpot{{Lock: 0, P: 0.45}, {Lock: 1, P: 0.35}},
			Imbalance: 0.8,
			Studied:   true,
		},
		{
			Name: "Volrend", Problem: "head",
			TotalLocks: 67, LockCalls: 38456,
			SerialSeconds: 28.0,
			CSLines:       1, CSWork: 350,
			// A hot task queue drained in a short dispatch phase.
			Hot:       []HotSpot{{Lock: 0, P: 0.40}},
			Imbalance: 0.5,
			LockPhase: 0.01,
			Phases:    2,
			Studied:   true,
		},
		{
			Name: "Water-Nsq", Problem: "2197 molecules",
			TotalLocks: 2206, LockCalls: 112415,
			SerialSeconds: 48.0,
			CSLines:       1, CSWork: 350,
			// Per-molecule locks plus a global accumulator, touched in
			// the force-update phase.
			Hot:       []HotSpot{{Lock: 0, P: 0.10}},
			Imbalance: 0.3,
			LockPhase: 0.02,
			Phases:    4,
			Studied:   true,
		},
	}
}

// SpecByName returns the named spec.
func SpecByName(name string) Spec {
	for _, s := range Specs() {
		if s.Name == name {
			return s
		}
	}
	panic(fmt.Sprintf("apps: unknown application %q", name))
}

// Config parameterizes one application run.
type Config struct {
	Machine machine.Config
	Lock    string
	Threads int
	Tuning  simlock.Tuning
	// Scale divides lock calls and work by this factor to keep host
	// time manageable; reported times are scaled back up. 1 = paper
	// scale.
	Scale int
	// TimeLimitSeconds aborts runs exceeding this much (unscaled)
	// simulated time, reproducing the paper's "> 200 s" entries.
	// 0 disables the limit.
	TimeLimitSeconds float64
}

// Result reports one application run.
type Result struct {
	App     string
	Lock    string
	Threads int
	// Seconds is the (scaled-back) execution time; Aborted marks runs
	// that hit the time limit, whose Seconds is the limit itself.
	Seconds   float64
	Aborted   bool
	LockCalls int
	Traffic   machine.Stats
}

// Run executes the application model. Threads are placed round-robin
// across nodes; locks are homed round-robin across nodes.
func Run(spec Spec, cfg Config) Result {
	if cfg.Scale < 1 {
		cfg.Scale = 1
	}
	if cfg.Threads < 1 {
		panic("apps: need at least one thread")
	}
	mcfg := cfg.Machine
	if cfg.TimeLimitSeconds > 0 {
		mcfg.TimeLimit = sim.Time(cfg.TimeLimitSeconds / float64(cfg.Scale) * float64(sim.Second))
	}
	m := machine.New(mcfg)
	defer m.Release() // the lock population's arena goes to the next cell
	cpus := placement(mcfg, cfg.Threads)

	if spec.CSLines < 1 {
		spec.CSLines = 1 // every critical section guards something
	}

	// Build the lock population, homed round-robin across nodes; each
	// lock guards CSLines of shared data in the same node.
	locks := make([]simlock.Lock, spec.TotalLocks)
	data := make([]machine.Addr, spec.TotalLocks)
	for i := range locks {
		home := i % mcfg.Nodes
		locks[i] = simlock.New(cfg.Lock, m, home, cpus, cfg.Tuning)
		data[i] = m.Alloc(home, spec.CSLines)
	}

	totalCalls := spec.LockCalls / cfg.Scale
	if totalCalls < cfg.Threads {
		totalCalls = cfg.Threads
	}
	callsPer := totalCalls / cfg.Threads
	serial := sim.Time(spec.SerialSeconds / float64(cfg.Scale) * float64(sim.Second))
	lockPhase := spec.LockPhase
	if lockPhase <= 0 || lockPhase > 1 {
		lockPhase = 1
	}
	phases := spec.Phases
	if phases < 1 {
		phases = 1
	}
	if callsPer/phases < 1 {
		phases = 1
	}
	workPerCall := sim.Time(float64(serial) * lockPhase / float64(totalCalls))
	bulkPerThread := sim.Time(float64(serial) * (1 - lockPhase) / float64(cfg.Threads))

	// Threads meet at a tree barrier between timesteps, the structure
	// SPLASH-2 programs share; a barrier for one thread is a no-op.
	var barrier *simsync.TreeBarrier
	if cfg.Threads > 1 && phases > 1 {
		barrier = simsync.NewTreeBarrier(m, cpus)
	}

	actualCalls := 0
	for tid := 0; tid < cfg.Threads; tid++ {
		tid := tid
		m.Spawn(cpus[tid], func(p *machine.Proc) {
			rng := sim.NewRNG(mcfg.Seed*7919 + uint64(tid) + 13)
			// Thread-creation skew, so first lock calls don't all land
			// at t=0 (see microbench.NewBench).
			if workPerCall > 0 {
				p.Work(rng.Timen(2*workPerCall + 1))
			}
			for ph := 0; ph < phases; ph++ {
				calls := callsPer / phases
				if ph == phases-1 {
					calls += callsPer % phases
				}
				for c := 0; c < calls; c++ {
					li := pickLock(spec, rng)
					l := locks[li]
					l.Acquire(p, tid)
					actualCalls++
					for w := 0; w < spec.CSLines; w++ {
						a := data[li] + machine.Addr(w)
						p.Store(a, p.Load(a)+1)
					}
					p.Work(spec.CSWork)
					l.Release(p, tid)
					p.Work(jitter(rng, workPerCall, spec.Imbalance))
				}
				// Lock-free compute outside the synchronization phase.
				p.Work(jitter(rng, bulkPerThread/sim.Time(phases), spec.Imbalance/4))
				if barrier != nil {
					barrier.Wait(p, tid)
				}
			}
		})
	}
	m.Run()

	res := Result{
		App:       spec.Name,
		Lock:      cfg.Lock,
		Threads:   cfg.Threads,
		LockCalls: actualCalls,
		Traffic:   m.Stats(),
		Aborted:   m.Aborted(),
	}
	if res.Aborted {
		res.Seconds = cfg.TimeLimitSeconds
	} else {
		res.Seconds = m.Now().Seconds() * float64(cfg.Scale)
	}
	return res
}

// pickLock selects a lock index per the spec's hotspot distribution.
func pickLock(spec Spec, rng *sim.RNG) int {
	u := rng.Float64()
	for _, h := range spec.Hot {
		if u < h.P {
			return h.Lock
		}
		u -= h.P
	}
	return rng.Intn(spec.TotalLocks)
}

// jitter returns base scaled by a uniform factor in [1-imbalance, 1+imbalance].
func jitter(rng *sim.RNG, base sim.Time, imbalance float64) sim.Time {
	if base <= 0 {
		return 0
	}
	f := 1 + imbalance*(2*rng.Float64()-1)
	if f < 0 {
		f = 0
	}
	return sim.Time(float64(base) * f)
}

// placement mirrors microbench.Placement without importing it (keeps the
// packages independent): round-robin threads across nodes.
func placement(cfg machine.Config, threads int) []int {
	cpus := make([]int, threads)
	next := make([]int, cfg.Nodes)
	for t := 0; t < threads; t++ {
		n := t % cfg.Nodes
		if next[n] >= cfg.CPUsPerNode {
			for i := 0; i < cfg.Nodes; i++ {
				if next[i] < cfg.CPUsPerNode {
					n = i
					break
				}
			}
		}
		cpus[t] = n*cfg.CPUsPerNode + next[n]
		next[n]++
	}
	return cpus
}

// Preemption returns the OS-interference settings used for the fully
// subscribed 30-CPU runs of Table 4: Solaris daemons periodically steal
// a worker's CPU, and the displaced thread waits out a long requeue
// delay. A preempted backoff-lock spinner only hurts itself (or, rarely,
// holds the lock), but a preempted queue-lock waiter stalls every
// successor. The ratio MeanDuration/(2·MeanInterval) > 1 makes stall
// time arrive faster than a FIFO queue can drain it (divergence — the
// paper's "> 200 s" rows), while the per-CPU stolen fraction
// MeanDuration/(30·MeanInterval) stays near 13%, so locks that route
// around preempted threads lose only that fraction. Both durations
// scale with the workload's Scale factor so the stall-per-call dynamics
// are preserved on scaled runs.
func Preemption(scale int) machine.PreemptConfig {
	if scale < 1 {
		scale = 1
	}
	return machine.PreemptConfig{
		Enabled:      true,
		MeanInterval: 200 * sim.Millisecond / sim.Time(scale),
		MeanDuration: 2000 * sim.Millisecond / sim.Time(scale),
	}
}

// SpecByNameAll looks up any Table 3 program, studied or not.
func SpecByNameAll(name string) Spec {
	for _, s := range AllSpecs() {
		if s.Name == name {
			return s
		}
	}
	panic(fmt.Sprintf("apps: unknown application %q", name))
}
