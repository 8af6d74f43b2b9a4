package simlock

import (
	"testing"

	"repro/internal/machine"
	"repro/internal/sim"
)

// testMachine returns a 2-node, 4-CPUs-per-node machine.
func testMachine(seed uint64) *machine.Machine {
	cfg := machine.WildFire()
	cfg.CPUsPerNode = 4
	cfg.Seed = seed
	return machine.New(cfg)
}

// roundRobinCPUs binds threads alternately to the two nodes, as the
// paper's microbenchmarks do.
func roundRobinCPUs(m *machine.Machine, threads int) []int {
	cfg := m.Config()
	cpus := make([]int, threads)
	perNode := make([]int, cfg.Nodes)
	for t := 0; t < threads; t++ {
		n := t % cfg.Nodes
		cpus[t] = n*cfg.CPUsPerNode + perNode[n]
		perNode[n]++
	}
	return cpus
}

// TestNamesCoverAllFactories: every listed name builds the lock it names.
func TestNamesCoverAllFactories(t *testing.T) {
	m := testMachine(1)
	for _, n := range AllNames() {
		if l := New(n, m, 0, roundRobinCPUs(m, 2), DefaultTuning()); l.Name() != n {
			t.Errorf("New(%q) built %q", n, l.Name())
		}
	}
}

func TestNUCAAware(t *testing.T) {
	for name, want := range map[string]bool{
		"TATAS": false, "TATAS_EXP": false, "MCS": false, "CLH": false,
		"RH": true, "HBO": true, "HBO_GT": true, "HBO_GT_SD": true,
	} {
		if got := NUCAAware(name); got != want {
			t.Errorf("NUCAAware(%q) = %v, want %v", name, got, want)
		}
	}
}

func TestUnknownLockPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("want panic for unknown lock name")
		}
	}()
	m := testMachine(1)
	New("BOGUS", m, 0, []int{0}, DefaultTuning())
}

// TestMutualExclusion drives every algorithm with 8 threads hammering a
// counter; any overlap in the critical section or a lost increment fails.
func TestMutualExclusion(t *testing.T) {
	const threads, iters = 8, 150
	for _, name := range Names() {
		name := name
		t.Run(name, func(t *testing.T) {
			m := testMachine(7)
			cpus := roundRobinCPUs(m, threads)
			l := New(name, m, 0, cpus, DefaultTuning())
			counter := 0
			inCS := 0
			for tid := 0; tid < threads; tid++ {
				tid := tid
				m.Spawn(cpus[tid], func(p *machine.Proc) {
					for i := 0; i < iters; i++ {
						l.Acquire(p, tid)
						inCS++
						if inCS != 1 {
							t.Errorf("%s: %d threads in critical section", name, inCS)
						}
						counter++
						p.Work(100)
						inCS--
						l.Release(p, tid)
						p.Work(sim.Time(50 * (tid + 1)))
					}
				})
			}
			m.Run()
			if counter != threads*iters {
				t.Fatalf("%s: counter = %d, want %d", name, counter, threads*iters)
			}
		})
	}
}

// TestUncontestedReacquire checks the fast path: a single thread can
// acquire and release repeatedly, cheaply, with every algorithm.
func TestUncontestedReacquire(t *testing.T) {
	for _, name := range Names() {
		name := name
		t.Run(name, func(t *testing.T) {
			m := testMachine(1)
			cpus := []int{0}
			l := New(name, m, 0, cpus, DefaultTuning())
			var elapsed sim.Time
			m.Spawn(0, func(p *machine.Proc) {
				l.Acquire(p, 0) // first acquire: cold misses
				l.Release(p, 0)
				t0 := p.Now()
				for i := 0; i < 10; i++ {
					l.Acquire(p, 0)
					l.Release(p, 0)
				}
				elapsed = (p.Now() - t0) / 10
			})
			m.Run()
			// Warm re-acquisition must not involve remote traffic:
			// everything under ~1µs per pair.
			if elapsed > 1000 {
				t.Fatalf("%s: warm acquire-release pair costs %v", name, elapsed)
			}
		})
	}
}

// TestSingleNodeMachine ensures every algorithm also runs on a plain SMP
// (1 node), where NUCA awareness degenerates gracefully.
func TestSingleNodeMachine(t *testing.T) {
	for _, name := range Names() {
		name := name
		t.Run(name, func(t *testing.T) {
			cfg := machine.E6000()
			cfg.CPUsPerNode = 4
			cfg.Seed = 3
			m := machine.New(cfg)
			cpus := []int{0, 1, 2, 3}
			l := New(name, m, 0, cpus, DefaultTuning())
			counter := 0
			for tid := 0; tid < 4; tid++ {
				tid := tid
				m.Spawn(cpus[tid], func(p *machine.Proc) {
					for i := 0; i < 50; i++ {
						l.Acquire(p, tid)
						counter++
						l.Release(p, tid)
						p.Work(100)
					}
				})
			}
			m.Run()
			if counter != 200 {
				t.Fatalf("%s: counter = %d, want 200", name, counter)
			}
		})
	}
}

// TestHBONodeAffinity: with heavy contention from both nodes, HBO should
// hand the lock within a node far more often than across nodes.
func TestHBONodeAffinity(t *testing.T) {
	for _, name := range []string{"HBO", "HBO_GT", "HBO_GT_SD"} {
		name := name
		t.Run(name, func(t *testing.T) {
			handoffs, nodeSwitches := runHandoffCount(t, name, 8, 120)
			ratio := float64(nodeSwitches) / float64(handoffs)
			if ratio > 0.25 {
				t.Errorf("%s: node handoff ratio %.2f, want < 0.25", name, ratio)
			}
		})
	}
}

// TestQueueLocksHandoffFairly: MCS/CLH serve FIFO, so with round-robin
// thread placement and de-correlated arrival times roughly half the
// handovers cross nodes. (With lock-step arrivals, same-node threads
// "queue up after each other" — the artifact the paper observes in its
// traditional microbenchmark — so this test randomizes the think time.)
func TestQueueLocksHandoffFairly(t *testing.T) {
	for _, name := range []string{"MCS", "CLH"} {
		name := name
		t.Run(name, func(t *testing.T) {
			m := testMachine(11)
			cpus := roundRobinCPUs(m, 8)
			l := New(name, m, 0, cpus, DefaultTuning())
			lastNode, handoffs, switches := -1, 0, 0
			for tid := 0; tid < 8; tid++ {
				tid := tid
				m.Spawn(cpus[tid], func(p *machine.Proc) {
					rng := sim.NewRNG(uint64(tid) + 100)
					for i := 0; i < 150; i++ {
						l.Acquire(p, tid)
						if lastNode != -1 {
							handoffs++
							if lastNode != p.Node() {
								switches++
							}
						}
						lastNode = p.Node()
						p.Work(500)
						l.Release(p, tid)
						p.Work(2000 + rng.Timen(4000))
					}
				})
			}
			m.Run()
			ratio := float64(switches) / float64(handoffs)
			// FIFO order with round-robin placement should cross nodes
			// often; some same-node clumping survives randomization
			// (the paper sees the same artifact), so the bound is loose
			// but still an order of magnitude above the NUCA locks'.
			if ratio < 0.2 {
				t.Errorf("%s: node handoff ratio %.2f, want >= 0.2", name, ratio)
			}
		})
	}
}

// runHandoffCount runs a contended loop and counts lock handovers that
// crossed node boundaries.
func runHandoffCount(t *testing.T, name string, threads, iters int) (handoffs, nodeSwitches int) {
	t.Helper()
	m := testMachine(11)
	cpus := roundRobinCPUs(m, threads)
	l := New(name, m, 0, cpus, DefaultTuning())
	lastNode := -1
	for tid := 0; tid < threads; tid++ {
		tid := tid
		m.Spawn(cpus[tid], func(p *machine.Proc) {
			for i := 0; i < iters; i++ {
				l.Acquire(p, tid)
				if lastNode != -1 {
					handoffs++
					if lastNode != p.Node() {
						nodeSwitches++
					}
				}
				lastNode = p.Node()
				p.Work(500)
				l.Release(p, tid)
				p.Work(200)
			}
		})
	}
	m.Run()
	if handoffs == 0 {
		t.Fatal("no handoffs recorded")
	}
	return handoffs, nodeSwitches
}

// TestHBOGTThrottlesGlobalTraffic: under cross-node contention HBO_GT's
// throttling keeps only the node winner spinning remotely. The paper's
// own Table 2 measures HBO and HBO_GT at the same normalized global
// traffic (0.30), so the assertion here is that GT costs at most a small
// premium over HBO while both stay far below TATAS.
func TestHBOGTThrottlesGlobalTraffic(t *testing.T) {
	global := func(name string) uint64 {
		m := testMachine(13)
		cpus := roundRobinCPUs(m, 8)
		l := New(name, m, 0, cpus, DefaultTuning())
		for tid := 0; tid < 8; tid++ {
			tid := tid
			m.Spawn(cpus[tid], func(p *machine.Proc) {
				for i := 0; i < 100; i++ {
					l.Acquire(p, tid)
					p.Work(2000) // long CS: remote spinners burn CAS
					l.Release(p, tid)
				}
			})
		}
		m.Run()
		return m.Stats().Global
	}
	hbo, gt, tatas := global("HBO"), global("HBO_GT"), global("TATAS")
	if float64(gt) > 1.25*float64(hbo) {
		t.Fatalf("HBO_GT global traffic %d far above HBO %d", gt, hbo)
	}
	if gt >= tatas || hbo >= tatas {
		t.Fatalf("NUCA locks (HBO %d, HBO_GT %d) not below TATAS %d", hbo, gt, tatas)
	}
}

// TestHBOGTSDReleasesStoppedNodes: after a starvation-detection episode
// the stopped node's is_spinning word must be reset so its threads can
// proceed; the run completing at all is the main assertion.
func TestHBOGTSDReleasesStoppedNodes(t *testing.T) {
	m := testMachine(17)
	cpus := roundRobinCPUs(m, 8)
	tun := DefaultTuning()
	tun.GetAngryLimit = 2 // anger quickly
	l := New("HBO_GT_SD", m, 0, cpus, tun)
	counter := 0
	for tid := 0; tid < 8; tid++ {
		tid := tid
		m.Spawn(cpus[tid], func(p *machine.Proc) {
			for i := 0; i < 100; i++ {
				l.Acquire(p, tid)
				counter++
				p.Work(1500)
				l.Release(p, tid)
			}
		})
	}
	m.Run()
	if counter != 800 {
		t.Fatalf("counter = %d, want 800 (a stopped node stayed stopped?)", counter)
	}
}

// TestHBOGTSDBoundsNodeResidency: with starvation detection, a remote
// node must not be locked out arbitrarily long. Compare the longest
// consecutive same-node run under HBO vs HBO_GT_SD.
func TestHBOGTSDBoundsNodeResidency(t *testing.T) {
	longestRun := func(name string, tun Tuning) int {
		m := testMachine(23)
		cpus := roundRobinCPUs(m, 8)
		l := New(name, m, 0, cpus, tun)
		last, run, longest := -1, 0, 0
		for tid := 0; tid < 8; tid++ {
			tid := tid
			m.Spawn(cpus[tid], func(p *machine.Proc) {
				for i := 0; i < 150; i++ {
					l.Acquire(p, tid)
					if p.Node() == last {
						run++
					} else {
						run = 1
						last = p.Node()
					}
					if run > longest {
						longest = run
					}
					p.Work(300)
					l.Release(p, tid)
				}
			})
		}
		m.Run()
		return longest
	}
	tun := DefaultTuning()
	tun.GetAngryLimit = 4
	plain := longestRun("HBO", DefaultTuning())
	sd := longestRun("HBO_GT_SD", tun)
	if sd > plain*2 {
		t.Fatalf("HBO_GT_SD longest same-node run %d vs HBO %d: SD is not bounding residency", sd, plain)
	}
}

// TestRHLocalHandover: RH hands the lock to local waiters via L_FREE.
func TestRHLocalHandover(t *testing.T) {
	handoffs, switches := runHandoffCount(t, "RH", 8, 120)
	ratio := float64(switches) / float64(handoffs)
	if ratio > 0.3 {
		t.Errorf("RH node handoff ratio %.2f, want < 0.3", ratio)
	}
}

func TestRHRejectsThreeNodes(t *testing.T) {
	cfg := machine.WildFire()
	cfg.Nodes = 3
	cfg.CPUsPerNode = 2
	m := machine.New(cfg)
	defer func() {
		if recover() == nil {
			t.Fatal("want panic for 3-node RH")
		}
	}()
	New("RH", m, 0, []int{0}, DefaultTuning())
}

// TestHBOWorksOnFourNodes: the HBO family generalizes to >2 nodes
// (hierarchical NUCA); check mutual exclusion holds there too.
func TestHBOWorksOnFourNodes(t *testing.T) {
	for _, name := range []string{"HBO", "HBO_GT", "HBO_GT_SD"} {
		name := name
		t.Run(name, func(t *testing.T) {
			cfg := machine.WildFire()
			cfg.Nodes = 4
			cfg.CPUsPerNode = 2
			cfg.Seed = 5
			m := machine.New(cfg)
			cpus := make([]int, 8)
			for i := range cpus {
				cpus[i] = i
			}
			l := New(name, m, 0, cpus, DefaultTuning())
			counter := 0
			for tid := 0; tid < 8; tid++ {
				tid := tid
				m.Spawn(cpus[tid], func(p *machine.Proc) {
					for i := 0; i < 80; i++ {
						l.Acquire(p, tid)
						counter++
						p.Work(400)
						l.Release(p, tid)
						p.Work(100)
					}
				})
			}
			m.Run()
			if counter != 640 {
				t.Fatalf("%s: counter = %d, want 640", name, counter)
			}
		})
	}
}

// TestDeterministicTiming: the same seed must reproduce identical
// simulated end times for every algorithm.
func TestDeterministicTiming(t *testing.T) {
	runOnce := func(name string) sim.Time {
		m := testMachine(99)
		cpus := roundRobinCPUs(m, 6)
		l := New(name, m, 0, cpus, DefaultTuning())
		for tid := 0; tid < 6; tid++ {
			tid := tid
			m.Spawn(cpus[tid], func(p *machine.Proc) {
				for i := 0; i < 60; i++ {
					l.Acquire(p, tid)
					p.Work(250)
					l.Release(p, tid)
					p.Work(sim.Time(100 + 37*tid))
				}
			})
		}
		m.Run()
		return m.Now()
	}
	for _, name := range Names() {
		if a, b := runOnce(name), runOnce(name); a != b {
			t.Errorf("%s: nondeterministic end time %v vs %v", name, a, b)
		}
	}
}

// TestPreemptionRobustness contrasts queue locks and backoff locks under
// OS interference: both must still complete (liveness), and the queue
// lock should suffer at least as much as HBO_GT_SD (Table 4 mechanism).
func TestPreemptionRobustness(t *testing.T) {
	runWith := func(name string) sim.Time {
		cfg := machine.WildFire()
		cfg.CPUsPerNode = 4
		cfg.Seed = 31
		cfg.Preempt = machine.PreemptConfig{
			Enabled:      true,
			MeanInterval: 200 * sim.Microsecond,
			MeanDuration: 1 * sim.Millisecond,
		}
		m := machine.New(cfg)
		cpus := roundRobinCPUs(m, 8)
		l := New(name, m, 0, cpus, DefaultTuning())
		for tid := 0; tid < 8; tid++ {
			tid := tid
			m.Spawn(cpus[tid], func(p *machine.Proc) {
				for i := 0; i < 60; i++ {
					l.Acquire(p, tid)
					p.Work(500)
					l.Release(p, tid)
					p.Work(500)
				}
			})
		}
		m.Run()
		return m.Now()
	}
	mcsT := runWith("MCS")
	hboT := runWith("HBO_GT_SD")
	if mcsT < hboT {
		t.Logf("note: MCS %v faster than HBO_GT_SD %v under preemption (seed-dependent)", mcsT, hboT)
	}
	// Liveness is the hard assertion: both finished (Run returned).
}
