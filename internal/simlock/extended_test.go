package simlock

import (
	"testing"
	"testing/quick"

	"repro/internal/machine"
	"repro/internal/sim"
)

func TestExtendedRegistry(t *testing.T) {
	if len(AllNames()) != len(Names())+len(ExtendedNames()) {
		t.Fatal("AllNames size wrong")
	}
	for name, want := range map[string]bool{
		"TICKET": false, "ANDERSON": false, "REACTIVE": false,
		"HBO_HIER": true, "COHORT": true,
	} {
		if NUCAAware(name) != want {
			t.Errorf("NUCAAware(%q) = %v", name, !want)
		}
	}
}

// TestExtendedMutualExclusion hammers the new algorithms the way the
// core eight are hammered.
func TestExtendedMutualExclusion(t *testing.T) {
	const threads, iters = 8, 150
	for _, name := range ExtendedNames() {
		name := name
		t.Run(name, func(t *testing.T) {
			m := testMachine(19)
			cpus := roundRobinCPUs(m, threads)
			l := New(name, m, 0, cpus, DefaultTuning())
			counter, inCS := 0, 0
			for tid := 0; tid < threads; tid++ {
				tid := tid
				m.Spawn(cpus[tid], func(p *machine.Proc) {
					rng := sim.NewRNG(uint64(tid) + 3)
					for i := 0; i < iters; i++ {
						l.Acquire(p, tid)
						inCS++
						if inCS != 1 {
							t.Errorf("%s: %d threads in CS", name, inCS)
						}
						counter++
						p.Work(100)
						inCS--
						l.Release(p, tid)
						p.Work(rng.Timen(500) + 50)
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

// TestTicketIsFIFO: grants must follow ticket order exactly.
func TestTicketIsFIFO(t *testing.T) {
	m := testMachine(5)
	cpus := roundRobinCPUs(m, 6)
	l := New("TICKET", m, 0, cpus, DefaultTuning())
	var order []int
	for tid := 0; tid < 6; tid++ {
		tid := tid
		m.Spawn(cpus[tid], func(p *machine.Proc) {
			// Stagger arrival so enqueue order is well-defined.
			p.Work(sim.Time(1000 * (tid + 1)))
			l.Acquire(p, tid)
			order = append(order, tid)
			p.Work(5000)
			l.Release(p, tid)
		})
	}
	m.Run()
	for i, tid := range order {
		if tid != i {
			t.Fatalf("grant order %v not FIFO", order)
		}
	}
}

// TestAndersonSlotRing: more acquisitions than slots exercises the ring
// wraparound.
func TestAndersonSlotRing(t *testing.T) {
	m := testMachine(7)
	cpus := roundRobinCPUs(m, 4)
	l := New("ANDERSON", m, 0, cpus, DefaultTuning())
	counter := 0
	for tid := 0; tid < 4; tid++ {
		tid := tid
		m.Spawn(cpus[tid], func(p *machine.Proc) {
			for i := 0; i < 100; i++ { // 400 acquisitions over a 5-slot ring
				l.Acquire(p, tid)
				counter++
				l.Release(p, tid)
				p.Work(200)
			}
		})
	}
	m.Run()
	if counter != 400 {
		t.Fatalf("counter = %d", counter)
	}
}

// TestReactiveSwitchesModes: under sustained contention the mode word
// must flip to queue mode; after it subsides, back to spin.
func TestReactiveSwitchesModes(t *testing.T) {
	m := testMachine(9)
	cpus := roundRobinCPUs(m, 8)
	l := New("REACTIVE", m, 0, cpus, DefaultTuning()).(*specLock)
	mode := l.addr(l.spec.WordIndex("mode"), 0)
	sawQueue := false
	for tid := 0; tid < 8; tid++ {
		tid := tid
		m.Spawn(cpus[tid], func(p *machine.Proc) {
			for i := 0; i < 120; i++ {
				l.Acquire(p, tid)
				if m.Peek(mode) == 1 {
					sawQueue = true
				}
				p.Work(1000)
				l.Release(p, tid)
				// Think time so handovers occur (a releaser with no
				// think time re-wins its own owned lock word forever
				// and never observes contention).
				p.Work(2000)
			}
		})
	}
	m.Run()
	if !sawQueue {
		t.Fatal("reactive lock never switched to queue mode under contention")
	}

	// Single-thread phase on a fresh lock: must stay in spin mode.
	m2 := testMachine(10)
	l2 := New("REACTIVE", m2, 0, []int{0}, DefaultTuning()).(*specLock)
	m2.Spawn(0, func(p *machine.Proc) {
		for i := 0; i < 50; i++ {
			l2.Acquire(p, 0)
			l2.Release(p, 0)
		}
		if m2.Peek(l2.addr(l2.spec.WordIndex("mode"), 0)) != 0 {
			t.Error("reactive lock left spin mode without contention")
		}
	})
	m2.Run()
}

// TestCohortKeepsGlobalInNode: under contention from both nodes, the
// cohort lock must hand over in-node most of the time.
func TestCohortKeepsGlobalInNode(t *testing.T) {
	handoffs, switches := runHandoffCount(t, "COHORT", 8, 120)
	ratio := float64(switches) / float64(handoffs)
	if ratio > 0.2 {
		t.Fatalf("COHORT node handoff ratio %.2f, want <= 0.2", ratio)
	}
}

// TestCohortBoundsStreak: the cohort limit forces periodic global
// handovers, so the other node is never starved outright.
func TestCohortBoundsStreak(t *testing.T) {
	m := testMachine(11)
	cpus := roundRobinCPUs(m, 8)
	l := New("COHORT", m, 0, cpus, DefaultTuning())
	perNode := map[int]int{}
	for tid := 0; tid < 8; tid++ {
		tid := tid
		m.Spawn(cpus[tid], func(p *machine.Proc) {
			for i := 0; i < 200; i++ {
				l.Acquire(p, tid)
				perNode[p.Node()]++
				p.Work(300)
				l.Release(p, tid)
			}
		})
	}
	m.Run()
	if perNode[0] == 0 || perNode[1] == 0 {
		t.Fatalf("a node starved: %v", perNode)
	}
}

// TestHBOHierOnCMPServer: on a hierarchical machine, HBO_HIER must show
// stronger cluster affinity than flat HBO shows node affinity... at
// minimum, correctness plus lower cross-cluster handoffs than TICKET.
func TestHBOHierOnCMPServer(t *testing.T) {
	run := func(name string) (counter int, crossCluster float64) {
		cfg := machine.CMPServer()
		cfg.Seed = 13
		m := machine.New(cfg)
		threads := 16
		cpus := make([]int, threads)
		for i := range cpus {
			cpus[i] = (i * 2) % cfg.TotalCPUs() // spread over all 8 nodes
		}
		l := New(name, m, 0, cpus, DefaultTuning())
		last, hand, cross := -1, 0, 0
		for tid := 0; tid < threads; tid++ {
			tid := tid
			m.Spawn(cpus[tid], func(p *machine.Proc) {
				for i := 0; i < 100; i++ {
					l.Acquire(p, tid)
					if last >= 0 {
						hand++
						if m.ClusterOf(last) != m.ClusterOf(p.Node()) {
							cross++
						}
					}
					last = p.Node()
					counter++
					p.Work(300)
					l.Release(p, tid)
					p.Work(500)
				}
			})
		}
		m.Run()
		return counter, float64(cross) / float64(hand)
	}
	cHier, hier := run("HBO_HIER")
	cTkt, tkt := run("TICKET")
	if cHier != 1600 || cTkt != 1600 {
		t.Fatalf("counters = %d, %d", cHier, cTkt)
	}
	if hier >= tkt {
		t.Fatalf("HBO_HIER cross-cluster ratio %.2f not below TICKET %.2f", hier, tkt)
	}
}

// TestDistanceClassification covers the machine's hierarchy helpers.
func TestDistanceClassification(t *testing.T) {
	cfg := machine.CMPServer()
	m := machine.New(cfg)
	if m.Distance(0, 0) != 0 || m.Distance(0, 1) != 1 || m.Distance(0, 2) != 2 {
		t.Fatalf("distances = %d %d %d",
			m.Distance(0, 0), m.Distance(0, 1), m.Distance(0, 2))
	}
	flat := machine.New(machine.WildFire())
	if flat.Distance(0, 1) != 1 {
		t.Fatal("flat machine distance should be 1")
	}
}

// Property: every algorithm preserves mutual exclusion across random
// small machine shapes, thread counts and seeds (RH restricted to <= 2
// nodes by construction).
func TestMutualExclusionProperty(t *testing.T) {
	type shape struct {
		Nodes   uint8
		CPUs    uint8
		Threads uint8
		Seed    uint64
		Lock    uint8
	}
	names := AllNames()
	f := func(s shape) bool {
		nodes := int(s.Nodes%3) + 1
		cpus := int(s.CPUs%4) + 1
		name := names[int(s.Lock)%len(names)]
		if name == "RH" && nodes > 2 {
			nodes = 2
		}
		cfg := machine.WildFire()
		cfg.Nodes = nodes
		cfg.CPUsPerNode = cpus
		cfg.Seed = s.Seed
		m := machine.New(cfg)
		total := nodes * cpus
		threads := int(s.Threads)%total + 1
		// One thread per CPU, distinct CPUs.
		cpuList := make([]int, threads)
		for i := range cpuList {
			cpuList[i] = i
		}
		l := New(name, m, 0, cpuList, DefaultTuning())
		counter, inCS, ok := 0, 0, true
		for tid := 0; tid < threads; tid++ {
			tid := tid
			m.Spawn(cpuList[tid], func(p *machine.Proc) {
				for i := 0; i < 20; i++ {
					l.Acquire(p, tid)
					inCS++
					if inCS != 1 {
						ok = false
					}
					counter++
					p.Work(50)
					inCS--
					l.Release(p, tid)
					p.Work(sim.Time(30 * (tid + 1)))
				}
			})
		}
		m.Run()
		return ok && counter == threads*20
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// TestCLHTryTimesOutUnderHeldLock: a timed waiter behind a long holder
// must give up near its deadline, and the queue must stay functional.
func TestCLHTryTimesOutUnderHeldLock(t *testing.T) {
	m := testMachine(41)
	cpus := roundRobinCPUs(m, 3)
	l := New("CLH_TRY", m, 0, cpus, DefaultTuning()).(TimedLock)
	var timedOutAt sim.Time
	gotLate := false
	m.Spawn(cpus[0], func(p *machine.Proc) {
		l.Acquire(p, 0)
		p.Work(200_000) // hold 200µs
		l.Release(p, 0)
	})
	m.Spawn(cpus[1], func(p *machine.Proc) {
		p.Work(5000)
		if l.AcquireTimeout(p, 1, 20_000) {
			t.Error("timed acquire succeeded under a 200µs hold")
			l.Release(p, 1)
		}
		timedOutAt = p.Now()
		// Retry without timeout once the holder releases.
		l.Acquire(p, 1)
		gotLate = true
		l.Release(p, 1)
	})
	m.Run()
	if timedOutAt < 25_000 || timedOutAt > 80_000 {
		t.Fatalf("timed out at %v, want shortly after the 25µs deadline", timedOutAt)
	}
	if !gotLate {
		t.Fatal("retry after timeout never acquired")
	}
}

// TestCLHTryMiddleLeaverSplices: a waiter between two others leaves; the
// successor must still receive the lock through the splice.
func TestCLHTryMiddleLeaverSplices(t *testing.T) {
	m := testMachine(43)
	cpus := roundRobinCPUs(m, 4)
	l := New("CLH_TRY", m, 0, cpus, DefaultTuning()).(TimedLock)
	var order []int
	m.Spawn(cpus[0], func(p *machine.Proc) { // holder
		l.Acquire(p, 0)
		p.Work(100_000)
		order = append(order, 0)
		l.Release(p, 0)
	})
	m.Spawn(cpus[1], func(p *machine.Proc) { // middle, times out
		p.Work(5000)
		if l.AcquireTimeout(p, 1, 10_000) {
			t.Error("middle waiter should time out")
			l.Release(p, 1)
		}
	})
	m.Spawn(cpus[2], func(p *machine.Proc) { // successor behind the leaver
		p.Work(10_000)
		l.Acquire(p, 2)
		order = append(order, 2)
		l.Release(p, 2)
	})
	m.Run()
	if len(order) != 2 || order[0] != 0 || order[1] != 2 {
		t.Fatalf("grant order %v, want [0 2]", order)
	}
}

// TestCLHTryChurn: heavy mixed timed/blocking churn with tiny deadlines
// must preserve mutual exclusion and finish.
func TestCLHTryChurn(t *testing.T) {
	m := testMachine(47)
	cpus := roundRobinCPUs(m, 8)
	l := New("CLH_TRY", m, 0, cpus, DefaultTuning()).(TimedLock)
	inCS, acquired := 0, 0
	for tid := 0; tid < 8; tid++ {
		tid := tid
		m.Spawn(cpus[tid], func(p *machine.Proc) {
			rng := sim.NewRNG(uint64(tid) + 71)
			for i := 0; i < 150; i++ {
				ok := true
				if tid%2 == 0 {
					ok = l.AcquireTimeout(p, tid, sim.Time(rng.Timen(8000)+500))
				} else {
					l.Acquire(p, tid)
				}
				if ok {
					inCS++
					if inCS != 1 {
						t.Errorf("mutual exclusion violated")
					}
					acquired++
					p.Work(800)
					inCS--
					l.Release(p, tid)
				}
				p.Work(rng.Timen(2000) + 100)
			}
		})
	}
	m.Run()
	if acquired == 0 {
		t.Fatal("nothing acquired")
	}
	// Blocking threads must have completed all iterations.
	if acquired < 4*150 {
		t.Fatalf("acquired %d, below the blocking threads' 600", acquired)
	}
}
