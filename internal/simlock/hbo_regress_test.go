package simlock

import (
	"testing"

	"repro/internal/machine"
	"repro/internal/sim"
)

// angryTuning makes the GT_SD starvation detector fire after a couple of
// failed remote probes, so regression scenarios reach the SD path fast.
func angryTuning() Tuning {
	tun := DefaultTuning()
	tun.BackoffBase = 16
	tun.BackoffCap = 64
	tun.RemoteBackoffBase = 64
	tun.RemoteBackoffCap = 256
	tun.GetAngryLimit = 2
	return tun
}

// TestHBOGTSDOwnerBoundsGuard feeds the GT_SD slowpath a lock word whose
// decoded owner is far out of range (the corrupted-word scenario).
// Before the spec guarded the decoded owner, the starvation detector indexed
// is_spinning[owner] and crashed the whole machine; with the guard the
// acquirer rides out the corruption and completes once the word clears.
func TestHBOGTSDOwnerBoundsGuard(t *testing.T) {
	cfg := machine.WildFire()
	cfg.CPUsPerNode = 2
	cfg.Seed = 9
	cfg.TimeLimit = 50 * sim.Millisecond // watchdog: fail, don't hang
	m := machine.New(cfg)
	cpus := []int{0, 1}
	l := New("HBO_GT_SD", m, 0, cpus, angryTuning()).(specTI)
	lockWord := l.addr(0, 0)

	// Corrupt the lock word: owner id 99 on a 2-node machine (the word
	// holds node id + 1).
	l.InjectWord(m, 100)

	acquired := 0
	m.Spawn(0, func(p *machine.Proc) {
		l.Acquire(p, 0) // spins on the corrupted word, gets angry
		acquired++
		p.Work(100)
		l.Release(p, 0)
	})
	m.Spawn(1, func(p *machine.Proc) {
		// Simulated recovery: after long enough for several failed CASes
		// (and therefore several starvation-detection episodes), the
		// corrupted word is cleared.
		p.Work(200 * sim.Microsecond)
		p.Store(lockWord, 0)
	})
	m.Run()

	if m.Aborted() {
		t.Fatal("watchdog hit: acquirer never recovered from the corrupted lock word")
	}
	if acquired != 1 {
		t.Fatalf("acquired = %d, want 1", acquired)
	}
	if err := l.Quiescent(m); err != nil {
		t.Fatal(err)
	}
}

// TestHBOQuiescence: after every acquirer finishes, the lock word is
// free and every per-node is_spinning word has returned to zero —
// no node is left permanently throttled by a stale GT/GT_SD store.
func TestHBOQuiescence(t *testing.T) {
	for _, name := range []string{"HBO", "HBO_GT", "HBO_GT_SD"} {
		name := name
		t.Run(name, func(t *testing.T) {
			m := testMachine(21)
			cpus := roundRobinCPUs(m, 8)
			l := New(name, m, 0, cpus, angryTuning())
			for tid := 0; tid < 8; tid++ {
				tid := tid
				m.Spawn(cpus[tid], func(p *machine.Proc) {
					for i := 0; i < 60; i++ {
						l.Acquire(p, tid)
						p.Work(800) // long CS: remote spinners throttle their nodes
						l.Release(p, tid)
						p.Work(sim.Time(50 * (tid + 1)))
					}
				})
			}
			m.Run()
			q, ok := l.(Quiescer)
			if !ok {
				t.Fatalf("%s does not implement Quiescer", name)
			}
			if err := q.Quiescent(m); err != nil {
				t.Fatal(err)
			}
		})
	}
}
