package simlock

import (
	"runtime"
	"testing"

	"repro/internal/machine"
)

// BenchmarkLockPopulation is what an application cell pays before its
// first acquire: Radiosity's 3,975 locks (Table 3) declared on the
// 28-thread WildFire machine of Tables 5 and 6, homed round-robin as
// apps.Run homes them, and the machine released to the next cell. The
// metrics are per declared lock.
func BenchmarkLockPopulation(b *testing.B) {
	const locks, threads = 3975, 28
	for _, name := range []string{"MCS", "CNA", "HBO_GT_SD"} {
		b.Run(name, func(b *testing.B) {
			cfg := machine.WildFire()
			population := make([]Lock, locks)
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				m := machine.New(cfg)
				cpus := roundRobinCPUs(m, threads)
				for k := range population {
					population[k] = New(name, m, k%cfg.Nodes, cpus, DefaultTuning())
				}
				m.Release()
			}
			b.StopTimer()
			runtime.ReadMemStats(&after)
			per := float64(b.N) * locks
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/per, "ns/lock")
			b.ReportMetric(float64(after.TotalAlloc-before.TotalAlloc)/per, "B/lock")
			b.ReportMetric(float64(after.Mallocs-before.Mallocs)/per, "allocs/lock")
		})
	}
}

// TestLockAllocationsIndependentOfThreads: a lock is its struct and one
// base address per declared word; the per-thread queue nodes are lines of
// the machine's arena, not host objects, so 28 threads cost what 4 do.
func TestLockAllocationsIndependentOfThreads(t *testing.T) {
	perLock := func(threads int) float64 {
		m := machine.New(machine.WildFire())
		cpus := roundRobinCPUs(m, threads)
		// The arena's occasional doubling averages out below one.
		return testing.AllocsPerRun(200, func() { New("MCS", m, 0, cpus, DefaultTuning()) })
	}
	few, many := perLock(4), perLock(28)
	if few != many || many > 2 {
		t.Fatalf("New(MCS) allocates %v objects at 4 threads, %v at 28; want 2 at both", few, many)
	}
}
