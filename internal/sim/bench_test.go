package sim

import "testing"

// BenchmarkSchedule measures steady-state event scheduling: one push
// into the event heap per iteration, drained in batches so the heap
// stays at a fixed working size. The acceptance bar is 0 allocs/op —
// scheduling must not box events or grow storage once warm.
func BenchmarkSchedule(b *testing.B) {
	e := NewEngine()
	fn := func() {}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Schedule(1, fn)
		if e.Pending() == 1024 {
			e.Run()
		}
	}
	e.Run()
}

// BenchmarkEngineStep measures the per-step cost of one process
// repeatedly advancing simulated time — the innermost loop of every
// simulation. With a single runnable process this is the self-resume
// fast path.
func BenchmarkEngineStep(b *testing.B) {
	b.ReportAllocs()
	e := NewEngine()
	e.Spawn(0, func(p *Process) {
		for i := 0; i < b.N; i++ {
			p.Sleep(10)
		}
	})
	b.ResetTimer()
	e.Run()
}

// BenchmarkEngineStepPingPong measures the per-step cost when control
// must bounce between two processes through the engine (the coroutine
// switch slow path: their sleeps interleave, so neither can
// self-resume).
func BenchmarkEngineStepPingPong(b *testing.B) {
	b.ReportAllocs()
	e := NewEngine()
	for id := 0; id < 2; id++ {
		e.Spawn(id, func(p *Process) {
			for i := 0; i < b.N/2; i++ {
				p.Sleep(10)
			}
		})
	}
	b.ResetTimer()
	e.Run()
}

// BenchmarkEngineSwitch28 is the ping-pong at the suite's cell width: 28
// processes whose sleeps interleave, so every step is a switch through
// an event heap 28 deep — what a contended 28-thread cell pays per
// spin-load, sift cost included.
func BenchmarkEngineSwitch28(b *testing.B) {
	b.ReportAllocs()
	e := NewEngine()
	for id := 0; id < 28; id++ {
		e.Spawn(id, func(p *Process) {
			for i := 0; i < b.N/28; i++ {
				p.Sleep(10)
			}
		})
	}
	b.ResetTimer()
	e.Run()
}

// BenchmarkScheduleContended measures heap push/pop with a deep heap
// (1k outstanding events), the sift cost under a realistic backlog.
func BenchmarkScheduleContended(b *testing.B) {
	e := NewEngine()
	fn := func() {}
	for i := 0; i < 1024; i++ {
		e.Schedule(Time(1+i%37), fn)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Schedule(Time(1+i%37), fn)
		if e.Pending() == 4096 {
			e.Run()
		}
	}
	e.Run()
}
