package sim

import (
	"fmt"
	"runtime"
	"slices"
	"sort"
	"testing"
	"testing/quick"
)

// goroutineBaseline returns a check that the runtime's goroutine count is
// back to what it was at this call. Engine.Running is the kernel's own
// counter; a coroutine that is never resumed or stopped again would leave
// it at zero and still be a goroutine.
func goroutineBaseline(t *testing.T) func() {
	t.Helper()
	base := runtime.NumGoroutine()
	return func() {
		t.Helper()
		// More, not different: a worker of an earlier test may still be
		// on its way out when the baseline is taken.
		if n := runtime.NumGoroutine(); n > base {
			t.Fatalf("%d goroutines, %d before the engine ran (leaked processes)", n, base)
		}
	}
}

func TestScheduleOrdering(t *testing.T) {
	e := NewEngine()
	var got []int
	e.Schedule(30, func() { got = append(got, 3) })
	e.Schedule(10, func() { got = append(got, 1) })
	e.Schedule(20, func() { got = append(got, 2) })
	e.Run()
	want := []int{1, 2, 3}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("order = %v, want %v", got, want)
		}
	}
	if e.Now() != 30 {
		t.Fatalf("Now = %v, want 30", e.Now())
	}
}

func TestSameTimeEventsFIFO(t *testing.T) {
	e := NewEngine()
	var got []int
	for i := 0; i < 10; i++ {
		i := i
		e.Schedule(5, func() { got = append(got, i) })
	}
	e.Run()
	for i := range got {
		if got[i] != i {
			t.Fatalf("same-time events out of order: %v", got)
		}
	}
}

func TestNestedScheduling(t *testing.T) {
	e := NewEngine()
	var got []Time
	e.Schedule(10, func() {
		got = append(got, e.Now())
		e.Schedule(5, func() { got = append(got, e.Now()) })
	})
	e.Run()
	if len(got) != 2 || got[0] != 10 || got[1] != 15 {
		t.Fatalf("nested schedule times = %v, want [10 15]", got)
	}
}

func TestNegativeSchedulePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for negative delay")
		}
	}()
	NewEngine().Schedule(-1, func() {})
}

func TestProcessSleep(t *testing.T) {
	e := NewEngine()
	var marks []Time
	e.Spawn(0, func(p *Process) {
		marks = append(marks, p.Now())
		p.Sleep(100)
		marks = append(marks, p.Now())
		p.Sleep(0) // zero sleep is a no-op
		marks = append(marks, p.Now())
	})
	e.Run()
	if len(marks) != 3 || marks[0] != 0 || marks[1] != 100 || marks[2] != 100 {
		t.Fatalf("marks = %v", marks)
	}
	if e.Running() != 0 {
		t.Fatalf("Running = %d after completion", e.Running())
	}
}

func TestTwoProcessesInterleaveDeterministically(t *testing.T) {
	run := func() []int {
		e := NewEngine()
		var trace []int
		e.Spawn(1, func(p *Process) {
			for i := 0; i < 5; i++ {
				trace = append(trace, 1)
				p.Sleep(10)
			}
		})
		e.Spawn(2, func(p *Process) {
			for i := 0; i < 5; i++ {
				trace = append(trace, 2)
				p.Sleep(7)
			}
		})
		e.Run()
		return trace
	}
	a, b := run(), run()
	if len(a) != len(b) || len(a) != 10 {
		t.Fatalf("trace lengths %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("nondeterministic interleaving: %v vs %v", a, b)
		}
	}
}

func TestBlockWake(t *testing.T) {
	e := NewEngine()
	var wokenAt Time
	waiter := e.Spawn(0, func(p *Process) {
		p.Block()
		wokenAt = p.Now()
	})
	e.Spawn(1, func(p *Process) {
		p.Sleep(50)
		waiter.Wake(25)
	})
	e.Run()
	if wokenAt != 75 {
		t.Fatalf("woken at %v, want 75", wokenAt)
	}
}

func TestWakeNonBlockedPanics(t *testing.T) {
	e := NewEngine()
	p := e.Spawn(0, func(p *Process) { p.Sleep(1000) })
	e.Schedule(1, func() {
		defer func() {
			if recover() == nil {
				t.Error("expected panic waking a non-blocked process")
			}
			e.Stop()
		}()
		p.Wake(0)
	})
	e.Run()
	e.Shutdown()
}

func TestTimeLimitStopsRun(t *testing.T) {
	e := NewEngine()
	e.SetLimit(100)
	count := 0
	e.Spawn(0, func(p *Process) {
		for {
			count++
			p.Sleep(30)
		}
	})
	e.Run()
	e.Shutdown()
	if !e.Stopped() {
		t.Fatal("engine not stopped at limit")
	}
	if e.Now() != 100 {
		t.Fatalf("Now = %v, want limit 100", e.Now())
	}
	if count < 3 || count > 4 {
		t.Fatalf("count = %d, want 3..4", count)
	}
}

func TestShutdownUnwindsBlockedProcesses(t *testing.T) {
	defer goroutineBaseline(t)()
	e := NewEngine()
	for i := 0; i < 8; i++ {
		e.Spawn(i, func(p *Process) { p.Block() })
	}
	e.Schedule(10, func() { e.Stop() })
	e.Run()
	e.Shutdown()
	if e.Running() != 0 {
		t.Fatalf("Running = %d after Shutdown, want 0", e.Running())
	}
}

func TestShutdownBeforeSpawnEventRuns(t *testing.T) {
	defer goroutineBaseline(t)()
	e := NewEngine()
	e.Stop() // stop immediately; spawn events never execute
	e.Spawn(0, func(p *Process) { t.Error("body must not run") })
	e.Run()
	e.Shutdown()
	if e.Running() != 0 {
		t.Fatalf("Running = %d, want 0", e.Running())
	}
}

func TestResourceFIFOQueueing(t *testing.T) {
	e := NewEngine()
	r := NewResource(e, "bus")
	var finish []Time
	for i := 0; i < 3; i++ {
		e.Spawn(i, func(p *Process) {
			r.Use(p, 100)
			finish = append(finish, p.Now())
		})
	}
	e.Run()
	want := []Time{100, 200, 300}
	for i := range want {
		if finish[i] != want[i] {
			t.Fatalf("finish = %v, want %v", finish, want)
		}
	}
	if r.Requests() != 3 {
		t.Fatalf("requests = %d", r.Requests())
	}
	if r.TotalWaited() != 0+100+200 {
		t.Fatalf("waited = %v", r.TotalWaited())
	}
}

func TestResourceIdleThenBusy(t *testing.T) {
	e := NewEngine()
	r := NewResource(e, "link")
	var second Time
	e.Spawn(0, func(p *Process) {
		r.Use(p, 50) // 0..50
	})
	e.Spawn(1, func(p *Process) {
		p.Sleep(200) // resource idle 50..200
		r.Use(p, 50) // 200..250, no wait
		second = p.Now()
	})
	e.Run()
	if second != 250 {
		t.Fatalf("second finish = %v, want 250", second)
	}
	if u := r.Utilization(); u <= 0.3 || u >= 0.5 {
		t.Fatalf("utilization = %v, want 100/250", u)
	}
}

func TestResourceDelayMatchesUse(t *testing.T) {
	e := NewEngine()
	r := NewResource(e, "bus")
	d1 := r.Delay(100)
	d2 := r.Delay(100)
	if d1 != 100 || d2 != 200 {
		t.Fatalf("delays = %v, %v; want 100, 200", d1, d2)
	}
}

// Property: for any batch of (delay, duration) pairs, processes sleeping
// those amounts finish in the order implied by their total times, and the
// engine clock ends at the max.
func TestSleepCompletionOrderProperty(t *testing.T) {
	f := func(raw []uint16) bool {
		if len(raw) == 0 || len(raw) > 32 {
			return true
		}
		e := NewEngine()
		type done struct {
			id int
			at Time
		}
		var finished []done
		for i, v := range raw {
			i, v := i, v
			e.Spawn(i, func(p *Process) {
				p.Sleep(Time(v))
				finished = append(finished, done{i, p.Now()})
			})
		}
		e.Run()
		if len(finished) != len(raw) {
			return false
		}
		if !sort.SliceIsSorted(finished, func(a, b int) bool {
			if finished[a].at != finished[b].at {
				return finished[a].at < finished[b].at
			}
			return false
		}) {
			return false
		}
		var max Time
		for _, v := range raw {
			if Time(v) > max {
				max = Time(v)
			}
		}
		return e.Now() == max
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// A kernelStep is one action of a scripted process in
// TestProcessesMatchCallbackReference.
type kernelStep struct {
	kind   int // 0 sleep, 1 block, 2 wake target if it is blocked, 3 plain Schedule
	d      Time
	target int
}

type kernelRec struct {
	at Time
	id int // process id; -1-id for a callback the process scheduled
}

// TestProcessesMatchCallbackReference extends the property above to the
// blocked path and to perturbed ties: scripted processes mixing Sleep,
// Block/Wake and plain Schedule callbacks must leave the (time, id) trace
// of a reference that runs the same scripts as callback state machines,
// with no coroutine anywhere. The reference issues the same Schedule
// calls in the same order (it repeats Sleep's fast-path test to do so),
// so under Perturb both draw the same tie-break priorities; what is left
// to differ is only whether suspending and resuming a body on its own
// stack keeps the event order.
func TestProcessesMatchCallbackReference(t *testing.T) {
	defer goroutineBaseline(t)()
	for script := uint64(1); script <= 40; script++ {
		rng := NewRNG(script)
		scripts := make([][]kernelStep, 2+rng.Intn(7))
		for i := range scripts {
			for n := 1 + rng.Intn(12); n > 0; n-- {
				scripts[i] = append(scripts[i], kernelStep{
					kind: rng.Intn(4), d: rng.Timen(12), target: rng.Intn(len(scripts)),
				})
			}
		}
		for _, seed := range []uint64{0, 1, 7} {
			var got, want []kernelRec

			e := NewEngine()
			e.Perturb(seed)
			procs := make([]*Process, len(scripts))
			for i := range scripts {
				procs[i] = e.Spawn(i, func(p *Process) {
					for _, st := range scripts[p.ID()] {
						got = append(got, kernelRec{p.Now(), p.ID()})
						switch st.kind {
						case 0:
							p.Sleep(st.d)
						case 1:
							p.Block()
						case 2:
							if procs[st.target].Blocked() {
								procs[st.target].Wake(st.d)
							}
						case 3:
							e.Schedule(st.d, func() { got = append(got, kernelRec{e.Now(), -1 - p.ID()}) })
						}
					}
				})
			}
			e.Run()
			gotEnd := e.Now()
			e.Shutdown() // some scripts end with a process nobody wakes

			r := NewEngine()
			r.Perturb(seed)
			pc, blocked := make([]int, len(scripts)), make([]bool, len(scripts))
			run := make([]func(), len(scripts))
			for i := range scripts {
				run[i] = func() {
					for pc[i] < len(scripts[i]) {
						st := scripts[i][pc[i]]
						pc[i]++
						want = append(want, kernelRec{r.Now(), i})
						switch st.kind {
						case 0:
							wake := r.now + st.d
							if st.d > 0 && len(r.events) > 0 && wake >= r.events[0].at {
								r.Schedule(st.d, run[i])
								return
							}
							r.now = wake
						case 1:
							blocked[i] = true
							return
						case 2:
							if blocked[st.target] {
								blocked[st.target] = false
								r.Schedule(st.d, run[st.target])
							}
						case 3:
							r.Schedule(st.d, func() { want = append(want, kernelRec{r.Now(), -1 - i}) })
						}
					}
				}
				r.Schedule(0, run[i])
			}
			r.Run()

			if !slices.Equal(got, want) || gotEnd != r.Now() {
				t.Fatalf("script %d, perturb %d: processes ended at %v with trace\n%v\ncallback reference ended at %v with\n%v",
					script, seed, gotEnd, got, r.Now(), want)
			}
		}
	}
}

// TestLimitKeepsOvershootingEvent: hitting the time limit must leave
// the not-yet-due event queued so a later SetLimit+Run resume sees it
// (the old pop-then-check loop silently dropped it).
func TestLimitKeepsOvershootingEvent(t *testing.T) {
	e := NewEngine()
	e.SetLimit(100)
	fired := Time(-1)
	e.Schedule(150, func() { fired = e.Now() })
	e.Run()
	if e.Now() != 100 || !e.Stopped() {
		t.Fatalf("Now = %v, Stopped = %v after limit", e.Now(), e.Stopped())
	}
	if e.Pending() != 1 {
		t.Fatalf("Pending = %d after limit stop, want 1 (event kept)", e.Pending())
	}
	if fired != -1 {
		t.Fatalf("event fired at %v despite the limit", fired)
	}
	e.SetLimit(200) // re-arms a limit-induced stop
	e.Run()
	if fired != 150 {
		t.Fatalf("resumed event fired at %v, want 150", fired)
	}
}

// TestEarlyStopReleasesAllProcesses: a simulation cut short by the time
// limit must not leak the goroutines backing still-sleeping processes
// once Shutdown runs.
func TestEarlyStopReleasesAllProcesses(t *testing.T) {
	defer goroutineBaseline(t)()
	e := NewEngine()
	e.SetLimit(50)
	const n = 16
	for i := 0; i < n; i++ {
		e.Spawn(i, func(p *Process) {
			for {
				p.Sleep(40) // always has a wake event pending at the stop
			}
		})
	}
	e.Run()
	if e.Running() != n {
		t.Fatalf("Running = %d before Shutdown, want %d", e.Running(), n)
	}
	e.Shutdown()
	if e.Running() != 0 {
		t.Fatalf("Running = %d after Shutdown, want 0 (leaked processes)", e.Running())
	}
}

// TestFinishedProcessesNeedNoShutdown: a body that returns takes its
// coroutine with it; Run to completion leaves nothing for Shutdown.
func TestFinishedProcessesNeedNoShutdown(t *testing.T) {
	defer goroutineBaseline(t)()
	e := NewEngine()
	for i := 0; i < 8; i++ {
		e.Spawn(i, func(p *Process) {
			p.Sleep(Time(10 + p.ID()))
			p.Sleep(5)
		})
	}
	e.Run()
	if e.Running() != 0 {
		t.Fatalf("Running = %d after Run, want 0", e.Running())
	}
}

// TestBodyPanicLeavesRun: a panic in a process body surfaces in the
// caller of Run with its original value, and Shutdown still unwinds the
// processes it left parked, through their defers.
func TestBodyPanicLeavesRun(t *testing.T) {
	defer goroutineBaseline(t)()
	e := NewEngine()
	boom := fmt.Errorf("boom")
	unwound := 0
	for i := 0; i < 6; i++ {
		e.Spawn(i, func(p *Process) {
			defer func() { unwound++ }()
			switch {
			case p.ID() == 3:
				p.Sleep(30)
				panic(boom)
			case p.ID()%2 == 0:
				p.Block()
			default:
				for {
					p.Sleep(7)
				}
			}
		})
	}
	func() {
		defer e.Shutdown()
		defer func() {
			if r := recover(); r != boom {
				t.Errorf("Run panicked with %v, want the body's own value", r)
			}
		}()
		e.Run()
		t.Error("Run returned; the body's panic was swallowed")
	}()
	if e.Running() != 0 || unwound != 6 {
		t.Fatalf("Running = %d, %d bodies unwound; want 0 and 6", e.Running(), unwound)
	}
}

// TestShutdownUnwindsThroughBodyRecover: a body with its own recover (the
// correctness harness) sees the shutdown signal, tells it from a failure
// with IsKill and re-panics it; the process then ends like any other.
func TestShutdownUnwindsThroughBodyRecover(t *testing.T) {
	defer goroutineBaseline(t)()
	e := NewEngine()
	sawKill, sawOther := 0, 0
	for i := 0; i < 4; i++ {
		e.Spawn(i, func(p *Process) {
			defer func() {
				if r := recover(); IsKill(r) {
					sawKill++
					panic(r)
				} else if r != nil {
					sawOther++
				}
			}()
			if p.ID() == 0 {
				p.Sleep(5)
				panic("a lock bug the harness records")
			}
			p.Block()
		})
	}
	e.Run()
	e.Shutdown()
	if sawKill != 3 || sawOther != 1 || e.Running() != 0 {
		t.Fatalf("kill seen %d times, failure %d, Running %d; want 3, 1, 0", sawKill, sawOther, e.Running())
	}
}

func TestScheduleAfterShutdownPanics(t *testing.T) {
	e := NewEngine()
	e.Run()
	e.Shutdown()
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic scheduling on a shut-down engine")
		}
	}()
	e.Schedule(1, func() {})
}

func TestSpawnAfterShutdownPanics(t *testing.T) {
	e := NewEngine()
	e.Run()
	e.Shutdown()
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic spawning on a shut-down engine")
		}
	}()
	e.Spawn(0, func(p *Process) {})
}

func TestShutdownIdempotent(t *testing.T) {
	e := NewEngine()
	e.Spawn(0, func(p *Process) { p.Sleep(10) })
	e.Run()
	e.Shutdown()
	e.Shutdown() // second call must be a no-op, not a double unwind
	if e.Running() != 0 {
		t.Fatalf("Running = %d", e.Running())
	}
}

// TestSleepFastPathMatchesEventOrder: a process's self-resumed sleeps
// must interleave with scheduled events and other processes exactly as
// the event queue dictates.
func TestSleepFastPathMatchesEventOrder(t *testing.T) {
	e := NewEngine()
	var got []int
	e.Schedule(25, func() { got = append(got, -1) })
	e.Spawn(0, func(p *Process) {
		for i := 0; i < 5; i++ {
			p.Sleep(10) // wakes at 10,20,30,40,50; event at 25 must cut in
			got = append(got, i)
		}
	})
	e.Run()
	want := []int{0, 1, -1, 2, 3, 4}
	if len(got) != len(want) {
		t.Fatalf("got %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("got %v, want %v", got, want)
		}
	}
	if e.Now() != 50 {
		t.Fatalf("Now = %v, want 50", e.Now())
	}
}

func TestTimeString(t *testing.T) {
	cases := []struct {
		t    Time
		want string
	}{
		{5, "5ns"},
		{1500, "1.500µs"},
		{2500000, "2.500ms"},
		{3 * Second, "3.000s"},
	}
	for _, c := range cases {
		if got := c.t.String(); got != c.want {
			t.Errorf("%d.String() = %q, want %q", int64(c.t), got, c.want)
		}
	}
}

func TestAccessorsAndPending(t *testing.T) {
	e := NewEngine()
	if e.Pending() != 0 {
		t.Fatal("fresh engine has pending events")
	}
	e.Schedule(5, func() {})
	if e.Pending() != 1 {
		t.Fatalf("Pending = %d", e.Pending())
	}
	var p *Process
	p = e.Spawn(7, func(pr *Process) {
		if pr.ID() != 7 || pr.Engine() != e {
			t.Error("process accessors wrong")
		}
		if pr.Done() || pr.Blocked() {
			t.Error("fresh process marked done/blocked")
		}
		pr.Sleep(10)
	})
	e.Run()
	if !p.Done() {
		t.Fatal("process not done after Run")
	}
	if (3 * Second).Seconds() != 3.0 {
		t.Fatal("Seconds conversion wrong")
	}
}

func TestNegativeSleepPanics(t *testing.T) {
	e := NewEngine()
	e.Spawn(0, func(p *Process) {
		defer func() {
			if recover() == nil {
				t.Error("want panic for negative sleep")
			}
		}()
		p.Sleep(-1)
	})
	e.Run()
}

func TestResourceName(t *testing.T) {
	e := NewEngine()
	if NewResource(e, "bus0").Name() != "bus0" {
		t.Fatal("resource name wrong")
	}
	if NewResource(e, "x").Utilization() != 0 {
		t.Fatal("utilization at t=0 should be 0")
	}
}
