package sim

import (
	"cmp"
	"fmt"
	"hash/fnv"
	"runtime"
	"slices"
	"sync/atomic"
	"testing"
	"time"
)

// pholdRun drives a PHOLD-style workload — the standard PDES benchmark
// model — on a ParEngine and returns a digest of every partition's full
// event history. Each partition owns `jobs` jobs; a job event logs
// (partition, time, rng draw), does a little local work (an extra
// intra-partition event), then forwards itself to a partition chosen
// from the partition's own RNG: with probability ~remotePct to a random
// other partition (delay >= lookahead), otherwise locally with a short
// delay. All state is partition-owned, so the digest must be identical
// at every worker width.
func pholdRun(t *testing.T, parts, workers, jobs int, lookahead Time, perturb uint64, horizon Time) string {
	t.Helper()
	d := NewParEngine(parts, workers, lookahead)
	if perturb != 0 {
		d.Perturb(perturb)
	}
	d.SetLimit(horizon)

	logs := make([][]string, parts)
	rngs := make([]*RNG, parts)
	var step func(p *Part, job int)
	step = func(p *Part, job int) {
		r := rngs[p.ID()]
		logs[p.ID()] = append(logs[p.ID()], fmt.Sprintf("%d:%d@%d", p.ID(), job, p.Now()))
		// Local side work: exercises intra-partition same-window ordering.
		p.Schedule(r.Timen(lookahead), func() {
			logs[p.ID()] = append(logs[p.ID()], fmt.Sprintf("w%d@%d", p.ID(), p.Now()))
		})
		if parts > 1 && r.Intn(100) < 40 {
			dst := r.Intn(parts - 1)
			if dst >= p.ID() {
				dst++
			}
			p.Send(dst, lookahead+r.Timen(lookahead), func() { step(p.Engine().Part(dst), job) })
		} else {
			p.Schedule(1+r.Timen(lookahead), func() { step(p, job) })
		}
	}
	for i := 0; i < parts; i++ {
		rngs[i] = NewRNG(mixSeed(42, uint64(i)))
		p := d.Part(i)
		for j := 0; j < jobs; j++ {
			at := rngs[i].Timen(lookahead)
			job := j
			p.Schedule(at, func() { step(p, job) })
		}
	}
	d.Run()
	d.Shutdown()

	h := fnv.New64a()
	total := 0
	for i, log := range logs {
		fmt.Fprintf(h, "part%d:%d;", i, len(log))
		for _, e := range log {
			h.Write([]byte(e))
		}
		total += len(log)
	}
	if total == 0 {
		t.Fatal("phold produced no events")
	}
	return fmt.Sprintf("%x/%d", h.Sum64(), total)
}

// TestParEngineByteIdenticalAcrossWidths is the core determinism
// contract: the same model yields the same complete event history at
// every worker width, perturbed or not.
func TestParEngineByteIdenticalAcrossWidths(t *testing.T) {
	for _, perturb := range []uint64{0, 7} {
		want := ""
		for _, workers := range []int{1, 2, 4, 8} {
			got := pholdRun(t, 16, workers, 4, 50, perturb, 20_000)
			if want == "" {
				want = got
				continue
			}
			if got != want {
				t.Fatalf("perturb=%d workers=%d: digest %s != width-1 digest %s", perturb, workers, got, want)
			}
		}
	}
}

// TestParEnginePerturbChangesSchedule checks that different perturb
// seeds explore different schedules while staying internally stable.
func TestParEnginePerturbChangesSchedule(t *testing.T) {
	a := pholdRun(t, 8, 4, 6, 40, 1, 10_000)
	b := pholdRun(t, 8, 4, 6, 40, 2, 10_000)
	if a == b {
		t.Fatal("different perturb seeds produced identical schedules (tie-break space not explored)")
	}
	if again := pholdRun(t, 8, 4, 6, 40, 1, 10_000); again != a {
		t.Fatalf("perturb seed 1 not reproducible: %s then %s", a, again)
	}
}

// TestParEngineLocalOrdering: intra-partition events run in timestamp
// order with FIFO tie-breaks, exactly like the sequential engine.
func TestParEngineLocalOrdering(t *testing.T) {
	d := NewParEngine(1, 4, 10)
	p := d.Part(0)
	var got []int
	p.Schedule(5, func() { got = append(got, 2) })
	p.Schedule(3, func() { got = append(got, 1) })
	p.Schedule(5, func() { got = append(got, 3) }) // same time, later seq
	p.Schedule(3, func() {
		p.Schedule(0, func() { got = append(got, 10) }) // same-time re-entry
	})
	d.Run()
	d.Shutdown()
	want := []int{1, 10, 2, 3}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("order %v, want %v", got, want)
	}
}

// TestParEngineSendDelivery: a message lands on the destination at the
// sender's time plus the given delay, and Part clocks stay monotonic.
func TestParEngineSendDelivery(t *testing.T) {
	d := NewParEngine(2, 2, 100)
	src, dst := d.Part(0), d.Part(1)
	var at Time = -1
	src.Schedule(7, func() {
		src.Send(1, 100, func() { at = dst.Now() })
	})
	d.Run()
	d.Shutdown()
	if at != 107 {
		t.Fatalf("message delivered at %d, want 107", at)
	}
}

// TestParEngineEqualTimestampMerge: messages from different sources
// arriving at the same destination time merge by (src, srcSeq) — stable
// regardless of which partition's window ran first.
func TestParEngineEqualTimestampMerge(t *testing.T) {
	run := func(workers int) string {
		d := NewParEngine(4, workers, 10)
		var got []string
		for i := 1; i < 4; i++ {
			p := d.Part(i)
			id := i
			p.Schedule(0, func() {
				p.Send(0, 10, func() { got = append(got, fmt.Sprintf("a%d", id)) })
				p.Send(0, 10, func() { got = append(got, fmt.Sprintf("b%d", id)) })
			})
		}
		d.Run()
		d.Shutdown()
		return fmt.Sprint(got)
	}
	want := "[a1 b1 a2 b2 a3 b3]"
	for _, w := range []int{1, 2, 4} {
		if got := run(w); got != want {
			t.Fatalf("workers=%d: merge order %s, want %s", w, got, want)
		}
	}
}

// TestParEngineLimit: events past the limit stay queued; re-arming via
// SetLimit resumes exactly where the run left off.
func TestParEngineLimit(t *testing.T) {
	d := NewParEngine(2, 2, 10)
	var ran atomic.Int32 // the two partitions run on two workers
	for i := 0; i < 2; i++ {
		p := d.Part(i)
		for _, at := range []Time{5, 25, 45} {
			p.Schedule(at, func() { ran.Add(1) })
		}
	}
	d.SetLimit(30)
	d.Run()
	if !d.Stopped() {
		t.Fatal("engine not stopped at limit")
	}
	if n := ran.Load(); n != 4 {
		t.Fatalf("ran %d events under limit 30, want 4 (the two at 45 must wait)", n)
	}
	d.SetLimit(0)
	d.Run()
	d.Shutdown()
	if n := ran.Load(); n != 6 {
		t.Fatalf("ran %d events after re-arm, want 6", n)
	}
}

// TestParEngineStopAtWindowBoundary: Stop lets the current window
// drain, then halts before the next.
func TestParEngineStop(t *testing.T) {
	d := NewParEngine(1, 1, 10)
	p := d.Part(0)
	ran := 0
	p.Schedule(1, func() { ran++; d.Stop() })
	p.Schedule(100, func() { ran++ })
	d.Run()
	d.Shutdown()
	if ran != 1 {
		t.Fatalf("ran %d events, want 1 (event at 100 is past the stopped window)", ran)
	}
}

// TestParEnginePanics: the guard rails that keep models honest.
func TestParEnginePanics(t *testing.T) {
	expectPanic := func(name string, fn func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Fatalf("%s did not panic", name)
			}
		}()
		fn()
	}
	expectPanic("zero lookahead", func() { NewParEngine(1, 1, 0) })
	expectPanic("zero partitions", func() { NewParEngine(0, 1, 5) })

	d := NewParEngine(2, 1, 10)
	p := d.Part(0)
	expectPanic("negative schedule", func() { p.Schedule(-1, func() {}) })
	expectPanic("send below lookahead", func() { p.Send(1, 9, func() {}) })
	expectPanic("send to invalid partition", func() { p.Send(5, 10, func() {}) })
	d.Shutdown()
	expectPanic("schedule after shutdown", func() { p.Schedule(0, func() {}) })
	expectPanic("send after shutdown", func() { p.Send(1, 10, func() {}) })

	c := NewParEngine(2, 1, 10)
	c.mailCap = 2
	cp := c.Part(0)
	cp.Schedule(0, func() {
		cp.Send(1, 10, func() {})
		cp.Send(1, 10, func() {})
	})
	expectPanic("mailbox cap", func() {
		cp2 := c.Part(0)
		cp2.Schedule(0, func() { cp2.Send(1, 10, func() {}) })
		// Third send in the same window exceeds the cap of 2.
		c.Run()
	})
	c.Shutdown()
}

// TestParEngineEventPanicPropagates: a panic inside event code on a
// worker goroutine re-raises on the Run caller.
func TestParEngineEventPanicPropagates(t *testing.T) {
	d := NewParEngine(4, 4, 10)
	for i := 0; i < 4; i++ {
		p := d.Part(i)
		p.Schedule(Time(i), func() {})
	}
	d.Part(2).Schedule(3, func() { panic("boom") })
	defer func() {
		d.Shutdown()
		if r := recover(); r != "boom" {
			t.Fatalf("recovered %v, want boom", r)
		}
	}()
	d.Run()
}

// TestMixSeedStability pins the partition-stable seed derivation: the
// values are part of the determinism contract (a silent change would
// alter every perturbed parallel schedule).
func TestMixSeedStability(t *testing.T) {
	if mixSeed(1, 0) == mixSeed(1, 1) {
		t.Fatal("mixSeed does not separate partitions")
	}
	if mixSeed(1, 0) == mixSeed(2, 0) {
		t.Fatal("mixSeed does not separate seeds")
	}
	if mixSeed(0, 0) == 0 {
		t.Fatal("mixSeed may return the sticky zero state")
	}
	if a, b := mixSeed(42, 7), mixSeed(42, 7); a != b {
		t.Fatal("mixSeed not deterministic")
	}
}

// scriptNode is one callback of a random script: it fires delay after its
// parent (a root: after time zero) and then schedules its kids.
type scriptNode struct {
	id    int
	delay Time
	kids  []*scriptNode
}

// randomScript draws a forest of nested callbacks whose delays come from a
// small set, so many events share a timestamp.
func randomScript(r *RNG) []*scriptNode {
	delays := []Time{0, 0, 1, 2, 5, 5, 10, 40}
	id := 0
	var grow func(depth int) *scriptNode
	grow = func(depth int) *scriptNode {
		n := &scriptNode{id: id, delay: delays[r.Intn(len(delays))]}
		id++
		if depth < 3 {
			for k := r.Intn(4); k > 0; k-- {
				n.kids = append(n.kids, grow(depth+1))
			}
		}
		return n
	}
	roots := make([]*scriptNode, 4+r.Intn(6))
	for i := range roots {
		roots[i] = grow(0)
	}
	return roots
}

// firing is one executed callback and the clock it read.
type firing struct {
	id int
	at Time
}

// playScript schedules the script on q (an *Engine or a *Part) and returns
// the slice its callbacks append to as they fire.
func playScript(q interface {
	Schedule(Time, func())
	Now() Time
}, roots []*scriptNode) *[]firing {
	log := new([]firing)
	var arm func(n *scriptNode)
	arm = func(n *scriptNode) {
		q.Schedule(n.delay, func() {
			*log = append(*log, firing{n.id, q.Now()})
			for _, k := range n.kids {
				arm(k)
			}
		})
	}
	for _, n := range roots {
		arm(n)
	}
	return log
}

// TestOnePartitionParEngineMatchesEngine pins that a partition is an
// Engine: a one-partition ParEngine fires a script's callbacks in the
// Engine's order, each reading the Engine's clock, and leaves the same
// number queued when a limit stops it — at every lookahead, with FIFO and
// with perturbed tie-breaks.
func TestOnePartitionParEngineMatchesEngine(t *testing.T) {
	type runner interface {
		Run()
		SetLimit(Time)
		Pending() int
		Shutdown()
	}
	// play runs the script to limit, then to the end, and reports the
	// firings with Pending() after each Run appended as pseudo-firings.
	play := func(r runner, log *[]firing, limit Time) []firing {
		defer r.Shutdown()
		r.SetLimit(limit)
		r.Run()
		*log = append(*log, firing{-1, Time(r.Pending())})
		r.SetLimit(1 << 40)
		r.Run()
		return append(*log, firing{-2, Time(r.Pending())})
	}
	for seed := uint64(1); seed <= 40; seed++ {
		roots := randomScript(NewRNG(seed))
		// Put the limit on an event's exact time, with one event past it
		// that is queued from the start.
		ref := NewEngine()
		times := playScript(ref, roots)
		ref.Run()
		ref.Shutdown()
		limit := (*times)[len(*times)/2].at
		roots = append(roots, &scriptNode{id: -3, delay: limit + 1})

		perturb := uint64(0)
		if seed%2 == 0 {
			perturb = seed
		}
		e := NewEngine()
		if perturb != 0 {
			e.Perturb(mixSeed(perturb, 0)) // partition 0's stream
		}
		want := play(e, playScript(e, roots), limit)
		stop := slices.IndexFunc(want, func(f firing) bool { return f.id == -1 })
		if want[stop].at < 1 || want[stop-1].at != limit || want[len(want)-1].at != 0 || len(want) != len(*times)+3 {
			t.Fatalf("seed %d: the script did not stop at limit %d with events queued and then drain: %v", seed, limit, want)
		}
		for _, lookahead := range []Time{1, 7, 1000} {
			d := NewParEngine(1, 1, lookahead)
			d.Perturb(perturb)
			got := play(d, playScript(d.Part(0), roots), limit)
			if !slices.Equal(got, want) {
				t.Fatalf("seed %d lookahead %d:\n got %v\nwant %v", seed, lookahead, got, want)
			}
		}
	}
}

// TestParEngineDeliveryOrder pins the merge that delivery no longer sorts
// for: messages to one destination fire in (arrival time, window sent in,
// source partition, emission) order. Two of the three sources share a
// span and the third and the destination have spans of their own, the
// arrival times interleave and repeat within a source, across sources and
// across the two windows the sources send in, and the order is the same at
// every width. Perturbed, the order is whatever the seed says, but still
// the same at every width.
func TestParEngineDeliveryOrder(t *testing.T) {
	const parts, dst, lookahead = 64, 20, 10
	sources := []int{3, 5, 40}
	type sent struct {
		at   Time // arrival
		wave int
		src  int
		seq  int // emission order within (wave, src)
	}
	// Each source sends the same arrival times in a different rotation,
	// from events inside one window; the second wave, one window later,
	// lands on the first wave's arrival times.
	arrivals := []Time{1000, 1007, 1000, 1003, 1007, 1000}
	var script []sent
	for wave := 0; wave < 2; wave++ {
		for k, src := range sources {
			for i := range arrivals {
				script = append(script, sent{arrivals[(i+2*k+wave)%len(arrivals)], wave, src, i})
			}
		}
	}
	run := func(workers int, perturb uint64) []sent {
		d := NewParEngine(parts, workers, lookahead)
		d.Perturb(perturb)
		var got []sent
		for _, m := range script {
			p := d.Part(m.src)
			// Emission i goes out at local time i of the wave's window;
			// scheduling in script order keeps equal send times in order.
			sendAt := Time(500*m.wave + m.seq)
			p.Schedule(sendAt, func() {
				p.Send(dst, m.at-sendAt, func() { got = append(got, m) })
			})
		}
		d.Run()
		d.Shutdown()
		if len(got) != len(script) {
			t.Fatalf("workers=%d: %d of %d messages fired", workers, len(got), len(script))
		}
		return got
	}
	want := slices.Clone(script)
	slices.SortStableFunc(want, func(a, b sent) int {
		return cmp.Or(cmp.Compare(a.at, b.at), cmp.Compare(a.wave, b.wave), cmp.Compare(a.src, b.src), cmp.Compare(a.seq, b.seq))
	})
	for _, perturb := range []uint64{0, 9} {
		ref := run(1, perturb)
		if perturb == 0 && !slices.Equal(ref, want) {
			t.Fatalf("FIFO fire order\n got %v\nwant %v", ref, want)
		}
		if perturb != 0 && slices.Equal(ref, want) {
			t.Fatal("the perturbed order is the FIFO order: the seed reordered nothing")
		}
		for _, workers := range []int{2, 4, 8} {
			if got := run(workers, perturb); !slices.Equal(got, ref) {
				t.Fatalf("perturb=%d workers=%d:\n got %v\nwant %v", perturb, workers, got, ref)
			}
		}
	}
}

// TestParEngineSharedWindows is the determinism contract where windows are
// shared: enough partitions for several spans (16 make one), the last span
// short in one case, against the width-1 history.
func TestParEngineSharedWindows(t *testing.T) {
	for _, parts := range []int{64, 100} {
		for _, perturb := range []uint64{0, 7} {
			want := pholdRun(t, parts, 1, 4, 50, perturb, 3_000)
			for _, workers := range []int{2, 3, 8} {
				if got := pholdRun(t, parts, workers, 4, 50, perturb, 3_000); got != want {
					t.Fatalf("parts=%d perturb=%d workers=%d: digest %s != width-1 digest %s", parts, perturb, workers, got, want)
				}
			}
		}
	}
}

// TestParEngineOversubscribed: more workers than GOMAXPROCS, down to one.
// No helper may be needed for progress, and none changes the history.
func TestParEngineOversubscribed(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	want := pholdRun(t, 64, 1, 4, 50, 0, 5_000)
	for _, procs := range []int{1, 2} {
		runtime.GOMAXPROCS(procs)
		if got := pholdRun(t, 64, 8, 4, 50, 0, 5_000); got != want {
			t.Fatalf("GOMAXPROCS=%d workers=8: digest %s != width-1 digest %s", procs, got, want)
		}
	}
}

// TestParEngineHelpersExit: Run's helpers are gone when Run returns,
// however it returns.
func TestParEngineHelpersExit(t *testing.T) {
	if runtime.GOMAXPROCS(0) < 2 {
		t.Log("GOMAXPROCS is 1: Run starts no helper, so this only checks that")
	}
	base := runtime.NumGoroutine()
	settled := func(when string) {
		t.Helper()
		// Run has waited for every helper's Done, which is the last thing
		// a helper does but not yet its exit: give a thread the OS has
		// taken off its CPU right there the time to get back.
		for end := time.Now().Add(5 * time.Second); runtime.NumGoroutine() > base && time.Now().Before(end); {
			time.Sleep(time.Millisecond)
		}
		if n := runtime.NumGoroutine(); n > base {
			t.Fatalf("%s: %d goroutines, %d before", when, n, base)
		}
	}
	// ticking returns an engine with an event every 10 on every partition.
	ticking := func(each func(p *Part)) *ParEngine {
		d := NewParEngine(64, 4, 10)
		for i := 0; i < 64; i++ {
			p := d.Part(i)
			var tick func()
			tick = func() {
				each(p)
				if p.Now() < 1000 {
					p.Schedule(10, tick)
				}
			}
			p.Schedule(Time(i%10), tick)
		}
		return d
	}

	d := ticking(func(*Part) {})
	d.Run()
	settled("after Run drained")
	d.Shutdown()

	d = ticking(func(p *Part) {
		if p.ID() == 40 && p.Now() > 300 {
			d.Stop()
		}
	})
	d.Run()
	settled("after Stop")
	if d.Pending() == 0 {
		t.Fatal("Stop left nothing queued: the run drained instead")
	}
	d.Shutdown()

	d = ticking(func(*Part) {})
	d.SetLimit(400)
	d.Run()
	settled("after a limit stop")
	d.SetLimit(0)
	d.Run()
	settled("after the re-armed Run")
	if d.Pending() != 0 {
		t.Fatalf("%d events left after the re-armed Run", d.Pending())
	}
	d.Shutdown()

	d = ticking(func(p *Part) {
		if p.Now() >= 300 && (p.ID() == 50 || p.ID() == 7) {
			panic(p.ID())
		}
	})
	func() {
		defer func() {
			// Partitions 7 and 50 fail in the same window, in different
			// spans: the lower id is the one reported.
			if r := recover(); r != 7 {
				t.Fatalf("recovered %v, want 7", r)
			}
		}()
		d.Run()
	}()
	settled("after an event panicked")
	d.Shutdown()
}
