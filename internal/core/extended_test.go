package core

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/lockspec"
)

func TestExtendedRegistryNative(t *testing.T) {
	if len(AllNames()) != len(Names())+len(ExtendedNames()) {
		t.Fatal("AllNames size wrong")
	}
	r := newTestRuntime(2, 4)
	for _, name := range ExtendedNames() {
		l := New(name, r, DefaultTuning())
		if l.Name() != name {
			t.Errorf("New(%q).Name() = %q", name, l.Name())
		}
	}
}

func TestExtendedMutualExclusionNative(t *testing.T) {
	const workers, iters = 8, 300
	for _, name := range ExtendedNames() {
		name := name
		t.Run(name, func(t *testing.T) {
			r := newTestRuntime(2, workers)
			l := New(name, r, DefaultTuning())
			counter := 0
			var wg sync.WaitGroup
			for w := 0; w < workers; w++ {
				wg.Add(1)
				go func(node int) {
					defer wg.Done()
					th := r.RegisterThread(node)
					for i := 0; i < iters; i++ {
						l.Acquire(th)
						counter++
						l.Release(th)
					}
				}(w % 2)
			}
			wg.Wait()
			if counter != workers*iters {
				t.Fatalf("%s: counter = %d, want %d", name, counter, workers*iters)
			}
		})
	}
}

func TestHierarchicalRuntimeDistance(t *testing.T) {
	r := NewRuntimeHierarchical(8, 2, 4)
	cases := []struct{ a, b, want int }{
		{0, 0, 0}, {0, 1, 1}, {0, 2, 2}, {2, 3, 1}, {6, 1, 2},
	}
	for _, c := range cases {
		if got := r.Distance(c.a, c.b); got != c.want {
			t.Errorf("Distance(%d,%d) = %d, want %d", c.a, c.b, got, c.want)
		}
	}
	flat := NewRuntime(4, 1)
	if flat.Distance(0, 3) != 1 {
		t.Error("flat runtime distance should be 1")
	}
	defer func() {
		if recover() == nil {
			t.Error("want panic for clusterSize < 1")
		}
	}()
	NewRuntimeHierarchical(4, 0, 1)
}

func TestHBOHierOnHierarchicalRuntime(t *testing.T) {
	const workers = 8
	r := NewRuntimeHierarchical(4, 2, workers)
	l := New("HBO_HIER", r, DefaultTuning())
	counter := 0
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(node int) {
			defer wg.Done()
			th := r.RegisterThread(node)
			for i := 0; i < 300; i++ {
				l.Acquire(th)
				counter++
				l.Release(th)
			}
		}(w % 4)
	}
	wg.Wait()
	if counter != workers*300 {
		t.Fatalf("counter = %d", counter)
	}
}

// TestTicketFIFONative: with a single contender at a time the ticket
// order is trivially preserved; this exercises sequencing under real
// concurrency by checking the final ticket counts match.
func TestTicketFIFONative(t *testing.T) {
	r := newTestRuntime(1, 4)
	l := New("TICKET", r, DefaultTuning()).(*specLock)
	var wg sync.WaitGroup
	const iters = 500
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			th := r.RegisterThread(0)
			for i := 0; i < iters; i++ {
				l.Acquire(th)
				l.Release(th)
			}
		}()
	}
	wg.Wait()
	next := l.peek(l.spec.WordIndex("next"), 0)
	owner := l.peek(l.spec.WordIndex("owner"), 0)
	if next != 4*iters || owner != 4*iters {
		t.Fatalf("tickets %d/%d, want %d", next, owner, 4*iters)
	}
	if err := l.Quiescent(); err != nil {
		t.Fatal(err)
	}
}

// TestAndersonWraparoundNative exercises the ring with far more
// acquisitions than slots.
func TestAndersonWraparoundNative(t *testing.T) {
	r := newTestRuntime(1, 3)
	l := New("ANDERSON", r, DefaultTuning())
	counter := 0
	var wg sync.WaitGroup
	for w := 0; w < 3; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			th := r.RegisterThread(0)
			for i := 0; i < 400; i++ {
				l.Acquire(th)
				counter++
				l.Release(th)
			}
		}()
	}
	wg.Wait()
	if counter != 1200 {
		t.Fatalf("counter = %d", counter)
	}
}

// TestReactiveModeFlipsNative drives sustained contention and then a
// solo phase, checking both mode transitions.
func TestReactiveModeFlipsNative(t *testing.T) {
	r := newTestRuntime(2, 8)
	l := New("REACTIVE", r, DefaultTuning()).(*specLock)
	mode := &l.words[l.spec.WordIndex("mode")][0].v
	var wg sync.WaitGroup
	sawQueue := false
	var mu sync.Mutex
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(node int) {
			defer wg.Done()
			th := r.RegisterThread(node)
			for i := 0; i < 500; i++ {
				l.Acquire(th)
				if mode.Load() == 1 {
					mu.Lock()
					sawQueue = true
					mu.Unlock()
				}
				l.Release(th)
			}
		}(w % 2)
	}
	wg.Wait()
	if !sawQueue {
		t.Log("note: reactive lock never left spin mode (host scheduling dependent)")
	}
	// Solo phase must drive it back to (or keep it in) spin mode.
	th := &Thread{id: 0, node: 0, rt: r}
	for i := 0; i < 16*3; i++ { // three times the spec's queue-to-spin threshold
		l.Acquire(th)
		l.Release(th)
	}
	if mode.Load() != 0 {
		t.Fatal("reactive lock stuck in queue mode after contention subsided")
	}
}

func TestCohortNative(t *testing.T) {
	r := newTestRuntime(2, 8)
	l := New("COHORT", r, DefaultTuning())
	counter := 0
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(node int) {
			defer wg.Done()
			th := r.RegisterThread(node)
			for i := 0; i < 400; i++ {
				l.Acquire(th)
				counter++
				l.Release(th)
			}
		}(w % 2)
	}
	wg.Wait()
	if counter != 3200 {
		t.Fatalf("counter = %d", counter)
	}
}

func TestNativeBarrier(t *testing.T) {
	const workers, episodes = 8, 20
	r := newTestRuntime(2, workers)
	b := NewBarrier(r, workers)
	var phase [workers]int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(node int) {
			defer wg.Done()
			th := r.RegisterThread(node)
			for e := 0; e < episodes; e++ {
				atomic.AddInt64(&phase[th.ID()], 1)
				mine := atomic.LoadInt64(&phase[th.ID()])
				for i := range phase {
					ph := atomic.LoadInt64(&phase[i])
					if ph < mine-1 || ph > mine+1 {
						t.Errorf("barrier violated: saw %d vs mine %d", ph, mine)
					}
				}
				b.Wait(th)
			}
		}(w % 2)
	}
	wg.Wait()
	for i := range phase {
		if phase[i] != episodes {
			t.Fatalf("thread %d at %d episodes", i, phase[i])
		}
	}
}

func TestNativeBarrierValidation(t *testing.T) {
	r := newTestRuntime(1, 2)
	for _, parties := range []int{0, 3} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("want panic for parties=%d", parties)
				}
			}()
			NewBarrier(r, parties)
		}()
	}
}

func TestTryAcquire(t *testing.T) {
	// The membership is the registry's Try flag, not a hand list, so a
	// new try-capable algorithm is covered the day it is registered.
	var names []string
	for _, s := range lockspec.All() {
		if s.Try {
			names = append(names, s.Name)
		}
	}
	if len(names) < 8 {
		t.Fatalf("registry lists only %d try-capable native locks", len(names))
	}
	for _, name := range names {
		name := name
		t.Run(name, func(t *testing.T) {
			r := newTestRuntime(2, 2)
			l := New(name, r, DefaultTuning())
			tl, ok := l.(TryLocker)
			if !ok {
				t.Fatalf("%s does not implement TryLocker", name)
			}
			a := r.RegisterThread(0)
			b := r.RegisterThread(1)
			if !tl.TryAcquire(a) {
				t.Fatal("try on a free lock failed")
			}
			if tl.TryAcquire(b) {
				t.Fatal("try on a held lock succeeded")
			}
			tl.Release(a)
			if !tl.TryAcquire(b) {
				t.Fatal("try after release failed")
			}
			tl.Release(b)
			// Blocking acquire still works after try traffic.
			tl.Acquire(a)
			tl.Release(a)
		})
	}
}

func TestTryAcquireUnderContention(t *testing.T) {
	r := newTestRuntime(2, 8)
	l := New("HBO_GT_SD", r, DefaultTuning()).(TryLocker)
	var wg sync.WaitGroup
	hits := int64(0)
	misses := int64(0)
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(node int) {
			defer wg.Done()
			th := r.RegisterThread(node)
			for i := 0; i < 2000; i++ {
				if l.TryAcquire(th) {
					atomic.AddInt64(&hits, 1)
					l.Release(th)
				} else {
					atomic.AddInt64(&misses, 1)
				}
			}
		}(w % 2)
	}
	wg.Wait()
	if hits == 0 {
		t.Fatal("no successful tries")
	}
	if hits+misses != 8*2000 {
		t.Fatalf("accounting wrong: %d+%d", hits, misses)
	}
}

func TestQueueLocksDoNotOfferTry(t *testing.T) {
	r := newTestRuntime(2, 2)
	for _, name := range []string{"CLH", "TICKET", "ANDERSON", "COHORT", "REACTIVE", "HMCS_T"} {
		if _, ok := New(name, r, DefaultTuning()).(TryLocker); ok {
			t.Errorf("%s unexpectedly offers TryAcquire", name)
		}
	}
}

func TestAcquireTimeout(t *testing.T) {
	r := newTestRuntime(2, 2)
	l := New("HBO_GT_SD", r, DefaultTuning()).(TryLocker)
	a := r.RegisterThread(0)
	b := r.RegisterThread(1)

	if !AcquireTimeout(l, a, time.Second, DefaultTuning()) {
		t.Fatal("timed acquire of a free lock failed")
	}
	// Held: a short timeout must expire.
	start := time.Now()
	if AcquireTimeout(l, b, 2*time.Millisecond, DefaultTuning()) {
		t.Fatal("timed acquire of a held lock succeeded")
	}
	if time.Since(start) < 2*time.Millisecond {
		t.Fatal("returned before the deadline")
	}
	l.Release(a)
	if !AcquireTimeout(l, b, time.Second, DefaultTuning()) {
		t.Fatal("timed acquire after release failed")
	}
	l.Release(b)
}

func TestAcquireTimeoutUnderChurn(t *testing.T) {
	r := newTestRuntime(2, 4)
	l := New("TATAS_EXP", r, DefaultTuning()).(TryLocker)
	var wg sync.WaitGroup
	var got int64
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(node int) {
			defer wg.Done()
			th := r.RegisterThread(node)
			for i := 0; i < 300; i++ {
				if AcquireTimeout(l, th, 50*time.Millisecond, DefaultTuning()) {
					atomic.AddInt64(&got, 1)
					l.Release(th)
				}
			}
		}(w % 2)
	}
	wg.Wait()
	if got == 0 {
		t.Fatal("no timed acquisitions succeeded under churn")
	}
}
