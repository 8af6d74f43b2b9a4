package core

import (
	"sync"
	"testing"
)

func newTestRuntime(nodes, threads int) *Runtime { return NewRuntime(nodes, threads) }

func TestNamesAndNewCover(t *testing.T) {
	r := newTestRuntime(2, 8)
	for _, name := range Names() {
		l := New(name, r, DefaultTuning())
		if l.Name() != name {
			t.Errorf("New(%q).Name() = %q", name, l.Name())
		}
	}
}

func TestNewUnknownPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("want panic")
		}
	}()
	New("BOGUS", newTestRuntime(1, 1), DefaultTuning())
}

func TestRuntimeValidation(t *testing.T) {
	for _, f := range []func(){
		func() { NewRuntime(0, 1) },
		func() { NewRuntime(1, 0) },
		func() { newTestRuntime(2, 1).RegisterThread(5) },
		func() { newTestRuntime(2, 1).RegisterThread(-1) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("want panic")
				}
			}()
			f()
		}()
	}
}

func TestRegisterThreadAssignsDenseIDs(t *testing.T) {
	r := newTestRuntime(2, 4)
	seen := map[int]bool{}
	var mu sync.Mutex
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func(n int) {
			defer wg.Done()
			th := r.RegisterThread(n % 2)
			mu.Lock()
			seen[th.ID()] = true
			mu.Unlock()
		}(i)
	}
	wg.Wait()
	if len(seen) != 4 {
		t.Fatalf("ids not dense/unique: %v", seen)
	}
	defer func() {
		if recover() == nil {
			t.Error("want panic registering beyond capacity")
		}
	}()
	r.RegisterThread(0)
}

func TestThreadAccessors(t *testing.T) {
	r := newTestRuntime(3, 2)
	th := r.RegisterThread(2)
	if th.Node() != 2 {
		t.Errorf("Node = %d", th.Node())
	}
	if r.Nodes() != 3 || r.MaxThreads() != 2 {
		t.Errorf("runtime accessors wrong: %d nodes, %d threads", r.Nodes(), r.MaxThreads())
	}
}

// TestMutualExclusionNative hammers every lock with concurrent
// goroutines; run with -race for full effect.
func TestMutualExclusionNative(t *testing.T) {
	const workers, iters = 8, 400
	for _, name := range Names() {
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
				t.Fatalf("%s: counter = %d, want %d (lost updates)", name, counter, workers*iters)
			}
		})
	}
}

// TestReentrantSequence: a single thread acquiring and releasing in a
// loop must never deadlock and must leave each lock free for another
// thread afterwards.
func TestReentrantSequence(t *testing.T) {
	for _, name := range Names() {
		r := newTestRuntime(2, 2)
		l := New(name, r, DefaultTuning())
		t0 := r.RegisterThread(0)
		t1 := r.RegisterThread(1)
		for i := 0; i < 100; i++ {
			l.Acquire(t0)
			l.Release(t0)
		}
		done := make(chan struct{})
		go func() {
			l.Acquire(t1)
			l.Release(t1)
			close(done)
		}()
		<-done
	}
}

func TestLockerAdapter(t *testing.T) {
	r := newTestRuntime(1, 2)
	l := New("HBO", r, DefaultTuning())
	var wg sync.WaitGroup
	counter := 0
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			lk := Locker{L: l, T: r.RegisterThread(0)}
			for j := 0; j < 200; j++ {
				lk.Lock()
				counter++
				lk.Unlock()
			}
		}()
	}
	wg.Wait()
	if counter != 400 {
		t.Fatalf("counter = %d", counter)
	}
}

// TestCLHMultipleLocks: a thread's rotating CLH nodes must stay
// independent across distinct locks.
func TestCLHMultipleLocks(t *testing.T) {
	r := newTestRuntime(1, 4)
	l1, l2 := New("CLH", r, DefaultTuning()), New("CLH", r, DefaultTuning())
	var wg sync.WaitGroup
	c1, c2 := 0, 0
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			th := r.RegisterThread(0)
			for i := 0; i < 200; i++ {
				l1.Acquire(th)
				c1++
				l1.Release(th)
				l2.Acquire(th)
				c2++
				l2.Release(th)
			}
		}()
	}
	wg.Wait()
	if c1 != 800 || c2 != 800 {
		t.Fatalf("counters = %d, %d; want 800, 800", c1, c2)
	}
}

// TestNestedDistinctLocks: holding one lock while acquiring another
// (lock ordering respected) must work for every pairing, since apps
// like SPLASH-2 nest fine-grained locks.
func TestNestedDistinctLocks(t *testing.T) {
	for _, name := range Names() {
		name := name
		t.Run(name, func(t *testing.T) {
			r := newTestRuntime(2, 4)
			outer := New(name, r, DefaultTuning())
			inner := New(name, r, DefaultTuning())
			counter := 0
			var wg sync.WaitGroup
			for w := 0; w < 4; w++ {
				wg.Add(1)
				go func(node int) {
					defer wg.Done()
					th := r.RegisterThread(node)
					for i := 0; i < 100; i++ {
						outer.Acquire(th)
						inner.Acquire(th)
						counter++
						inner.Release(th)
						outer.Release(th)
					}
				}(w % 2)
			}
			wg.Wait()
			if counter != 400 {
				t.Fatalf("counter = %d", counter)
			}
		})
	}
}

func TestRHRejectsThreeNodesNative(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("want panic")
		}
	}()
	New("RH", newTestRuntime(3, 1), DefaultTuning())
}

func TestHBOFourNodesNative(t *testing.T) {
	const workers = 8
	r := newTestRuntime(4, workers)
	for _, name := range []string{"HBO", "HBO_GT", "HBO_GT_SD"} {
		l := New(name, r, DefaultTuning())
		counter := 0
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(node int) {
				defer wg.Done()
				th := r.RegisterThread(node)
				for i := 0; i < 150; i++ {
					l.Acquire(th)
					counter++
					l.Release(th)
				}
			}(w % 4)
		}
		wg.Wait()
		if counter != workers*150 {
			t.Fatalf("%s: counter = %d", name, counter)
		}
		r.nextID.Store(0) // reuse ids for the next variant
	}
}

func TestSingleNodeRuntimeAllLocks(t *testing.T) {
	for _, name := range Names() {
		r := newTestRuntime(1, 4)
		l := New(name, r, DefaultTuning())
		counter := 0
		var wg sync.WaitGroup
		for w := 0; w < 4; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				th := r.RegisterThread(0)
				for i := 0; i < 200; i++ {
					l.Acquire(th)
					counter++
					l.Release(th)
				}
			}()
		}
		wg.Wait()
		if counter != 800 {
			t.Fatalf("%s: counter = %d", name, counter)
		}
	}
}

func TestTuningYieldThresholdDefault(t *testing.T) {
	var z Tuning
	if z.YieldEvery() != 1024 {
		t.Fatalf("zero Tuning yield threshold = %d", z.YieldEvery())
	}
	tn := Tuning{YieldThreshold: 7}
	if tn.YieldEvery() != 7 {
		t.Fatalf("explicit yield threshold ignored")
	}
}

func TestBackoffDoublesAndCaps(t *testing.T) {
	b := 4
	backoff(&b, 2, 16, 1024)
	if b != 8 {
		t.Fatalf("b = %d, want 8", b)
	}
	backoff(&b, 2, 16, 1024)
	backoff(&b, 2, 16, 1024)
	backoff(&b, 2, 16, 1024)
	if b != 16 {
		t.Fatalf("b = %d, want cap 16", b)
	}
}
