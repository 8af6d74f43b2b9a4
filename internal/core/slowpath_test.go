package core

import (
	"sync"
	"testing"
	"time"
)

// holdWhile acquires l on a holder thread, runs the contenders while
// the lock is held for holdFor, then releases — forcing every contender
// through its algorithm's slow path even on a single-CPU host, where
// the fast path otherwise always wins.
func holdWhile(t *testing.T, l Lock, holder *Thread, holdFor time.Duration, contend func()) {
	t.Helper()
	l.Acquire(holder)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		contend()
	}()
	time.Sleep(holdFor)
	l.Release(holder)
	wg.Wait()
}

// TestSlowPathsUnderHeldLock drives each algorithm's contended path:
// a holder pins the lock while same-node and remote-node contenders
// arrive, spin, and eventually acquire.
func TestSlowPathsUnderHeldLock(t *testing.T) {
	for _, name := range AllNames() {
		name := name
		t.Run(name, func(t *testing.T) {
			r := newTestRuntime(2, 4)
			l := New(name, r, DefaultTuning())
			holder := r.RegisterThread(0)
			sameNode := r.RegisterThread(0)
			remote := r.RegisterThread(1)

			acquired := 0
			holdWhile(t, l, holder, 3*time.Millisecond, func() {
				// The same-node contender sees the holder's node id in
				// the lock word (HBO local path); the remote contender
				// sees a foreign id (HBO remote path).
				var wg sync.WaitGroup
				for _, th := range []*Thread{sameNode, remote} {
					th := th
					wg.Add(1)
					go func() {
						defer wg.Done()
						l.Acquire(th)
						acquired++
						l.Release(th)
					}()
				}
				wg.Wait()
			})
			if acquired != 2 {
				t.Fatalf("%s: %d contenders acquired, want 2", name, acquired)
			}
		})
	}
}

// TestHBOSlowPathTransitions drives the HBO restart path: the lock
// migrates between nodes while a contender waits, forcing the
// local-loop -> restart -> remote-loop transitions.
func TestHBOSlowPathTransitions(t *testing.T) {
	for _, name := range []string{"HBO", "HBO_GT", "HBO_GT_SD", "HBO_HIER"} {
		name := name
		t.Run(name, func(t *testing.T) {
			r := NewRuntimeHierarchical(4, 2, 8)
			l := New(name, r, DefaultTuning())
			var wg sync.WaitGroup
			counter := 0
			// Eight threads across four nodes with long enough holds
			// that waiters observe owners in several distance classes.
			for w := 0; w < 8; w++ {
				wg.Add(1)
				go func(node int) {
					defer wg.Done()
					th := r.RegisterThread(node)
					for i := 0; i < 60; i++ {
						l.Acquire(th)
						counter++
						time.Sleep(50 * time.Microsecond)
						l.Release(th)
					}
				}(w % 4)
			}
			wg.Wait()
			if counter != 480 {
				t.Fatalf("%s: counter = %d", name, counter)
			}
		})
	}
}

// TestMCSReleaseWaitsForLinking exercises the MCS release race where
// the successor has swapped the tail but not yet linked prev.next: the
// releaser must wait for the link rather than dropping the lock.
func TestMCSReleaseWaitsForLinking(t *testing.T) {
	r := newTestRuntime(1, 8)
	l := New("MCS", r, DefaultTuning())
	counter := 0
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			th := r.RegisterThread(0)
			for i := 0; i < 500; i++ {
				l.Acquire(th)
				counter++
				l.Release(th)
			}
		}()
	}
	wg.Wait()
	if counter != 4000 {
		t.Fatalf("counter = %d (a grant was lost)", counter)
	}
}

// TestGTThrottleEngagesNative: hold the lock remotely long enough for a
// node winner to set is_spinning, then check its neighbor is gated and
// ultimately released.
func TestGTThrottleEngagesNative(t *testing.T) {
	r := newTestRuntime(2, 4)
	tun := DefaultTuning()
	tun.RemoteBackoffBase = 64 // spin often so the winner forms fast
	tun.RemoteBackoffCap = 256
	l := New("HBO_GT", r, tun)
	holder := r.RegisterThread(0)
	w1 := r.RegisterThread(1)
	w2 := r.RegisterThread(1)

	acquired := 0
	holdWhile(t, l, holder, 5*time.Millisecond, func() {
		var wg sync.WaitGroup
		for _, th := range []*Thread{w1, w2} {
			th := th
			wg.Add(1)
			go func() {
				defer wg.Done()
				l.Acquire(th)
				acquired++
				time.Sleep(time.Millisecond)
				l.Release(th)
			}()
		}
		wg.Wait()
	})
	if acquired != 2 {
		t.Fatalf("acquired = %d", acquired)
	}
}

// TestSDAngerFiresNative: a tiny GetAngryLimit with a long-held remote
// lock drives the starvation-detection branch.
func TestSDAngerFiresNative(t *testing.T) {
	r := newTestRuntime(2, 2)
	tun := DefaultTuning()
	tun.GetAngryLimit = 2
	tun.RemoteBackoffBase = 64
	tun.RemoteBackoffCap = 128
	l := New("HBO_GT_SD", r, tun).(specTimedTryI)
	spinIdx := l.spec.WordIndex("is_spinning")
	holder := r.RegisterThread(0)
	angry := r.RegisterThread(1)

	acquired := false
	holdWhile(t, l, holder, 5*time.Millisecond, func() {
		l.Acquire(angry)
		acquired = true
		// The anger path stopped node 0; releasing must reopen it.
		l.Release(angry)
		if l.peek(spinIdx, 0) != 0 {
			// is_spinning is cleared on acquire, before release.
			t.Error("stopped node not released after angry acquire")
		}
	})
	if !acquired {
		t.Fatal("angry thread never acquired")
	}
}

// TestRHNodeWinnerNative drives the RH remote-spin (node winner) path.
func TestRHNodeWinnerNative(t *testing.T) {
	r := newTestRuntime(2, 3)
	tun := DefaultTuning()
	tun.RHRemoteBase = 64
	tun.RHRemoteCap = 256
	l := New("RH", r, tun)
	holder := r.RegisterThread(0)
	winner := r.RegisterThread(1)
	follower := r.RegisterThread(1)

	acquired := 0
	holdWhile(t, l, holder, 3*time.Millisecond, func() {
		var wg sync.WaitGroup
		for _, th := range []*Thread{winner, follower} {
			th := th
			wg.Add(1)
			go func() {
				defer wg.Done()
				l.Acquire(th)
				acquired++
				l.Release(th)
			}()
		}
		wg.Wait()
	})
	if acquired != 2 {
		t.Fatalf("acquired = %d", acquired)
	}
}

// TestTicketSlowPath parks a ticket-holder briefly so later tickets
// wait proportionally.
func TestTicketSlowPath(t *testing.T) {
	r := newTestRuntime(1, 3)
	l := New("TICKET", r, DefaultTuning())
	holder := r.RegisterThread(0)
	acquired := 0
	holdWhile(t, l, holder, 2*time.Millisecond, func() {
		var wg sync.WaitGroup
		for i := 0; i < 2; i++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				th := r.RegisterThread(0)
				l.Acquire(th)
				acquired++
				l.Release(th)
			}()
		}
		wg.Wait()
	})
	if acquired != 2 {
		t.Fatalf("acquired = %d", acquired)
	}
}
