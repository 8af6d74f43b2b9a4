package core

import (
	"testing"
	"time"
)

// TestTimedThrottlePollQuantum pins the drift fix the spec port made:
// the hand-written native HBO polled its *timed* throttle wait at
// BackoffBase-sized delays, so a large backoff tuning silently
// stretched the abort-check cadence (a deadline of a few milliseconds
// could overshoot by seconds) while the simulator twin polled on a
// fixed 64-unit quantum. The spec's ThrottleWait polls timed waits on
// lockspec.TimedPollUnits in both stacks; this test fails against the
// old behavior.
func TestTimedThrottlePollQuantum(t *testing.T) {
	r := NewRuntime(2, 2)
	tun := DefaultTuning()
	// One BackoffBase-sized poll would busy-wait for seconds; the fixed
	// quantum keeps the abort cadence tuning-independent.
	tun.BackoffBase = 1 << 30
	l := New("HBO_GT", r, tun).(specTimedTryI)
	th := r.RegisterThread(0)

	// Throttle th's node, as a remote-spinning node winner would.
	spin := l.spec.WordIndex("is_spinning")
	l.words[spin][0].v.Store(l.tag)

	start := time.Now()
	if l.AcquireFor(th, 5*time.Millisecond) {
		t.Fatal("acquire succeeded through a throttled node")
	}
	if elapsed := time.Since(start); elapsed > 500*time.Millisecond {
		t.Fatalf("timed throttle wait took %v: abort cadence followed BackoffBase instead of the fixed TimedPollUnits quantum", elapsed)
	}

	// Un-throttle; protocol state must be idle after the abort.
	l.words[spin][0].v.Store(0)
	if err := l.Quiescent(); err != nil {
		t.Fatal(err)
	}

	// With the throttle lifted the same timed acquire succeeds.
	if !l.AcquireFor(th, time.Second) {
		t.Fatal("timed acquire of a free lock failed")
	}
	l.Release(th)
}

// TestSpecCapabilitySurface asserts FromSpec exposes exactly the
// optional interfaces each spec's metadata declares — no more (a lock
// without a try path must not satisfy TryLocker) and no less.
func TestSpecCapabilitySurface(t *testing.T) {
	r := NewRuntime(2, 4)
	for _, name := range AllNames() {
		l := New(name, r, DefaultTuning())
		if l.Name() != name {
			t.Errorf("New(%q).Name() = %q", name, l.Name())
		}
		if _, ok := l.(interface{ InjectWord(uint64) }); ok {
			if _, qok := l.(interface{ Quiescent() error }); !qok {
				t.Errorf("%s: InjectWord without Quiescent (harness cannot verify recovery)", name)
			}
		}
	}
}

// TestHierFarBackoffHonoured pins the drift the HBO_HIER port removed:
// the hand-written native lock ignored Tuning.FarBackoffBase/Cap and
// always backed off 4x the remote constants across clusters, while the
// simulated one honoured them (falling back to 4x only when unset). With
// the remote constants made enormous, a cross-cluster contender gets the
// lock promptly only if the far constants are the ones in use; this test
// fails against the old behavior.
func TestHierFarBackoffHonoured(t *testing.T) {
	r := NewRuntimeHierarchical(4, 2, 2)
	tun := DefaultTuning()
	// One 4x-remote backoff would busy-wait for seconds.
	tun.RemoteBackoffBase, tun.RemoteBackoffCap = 1<<30, 1<<30
	tun.FarBackoffBase, tun.FarBackoffCap = 16, 64
	l := New("HBO_HIER", r, tun)
	holder := r.RegisterThread(0)
	far := r.RegisterThread(2) // other cluster: distance 2

	l.Acquire(holder)
	done := make(chan struct{})
	go func() {
		l.Acquire(far)
		l.Release(far)
		close(done)
	}()
	time.Sleep(5 * time.Millisecond) // let the contender settle into its far schedule
	l.Release(holder)
	select {
	case <-done:
	case <-time.After(2 * time.Second):
		t.Fatal("cross-cluster contender still backing off: schedule followed 4x RemoteBackoff instead of FarBackoffBase/Cap")
	}
}
