package core

import (
	"sync"
	"testing"
	"time"
)

// angryTestTuning makes the GT_SD starvation detector fire after a few
// failed remote probes so tests reach the SD path quickly.
func angryTestTuning() Tuning {
	tun := DefaultTuning()
	tun.BackoffBase = 16
	tun.BackoffCap = 64
	tun.RemoteBackoffBase = 32
	tun.RemoteBackoffCap = 128
	tun.GetAngryLimit = 2
	return tun
}

// TestHBOQuiescentAfterStress: after all acquirers finish, the lock word
// is free and every per-node throttle word is back to zero — the
// native twin of simlock's TestHBOQuiescence.
func TestHBOQuiescentAfterStress(t *testing.T) {
	for _, name := range []string{"HBO", "HBO_GT", "HBO_GT_SD"} {
		name := name
		t.Run(name, func(t *testing.T) {
			const threads, iters = 8, 150
			r := NewRuntime(2, threads)
			l := New(name, r, angryTestTuning()).(specTimedTryI)
			var wg sync.WaitGroup
			counter := 0
			for i := 0; i < threads; i++ {
				th := r.RegisterThread(i % 2)
				wg.Add(1)
				go func() {
					defer wg.Done()
					for j := 0; j < iters; j++ {
						l.Acquire(th)
						counter++
						l.Release(th)
					}
				}()
			}
			wg.Wait()
			if counter != threads*iters {
				t.Fatalf("counter = %d, want %d", counter, threads*iters)
			}
			if err := l.Quiescent(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestHBOGTSDCorruptedOwnerSurvives: the native twin of simlock's
// TestHBOGTSDOwnerBoundsGuard — a lock word decoding to an out-of-range
// owner must not crash the starvation detector; the acquirer rides it
// out and completes once the word clears.
func TestHBOGTSDCorruptedOwnerSurvives(t *testing.T) {
	r := NewRuntime(2, 2)
	l := New("HBO_GT_SD", r, angryTestTuning()).(specTimedTryI)
	l.InjectWord(100) // node id + 1: owner 99 on a 2-node runtime

	th := r.RegisterThread(0)
	done := make(chan struct{})
	go func() {
		l.Acquire(th) // spins on the corrupted word, gets angry
		l.Release(th)
		close(done)
	}()
	time.Sleep(20 * time.Millisecond) // let several SD episodes fire
	l.InjectWord(0)                   // simulated recovery
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("acquirer never recovered from the corrupted lock word")
	}
	if err := l.Quiescent(); err != nil {
		t.Fatal(err)
	}
}
