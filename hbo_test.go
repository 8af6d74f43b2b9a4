package hbo_test

import (
	"sync"
	"testing"

	hbo "repro"
)

func TestAlgorithmNames(t *testing.T) {
	names := hbo.AlgorithmNames()
	if len(names) != 8 {
		t.Fatalf("got %d algorithms, want 8", len(names))
	}
	if names[0] != hbo.TATAS || names[7] != hbo.HBOGTSD {
		t.Fatalf("order wrong: %v", names)
	}
}

func TestNUCAAware(t *testing.T) {
	if hbo.TATAS.NUCAAware() || hbo.MCS.NUCAAware() {
		t.Error("TATAS/MCS are not NUCA-aware")
	}
	if !hbo.HBO.NUCAAware() || !hbo.RH.NUCAAware() {
		t.Error("HBO/RH are NUCA-aware")
	}
}

func TestPublicAPIEndToEnd(t *testing.T) {
	for _, a := range hbo.AlgorithmNames() {
		a := a
		t.Run(string(a), func(t *testing.T) {
			rt := hbo.NewRuntime(2, 8)
			l := hbo.NewLock(a, rt)
			if l.Name() != string(a) {
				t.Fatalf("Name = %q", l.Name())
			}
			counter := 0
			var wg sync.WaitGroup
			for w := 0; w < 8; w++ {
				wg.Add(1)
				go func(node int) {
					defer wg.Done()
					th := rt.RegisterThread(node)
					for i := 0; i < 300; i++ {
						l.Acquire(th)
						counter++
						l.Release(th)
					}
				}(w % 2)
			}
			wg.Wait()
			if counter != 8*300 {
				t.Fatalf("counter = %d (mutual exclusion broken)", counter)
			}
		})
	}
}

func TestLockerWithSyncCond(t *testing.T) {
	rt := hbo.NewRuntime(1, 2)
	l := hbo.NewLock(hbo.HBOGTSD, rt)
	lk := hbo.Locker{L: l, T: rt.RegisterThread(0)}
	var mu sync.Locker = lk
	mu.Lock()
	mu.Unlock()
}

func TestNewLockTuned(t *testing.T) {
	rt := hbo.NewRuntime(2, 2)
	tun := hbo.DefaultTuning()
	tun.GetAngryLimit = 4
	l := hbo.NewLockTuned(hbo.HBOGTSD, rt, tun)
	th := rt.RegisterThread(0)
	l.Acquire(th)
	l.Release(th)
}

func TestExtendedAlgorithmsPublic(t *testing.T) {
	ext := hbo.ExtendedAlgorithmNames()
	if len(ext) != 8 {
		t.Fatalf("extensions = %v", ext)
	}
	if len(hbo.AllAlgorithmNames()) != 16 {
		t.Fatalf("AllAlgorithmNames = %v", hbo.AllAlgorithmNames())
	}
	if !hbo.Cohort.NUCAAware() || !hbo.CNA.NUCAAware() || !hbo.HMCST.NUCAAware() ||
		hbo.Ticket.NUCAAware() {
		t.Error("NUCA-awareness of extensions wrong")
	}
	for _, a := range ext {
		a := a
		t.Run(string(a), func(t *testing.T) {
			rt := hbo.NewRuntimeHierarchical(4, 2, 8)
			l := hbo.NewLock(a, rt)
			counter := 0
			var wg sync.WaitGroup
			for w := 0; w < 8; w++ {
				wg.Add(1)
				go func(node int) {
					defer wg.Done()
					th := rt.RegisterThread(node)
					for i := 0; i < 200; i++ {
						l.Acquire(th)
						counter++
						l.Release(th)
					}
				}(w % 4)
			}
			wg.Wait()
			if counter != 1600 {
				t.Fatalf("counter = %d", counter)
			}
		})
	}
}

func TestTryLockerPublic(t *testing.T) {
	rt := hbo.NewRuntime(2, 2)
	l := hbo.NewLock(hbo.HBOGTSD, rt)
	tl, ok := l.(hbo.TryLocker)
	if !ok {
		t.Fatal("HBO_GT_SD should offer TryAcquire")
	}
	th := rt.RegisterThread(0)
	if !tl.TryAcquire(th) {
		t.Fatal("try on free lock failed")
	}
	tl.Release(th)
	if _, ok := hbo.NewLock(hbo.CLH, rt).(hbo.TryLocker); ok {
		t.Fatal("CLH should not offer TryAcquire")
	}
}
