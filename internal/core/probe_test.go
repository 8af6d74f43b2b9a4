package core

import (
	"sync/atomic"
	"testing"
	"time"
)

// countProbe records probe events; counters are atomic because probes
// fire from the contending goroutine.
type countProbe struct {
	contended atomic.Int64
	spunCalls atomic.Int64
	spins     atomic.Int64
	badN      atomic.Int64
}

func (p *countProbe) Contended(t *Thread) { p.contended.Add(1) }

func (p *countProbe) Spun(t *Thread, n int64) {
	if n <= 0 {
		p.badN.Add(1)
	}
	p.spunCalls.Add(1)
	p.spins.Add(n)
}

// TestProbeFiresOnContention verifies the Probe contract for every lock:
// uncontended acquires never touch the probe, and an acquire that waits
// behind a holder reports Contended and positive spin work.
func TestProbeFiresOnContention(t *testing.T) {
	for _, name := range AllNames() {
		t.Run(name, func(t *testing.T) {
			rt := NewRuntimeHierarchical(2, 1, 4)
			l := New(name, rt, DefaultTuning())
			p := &countProbe{}
			pr, ok := l.(Probed)
			if !ok {
				t.Fatalf("%s does not implement Probed", name)
			}
			pr.SetProbe(p)
			t0 := rt.RegisterThread(0)
			t1 := rt.RegisterThread(1)

			for i := 0; i < 3; i++ {
				l.Acquire(t0)
				l.Release(t0)
			}
			if c, s := p.contended.Load(), p.spunCalls.Load(); c != 0 || s != 0 {
				t.Fatalf("probe fired on uncontended path: contended=%d spun=%d", c, s)
			}

			l.Acquire(t0)
			done := make(chan struct{})
			go func() {
				defer close(done)
				l.Acquire(t1)
				l.Release(t1)
			}()
			// Wait until the contender reaches its wait loop, then let it
			// spin a little before handing over.
			deadline := time.Now().Add(10 * time.Second)
			for p.contended.Load() == 0 && time.Now().Before(deadline) {
				time.Sleep(time.Millisecond)
			}
			time.Sleep(10 * time.Millisecond)
			l.Release(t0)
			<-done

			if p.contended.Load() == 0 {
				t.Fatal("contended acquire reported no Contended event")
			}
			if p.spunCalls.Load() == 0 || p.spins.Load() <= 0 {
				t.Fatalf("contended acquire reported no spin work: calls=%d spins=%d",
					p.spunCalls.Load(), p.spins.Load())
			}
			if p.badN.Load() != 0 {
				t.Fatalf("Spun fired with n <= 0 (%d times)", p.badN.Load())
			}
		})
	}
}

// TestProbeRemovable checks SetProbe(nil) detaches cleanly.
func TestProbeRemovable(t *testing.T) {
	rt := NewRuntime(1, 2)
	l := New("TATAS", rt, DefaultTuning())
	p := &countProbe{}
	l.(Probed).SetProbe(p)
	l.(Probed).SetProbe(nil)
	t0 := rt.RegisterThread(0)
	l.Acquire(t0)
	l.Release(t0)
	if p.contended.Load() != 0 {
		t.Fatal("detached probe still fired")
	}
}
