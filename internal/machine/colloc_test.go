package machine

import (
	"testing"

	"repro/internal/sim"
)

// wideLines returns a machine with 4 words per cache line.
func wideLines() *Machine {
	cfg := Config{
		Nodes:        2,
		CPUsPerNode:  4,
		WordsPerLine: 4,
		Lat: Latencies{
			LoadHit:    10,
			StoreOwned: 50,
			Upgrade:    200,
			C2CLocal:   500,
			C2CRemote:  2000,
			MemLocal:   300,
			MemRemote:  1500,
		},
		Seed: 1,
	}
	return New(cfg)
}

// TestCollocationOneMissFetchesNeighbors: words allocated together on
// one line arrive together — the QOLB collocation effect.
func TestCollocationOneMissFetchesNeighbors(t *testing.T) {
	m := wideLines()
	a := m.Alloc(0, 4) // one line: lock word + 3 data words
	var first, rest sim.Time
	m.Spawn(0, func(p *Proc) {
		t0 := p.Now()
		p.Load(a) // miss fetches the whole line
		first = p.Now() - t0
		t1 := p.Now()
		p.Load(a + 1)
		p.Load(a + 2)
		p.Load(a + 3)
		rest = p.Now() - t1
	})
	m.Run()
	if first != 300 {
		t.Fatalf("first load = %v, want a 300ns memory fetch", first)
	}
	if rest != 30 {
		t.Fatalf("neighbor loads = %v, want 3 hits (30)", rest)
	}
}

// TestLineAlignmentSeparatesAllocations: two Allocs never share a line,
// so independent variables cannot false-share by accident.
func TestLineAlignmentSeparatesAllocations(t *testing.T) {
	m := wideLines()
	a := m.Alloc(0, 1) // occupies one word, pads to the line
	b := m.Alloc(0, 1)
	if m.lineOf(a) == m.lineOf(b) {
		t.Fatal("separate allocations share a cache line")
	}
	if int(b-a) != 4 {
		t.Fatalf("allocation not line-aligned: a=%d b=%d", a, b)
	}
}

// TestFalseSharingWithinOneAlloc: words deliberately placed on one line
// invalidate each other's readers.
func TestFalseSharingWithinOneAlloc(t *testing.T) {
	m := wideLines()
	a := m.Alloc(0, 2) // same line
	var rereadCost sim.Time
	m.Spawn(0, func(p *Proc) {
		p.Load(a) // cache the line
		p.Work(5000)
		t0 := p.Now()
		p.Load(a) // neighbor's write to a+1 invalidated us
		rereadCost = p.Now() - t0
	})
	m.Spawn(4, func(p *Proc) {
		p.Work(1000)
		p.Store(a+1, 9) // writes the *other* word on the line
	})
	m.Run()
	if rereadCost < 500 {
		t.Fatalf("re-read cost %v; false sharing not modeled", rereadCost)
	}
}

// TestCollocatedLockHandover: with data on the lock's line, the lock
// transfer carries the data — the handover needs one line transfer
// instead of three.
func TestCollocatedLockHandover(t *testing.T) {
	handover := func(collocated bool) sim.Time {
		m := wideLines()
		var lock, data Addr
		if collocated {
			region := m.Alloc(0, 3)
			lock, data = region, region+1
		} else {
			lock = m.Alloc(0, 1)
			data = m.Alloc(0, 2)
		}
		// CPU 1 (same node) takes lock and data dirty; CPU 0 then
		// acquires and touches the data.
		var cost sim.Time
		m.Spawn(1, func(p *Proc) {
			p.TAS(lock)
			p.Store(data, 1)
			p.Store(data+1, 2)
			p.Store(lock, 0)
		})
		m.Spawn(0, func(p *Proc) {
			p.Work(20000)
			t0 := p.Now()
			for p.TAS(lock) != 0 {
				p.SpinUntilZero(lock)
			}
			p.Store(data, p.Load(data)+1)
			p.Store(data+1, p.Load(data+1)+1)
			p.Store(lock, 0)
			cost = p.Now() - t0
		})
		m.Run()
		return cost
	}
	apart := handover(false)
	together := handover(true)
	if together >= apart {
		t.Fatalf("collocated handover %v not below separate %v", together, apart)
	}
}

// TestWordsPerLineDefault: zero config behaves as one word per line.
func TestWordsPerLineDefault(t *testing.T) {
	m := small()
	a := m.Alloc(0, 2)
	if m.lineOf(a) == m.lineOf(a+1) {
		t.Fatal("default machine should isolate words")
	}
}
