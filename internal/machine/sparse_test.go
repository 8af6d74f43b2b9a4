package machine

import (
	"reflect"
	"strings"
	"testing"
)

// sparseMachine declares 1000 one-word lines at 2 words per line and
// runs a program that accesses seven of them: a cross-node ping-pong, a
// waiter parked on a line until its third write, a node-local line, and
// a line whose owner was seeded. A Poke and a SeedOwner also land on
// lines no processor ever accesses.
func sparseMachine() (m *Machine, base Addr) {
	cfg := WildFire()
	cfg.CPUsPerNode = 2
	cfg.WordsPerLine = 2
	cfg.Seed = 5
	m = New(cfg)
	m.Alloc(1, 3) // two lines ahead of the population
	base = m.AllocLines(1000, func(i int) int { return i % 2 })
	at := func(i int) Addr { return base + Addr(2*i) }
	m.LabelRange(at(100), 2*8, "hot")
	m.Label(at(700), "seeded")
	m.Poke(at(900), 77)
	m.SeedOwner(at(901), 3, 78)
	m.SeedOwner(at(700), 1, 5)
	for _, cpu := range []int{0, 2} {
		cpu := cpu
		m.Spawn(cpu, func(p *Proc) {
			for i := 0; i < 10; i++ {
				p.Store(at(100), uint64(cpu))
				p.Load(at(101 + cpu))
				p.Work(500)
			}
		})
	}
	m.Spawn(1, func(p *Proc) {
		p.SpinUntil(at(104), func(v uint64) bool { return v == 3 })
		p.Store(at(105), p.Load(at(700)))
	})
	m.Spawn(3, func(p *Proc) {
		for v := uint64(1); v <= 3; v++ {
			p.Work(3000)
			p.Store(at(104), v)
		}
		p.CAS(at(107), 0, 9)
	})
	m.Run()
	return m, base
}

// TestSparseMachineMatchesDenseDirectory pins what the directory with
// one full-size entry per line returned (commit c15b995, the population
// declared by 1000 Alloc calls) for a machine where 99 % of lines are
// never accessed: the walks over touched lines only must not lose a
// line, reorder one or change a counter.
func TestSparseMachineMatchesDenseDirectory(t *testing.T) {
	m, base := sparseMachine()
	if got := len(m.cold) - 1; got != 8 {
		t.Errorf("%d of %d lines have a cold part, want 8", got, len(m.lines))
	}
	if err := m.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if err := m.CheckConservation(); err != nil {
		t.Fatal(err)
	}
	if m.Peek(base+2*900) != 77 || m.Peek(base+2*901) != 78 || m.Peek(base+2*105) != 5 {
		t.Error("Poke, SeedOwner or the seeded value was lost")
	}
	if got, want := m.Stats(), (Stats{Local: wantSparseLocal, Global: wantSparseGlobal}); !reflect.DeepEqual(got, want) {
		t.Errorf("Stats = %+v, want %+v", got, want)
	}
	if got := m.LineStats(); !reflect.DeepEqual(got, wantSparseLines) {
		t.Errorf("LineStats =\n%#v\nwant\n%#v", got, wantSparseLines)
	}
	if got := m.HotLines(3); !reflect.DeepEqual(got, wantSparseHot) {
		t.Errorf("HotLines(3) =\n%#v\nwant\n%#v", got, wantSparseHot)
	}
	m.ResetStats()
	if ls := m.LineStats(); len(ls) != 0 {
		t.Errorf("LineStats after ResetStats = %+v", ls)
	}
	if err := m.CheckInvariants(); err != nil {
		t.Fatalf("after ResetStats: %v", err)
	}
}

// TestSparseMachineReportsCorruptSeedAndParkedWaiter: the two ways an
// otherwise untouched line can be wrong are still found, under the line
// numbers the dense directory reported.
func TestSparseMachineReportsCorruptSeedAndParkedWaiter(t *testing.T) {
	m, base := sparseMachine()
	m.SeedOwner(base+2*950, 999, 1)
	if err := m.CheckInvariants(); err == nil || !strings.Contains(err.Error(), "line 953: Modified with owner 999 out of range") {
		t.Errorf("seeded owner out of range: err = %v", err)
	}

	cfg := WildFire()
	cfg.WordsPerLine = 2
	m = New(cfg)
	base = m.AllocLines(1000, func(int) int { return 0 })
	m.Spawn(0, func(p *Proc) { p.SpinUntil(base+2*500, func(v uint64) bool { return v != 0 }) })
	m.Run()
	if err := m.CheckInvariants(); err == nil || !strings.Contains(err.Error(), "line 501: 1 waiters left parked") {
		t.Errorf("parked waiter: err = %v", err)
	}
}

// TestReleaseZeroesTheArena: a released arena reaches the next machine
// all zero, and the released machine refuses further use.
func TestReleaseZeroesTheArena(t *testing.T) {
	m, base := sparseMachine()
	m.Release()
	m.Release() // a second one must not hand the pool an empty arena
	func() {
		defer func() {
			if recover() == nil {
				t.Error("Peek on a released machine did not panic")
			}
		}()
		m.Peek(base)
	}()
	for i := 0; i < 4; i++ { // whichever arena the pool hands out
		n := wideLines()
		ref := newRefArena(n)
		home := func(int) int { return 1 }
		n.AllocLines(1200, home)
		ref.allocLines(1200, home)
		ref.check(t, n)
	}
}

var (
	wantSparseLocal  = []uint64{14, 13}
	wantSparseGlobal = uint64(12)
	wantSparseLines  = []LineStats{
		{Addr: 206, Home: 0, Label: "hot", Misses: 6, Transfers: 4, Local: 11, Global: 5},
		{Addr: 208, Home: 1, Label: "hot", Misses: 1, Local: 2, Global: 1},
		{Addr: 212, Home: 1, Label: "hot", Misses: 1, Local: 1},
		{Addr: 214, Home: 0, Label: "hot", Misses: 5, Invalidations: 2, Transfers: 2, Local: 10, Global: 5},
		{Addr: 216, Home: 1, Label: "hot", Misses: 1, Local: 2, Global: 1},
		{Addr: 220, Home: 1, Label: "hot", Misses: 1, Local: 1},
	}
	wantSparseHot = []LineStats{wantSparseLines[0], wantSparseLines[3], wantSparseLines[1]}
)
