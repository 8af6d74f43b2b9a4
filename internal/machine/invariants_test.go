package machine

import (
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/sim"
)

// TestCoherenceInvariantsUnderRandomOps drives random loads, stores and
// RMWs from every CPU, then validates the directory and that each
// word's final value equals the last completed write (tracked by
// shadowing every mutation through the same serialized order the
// machine applies).
func TestCoherenceInvariantsUnderRandomOps(t *testing.T) {
	type scenario struct {
		Seed  uint64
		Words uint8
		Ops   uint8
	}
	f := func(sc scenario) bool {
		cfg := WildFire()
		cfg.CPUsPerNode = 4
		cfg.Seed = sc.Seed
		cfg.Probes = true
		cfg.TieBreakSeed = sc.Seed * 3
		m := New(cfg)
		words := int(sc.Words%6) + 1
		addrs := make([]Addr, words)
		for i := range addrs {
			addrs[i] = m.Alloc(i%cfg.Nodes, 1)
		}
		ops := int(sc.Ops%40) + 10
		// Shadow counters: every op that writes adds a known delta, so
		// the final value must equal the sum of applied deltas.
		expect := make([]uint64, words)
		for cpu := 0; cpu < 8; cpu++ {
			cpu := cpu
			m.Spawn(cpu, func(p *Proc) {
				rng := sim.NewRNG(sc.Seed*31 + uint64(cpu) + 1)
				for i := 0; i < ops; i++ {
					w := rng.Intn(words)
					a := addrs[w]
					switch rng.Intn(4) {
					case 0:
						p.Load(a)
					case 1:
						// Atomic add via CAS retry: a known delta.
						for {
							v := p.Load(a)
							if p.CAS(a, v, v+3) == v {
								break
							}
						}
						expect[w] += 3
					case 2:
						for {
							v := p.Load(a)
							if p.CAS(a, v, v+7) == v {
								break
							}
						}
						expect[w] += 7
					case 3:
						p.Work(rng.Timen(500) + 1)
					}
				}
			})
		}
		m.Run()
		if err := m.CheckInvariants(); err != nil {
			t.Log(err)
			return false
		}
		for w := range addrs {
			if m.Peek(addrs[w]) != expect[w] {
				t.Logf("word %d: final %d, expect %d", w, m.Peek(addrs[w]), expect[w])
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// TestCheckInvariantsDetectsCorruption corrupts the directory in each of
// the ways CheckInvariants guards against and verifies each is reported.
func TestCheckInvariantsDetectsCorruption(t *testing.T) {
	build := func() (*Machine, Addr) {
		m := New(func() Config { c := WildFire(); c.CPUsPerNode = 2; return c }())
		a := m.Alloc(0, 1)
		m.Spawn(0, func(p *Proc) { p.Store(a, 1) })
		m.Run()
		return m, a
	}
	cases := []struct {
		name    string
		corrupt func(m *Machine, a Addr)
		want    string
	}{
		{"modified-with-sharers", func(m *Machine, a Addr) {
			m.lineOf(a).sharers.add(1)
		}, "Modified with sharers"},
		{"owner-out-of-range", func(m *Machine, a Addr) {
			m.lineOf(a).owner = 999
		}, "owner 999 out of range"},
		{"shared-without-sharers", func(m *Machine, a Addr) {
			m.lineOf(a).state = stateShared
		}, "Shared with no sharers"},
		{"uncached-with-sharers", func(m *Machine, a Addr) {
			l := m.lineOf(a)
			l.state = stateUncached
			l.sharers.add(0)
		}, "Uncached with sharers"},
		{"attribution-drift", func(m *Machine, a Addr) {
			m.cold[m.lineOf(a).cold].traf.local++
		}, "local traffic"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			m, a := build()
			if err := m.CheckInvariants(); err != nil {
				t.Fatalf("clean machine failed: %v", err)
			}
			tc.corrupt(m, a)
			err := m.CheckInvariants()
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("corruption %s not detected: err = %v", tc.name, err)
			}
		})
	}
}

// TestProbesLatchViolationMidRun: with Probes on, a mid-run directory
// corruption is caught at the next access completion, not just at the
// end-of-run sweep.
func TestProbesLatchViolationMidRun(t *testing.T) {
	cfg := WildFire()
	cfg.CPUsPerNode = 2
	cfg.Probes = true
	m := New(cfg)
	a := m.Alloc(0, 1)
	m.Spawn(0, func(p *Proc) {
		p.Store(a, 1)
		m.lineOf(a).sharers.add(1) // corrupt: Modified line gains a sharer
		p.Load(a)
	})
	m.Run()
	if m.ProbeError() == nil {
		t.Fatal("probes missed a Modified-with-sharers corruption")
	}
}

// TestConservationHoldsAfterReset: ResetStats zeroes both sides of the
// attribution ledger, so conservation holds across a warmup reset.
func TestConservationHoldsAfterReset(t *testing.T) {
	cfg := WildFire()
	cfg.CPUsPerNode = 2
	m := New(cfg)
	a := m.Alloc(0, 1)
	b := m.Alloc(1, 1)
	m.Spawn(0, func(p *Proc) {
		for i := 0; i < 5; i++ {
			p.Store(a, uint64(i))
			p.Load(b)
		}
	})
	m.Spawn(2, func(p *Proc) {
		for i := 0; i < 5; i++ {
			p.Store(b, uint64(i))
			p.Load(a)
		}
	})
	m.Run()
	if err := m.CheckConservation(); err != nil {
		t.Fatal(err)
	}
	m.ResetStats()
	if err := m.CheckConservation(); err != nil {
		t.Fatalf("after ResetStats: %v", err)
	}
}

// TestSwapSerializesTotalOrder: concurrent Swaps on one word observe a
// chain — each return value was some other op's written value (or the
// initial), and all writes are distinct, so the multiset of (returned +
// final) values equals (initial + all written).
func TestSwapSerializesTotalOrder(t *testing.T) {
	m := New(func() Config { c := WildFire(); c.CPUsPerNode = 4; c.Seed = 5; return c }())
	a := m.Alloc(0, 1)
	const perCPU = 30
	seen := map[uint64]int{}
	for cpu := 0; cpu < 8; cpu++ {
		cpu := cpu
		m.Spawn(cpu, func(p *Proc) {
			rng := sim.NewRNG(uint64(cpu) + 99)
			for i := 0; i < perCPU; i++ {
				v := uint64(cpu*1000 + i + 1)
				old := p.Swap(a, v)
				seen[old]++
				p.Work(rng.Timen(800) + 1)
			}
		})
	}
	m.Run()
	seen[m.Peek(a)]++
	// Every written value plus the initial zero must appear exactly once.
	if seen[0] != 1 {
		t.Fatalf("initial value observed %d times", seen[0])
	}
	for cpu := 0; cpu < 8; cpu++ {
		for i := 0; i < perCPU; i++ {
			v := uint64(cpu*1000 + i + 1)
			if seen[v] != 1 {
				t.Fatalf("value %d observed %d times (swap chain broken)", v, seen[v])
			}
		}
	}
}
