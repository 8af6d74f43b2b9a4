// Package lockspec_test checks the registry from outside: every
// algorithm must instantiate in both stacks (or be flagged SimOnly),
// and the sim and native instantiations of a spec must report identical
// algorithm metadata — name and capability surface. This is the
// test-level twin of the CI drift guard: an algorithm registered in one
// stack only, or exposing a capability in one stack only, fails here.
package lockspec_test

import (
	"os"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/lockspec"
	"repro/internal/machine"
	"repro/internal/simlock"
)

func testTopology() (*machine.Machine, []int, *core.Runtime) {
	cfg := machine.WildFire()
	cfg.CPUsPerNode = 2
	cfg.Seed = 1
	m := machine.New(cfg)
	cpus := []int{0, 1, 2, 3} // round-robin over the two nodes
	for t := range cpus {
		cpus[t] = (t%2)*cfg.CPUsPerNode + t/2
	}
	return m, cpus, core.NewRuntime(2, 4)
}

// TestSpecRoundTripMetadata instantiates every registered algorithm in
// both stacks and asserts the two twins agree with the registry: same
// name, and the Timed / Try / Quiesce / Inject capabilities surface on
// both sides exactly when the spec declares them.
func TestSpecRoundTripMetadata(t *testing.T) {
	m, cpus, r := testTopology()
	for _, s := range lockspec.All() {
		s := s
		t.Run(s.Name, func(t *testing.T) {
			sl := simlock.New(s.Name, m, 0, cpus, simlock.DefaultTuning())
			if sl.Name() != s.Name {
				t.Errorf("sim Name() = %q", sl.Name())
			}
			_, simTimed := sl.(simlock.TimedLock)
			if simTimed != s.Timed {
				t.Errorf("sim TimedLock = %v, registry Timed = %v", simTimed, s.Timed)
			}
			if s.Backed() {
				_, simQ := sl.(simlock.Quiescer)
				if simQ != (s.Quiesce != nil) {
					t.Errorf("sim Quiescer = %v, spec Quiesce = %v", simQ, s.Quiesce != nil)
				}
				_, simInj := sl.(simlock.WordInjector)
				if simInj != (s.Inject != nil) {
					t.Errorf("sim WordInjector = %v, spec Inject = %v", simInj, s.Inject != nil)
				}
			}

			if s.SimOnly {
				return
			}
			nl := core.New(s.Name, r, core.DefaultTuning())
			if nl.Name() != s.Name {
				t.Errorf("native Name() = %q", nl.Name())
			}
			_, natTimed := nl.(core.TimedLock)
			if natTimed != s.Timed {
				t.Errorf("native TimedLock = %v, registry Timed = %v", natTimed, s.Timed)
			}
			_, natTry := nl.(core.TryLocker)
			if natTry != s.Try {
				t.Errorf("native TryLocker = %v, registry Try = %v", natTry, s.Try)
			}
			if s.Backed() {
				_, natQ := nl.(interface{ Quiescent() error })
				if natQ != (s.Quiesce != nil) {
					t.Errorf("native Quiescent = %v, spec Quiesce = %v", natQ, s.Quiesce != nil)
				}
				_, natInj := nl.(interface{ InjectWord(uint64) })
				if natInj != (s.Inject != nil) {
					t.Errorf("native InjectWord = %v, spec Inject = %v", natInj, s.Inject != nil)
				}
			}
		})
	}
}

// TestNameListsAgreeAcrossStacks pins that every name list both stacks
// and the facade expose derives from the one registry.
func TestNameListsAgreeAcrossStacks(t *testing.T) {
	if got, want := len(simlock.AllNames()), len(lockspec.AllNames(true)); got != want {
		t.Errorf("simlock.AllNames: %d names, registry %d", got, want)
	}
	if got, want := len(core.AllNames()), len(lockspec.AllNames(false)); got != want {
		t.Errorf("core.AllNames: %d names, registry %d", got, want)
	}
	for i, n := range core.Names() {
		if simlock.Names()[i] != n {
			t.Fatalf("paper name order diverges at %d: core %q vs sim %q",
				i, n, simlock.Names()[i])
		}
	}
	// The native list is the sim list minus simulator-only protocols.
	simOnly := map[string]bool{}
	for _, s := range lockspec.All() {
		if s.SimOnly {
			simOnly[s.Name] = true
		}
	}
	var fromSim []string
	for _, n := range simlock.AllNames() {
		if !simOnly[n] {
			fromSim = append(fromSim, n)
		}
	}
	native := core.AllNames()
	if len(fromSim) != len(native) {
		t.Fatalf("native %v vs sim-derived %v", native, fromSim)
	}
	for i := range native {
		if native[i] != fromSim[i] {
			t.Fatalf("name lists diverge at %d: %q vs %q", i, native[i], fromSim[i])
		}
	}
}

// TestREADMETableMatchesRegistry pins the README's lock table to the
// registry rendering: adding or changing an algorithm fails this test
// until the committed table is regenerated (lockspec.MarkdownTable).
func TestREADMETableMatchesRegistry(t *testing.T) {
	readme, err := os.ReadFile("../../README.md")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(readme), lockspec.MarkdownTable()) {
		t.Fatal("README.md lock table does not match lockspec.MarkdownTable(); " +
			"regenerate the table from the registry")
	}
}

// TestRegistryWellFormed sanity-checks the registry itself.
func TestRegistryWellFormed(t *testing.T) {
	seen := map[string]bool{}
	for _, s := range lockspec.All() {
		if s.Name == "" || seen[s.Name] {
			t.Fatalf("registry entry %q empty or duplicated", s.Name)
		}
		seen[s.Name] = true
		if s.Doc == "" {
			t.Errorf("%s: missing Doc line (README table renders it)", s.Name)
		}
		if s.Backed() && s.Release == nil {
			t.Errorf("%s: Acquire without Release", s.Name)
		}
		if s.Inject != nil && s.Quiesce == nil {
			t.Errorf("%s: Inject without Quiesce (harness cannot verify recovery)", s.Name)
		}
	}
	if len(lockspec.PaperNames()) != 8 {
		t.Fatalf("paper names = %v", lockspec.PaperNames())
	}
}

// TestUncontendedPairAllocatesNothing guards the instantiation layer's
// fast path in both stacks: once a thread has used a lock, an
// uncontended Acquire+Release must not touch the heap — the pooled
// per-thread environments exist for exactly this.
func TestUncontendedPairAllocatesNothing(t *testing.T) {
	for _, s := range lockspec.All() {
		s := s
		t.Run(s.Name, func(t *testing.T) {
			m, cpus, r := testTopology()
			sl := simlock.New(s.Name, m, 0, cpus, simlock.DefaultTuning())
			m.Spawn(cpus[0], func(p *machine.Proc) {
				pair := func() { sl.Acquire(p, 0); sl.Release(p, 0) }
				pair()
				if n := testing.AllocsPerRun(100, pair); n != 0 {
					t.Errorf("sim: %v allocs per uncontended pair", n)
				}
			})
			m.Run()

			if s.SimOnly {
				return
			}
			nl := core.New(s.Name, r, core.DefaultTuning())
			th := r.RegisterThread(0)
			pair := func() { nl.Acquire(th); nl.Release(th) }
			pair()
			if n := testing.AllocsPerRun(100, pair); n != 0 {
				t.Errorf("native: %v allocs per uncontended pair", n)
			}
		})
	}
}
