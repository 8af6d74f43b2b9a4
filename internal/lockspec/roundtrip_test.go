// Package lockspec_test checks the registry from outside: every
// algorithm must instantiate in both stacks, and the sim and native
// instantiations of a spec must report identical algorithm metadata —
// name and capability surface. This is the test-level twin of the CI
// drift guard: an instantiation layer that drops or invents a
// capability in one stack fails here.
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
// both stacks and asserts the two instantiations agree with the
// registry: same name, a quiescence probe on both sides, and the Timed /
// Try / Inject capabilities surfacing exactly when the spec declares
// them.
func TestSpecRoundTripMetadata(t *testing.T) {
	m, cpus, r := testTopology()
	for _, s := range lockspec.All() {
		s := s
		t.Run(s.Name, func(t *testing.T) {
			sl := simlock.New(s.Name, m, 0, cpus, simlock.DefaultTuning())
			if sl.Name() != s.Name {
				t.Errorf("sim Name() = %q", sl.Name())
			}
			if _, simTimed := sl.(simlock.TimedLock); simTimed != s.Timed {
				t.Errorf("sim TimedLock = %v, registry Timed = %v", simTimed, s.Timed)
			}
			if _, ok := sl.(simlock.Quiescer); !ok {
				t.Error("sim lock is not a Quiescer")
			}
			if _, simInj := sl.(simlock.WordInjector); simInj != (s.Inject != nil) {
				t.Errorf("sim WordInjector = %v, spec Inject = %v", simInj, s.Inject != nil)
			}

			nl := core.New(s.Name, r, core.DefaultTuning())
			if nl.Name() != s.Name {
				t.Errorf("native Name() = %q", nl.Name())
			}
			if _, natTimed := nl.(core.TimedLock); natTimed != s.Timed {
				t.Errorf("native TimedLock = %v, registry Timed = %v", natTimed, s.Timed)
			}
			if _, natTry := nl.(core.TryLocker); natTry != s.Try {
				t.Errorf("native TryLocker = %v, registry Try = %v", natTry, s.Try)
			}
			if _, ok := nl.(interface{ Quiescent() error }); !ok {
				t.Error("native lock has no Quiescent probe")
			}
			if _, natInj := nl.(interface{ InjectWord(uint64) }); natInj != (s.Inject != nil) {
				t.Errorf("native InjectWord = %v, spec Inject = %v", natInj, s.Inject != nil)
			}
		})
	}
}

// TestNameListsAgreeAcrossStacks pins that every name list both stacks
// expose is the registry's.
func TestNameListsAgreeAcrossStacks(t *testing.T) {
	same := func(what string, got, want []string) {
		if len(got) != len(want) {
			t.Fatalf("%s: %v, registry %v", what, got, want)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("%s diverges from the registry at %d: %q vs %q", what, i, got[i], want[i])
			}
		}
	}
	same("simlock.Names", simlock.Names(), lockspec.PaperNames())
	same("core.Names", core.Names(), lockspec.PaperNames())
	same("simlock.AllNames", simlock.AllNames(), lockspec.AllNames())
	same("core.AllNames", core.AllNames(), lockspec.AllNames())
	same("simlock.TimedNames", simlock.TimedNames(), lockspec.TimedNames())
	same("core.TimedNames", core.TimedNames(), lockspec.TimedNames())
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
		if s.Acquire == nil || s.Release == nil || s.Quiesce == nil {
			t.Errorf("%s: Acquire, Release and Quiesce are all required", s.Name)
		}
		if s.Try != (s.TryBody != nil) {
			t.Errorf("%s: Try flag %v but TryBody present = %v", s.Name, s.Try, s.TryBody != nil)
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
