package check

import (
	"strings"
	"testing"
	"time"

	"repro/internal/core"
)

// twinTestStress shrinks the native runs so the full registry sweep stays
// fast under -race.
func twinTestStress() TwinStress {
	return TwinStress{Threads: 4, Iters: 150, Timeout: 30 * time.Second}
}

// TestTwinsAllClean: both instantiations of every registered lock pass
// the correctness oracles, and neither shows a gross qualitative
// inversion against its own TATAS baseline.
func TestTwinsAllClean(t *testing.T) {
	results := CheckTwins(nil, 3, twinTestStress())
	for _, r := range results {
		t.Logf("%-10s sim(loc=%.2f burst=%d) core(loc=%.2f burst=%d)",
			r.Lock, r.SimLocality, r.SimMaxBurst, r.CoreLocality, r.CoreMaxBurst)
		if !r.Passed() {
			t.Errorf("%s: sim=%v core=%v divergences=%v",
				r.Lock, r.SimFailures, r.CoreFailures, r.Divergences)
		}
	}
	if len(results) != len(core.AllNames()) {
		t.Fatalf("compared %d twins, want %d", len(results), len(core.AllNames()))
	}
}

// TestCoreStressDetectsBrokenLock: the native-side oracles are not
// decorative — the atomicity-broken TATAS twin must produce a
// mutual-exclusion diagnosis (and stay race-detector clean doing it).
func TestCoreStressDetectsBrokenLock(t *testing.T) {
	rt := core.NewRuntime(2, 4)
	out := coreStress(NewBrokenCoreTATAS(), rt, twinTestStress())
	found := false
	for _, f := range out.failures {
		if strings.Contains(f, "mutual-exclusion") {
			found = true
		}
	}
	if !found {
		t.Fatalf("broken native TATAS not detected; failures = %v", out.failures)
	}
}
