package main

import (
	"math"
	"os"
	"path/filepath"
	"regexp"
	"runtime"
	"testing"
)

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

func smokeEnv(t *testing.T) *env {
	t.Helper()
	root, err := findRoot()
	if err != nil {
		t.Fatal(err)
	}
	spec, err := loadSpec(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	return &env{
		root: root, scratch: t.TempDir(), seed: 11, seconds: 0.5, smoke: true,
		w: min(runtime.GOMAXPROCS(0), 4), spec: spec,
	}
}

// TestBenchmarkJSON checks the contract file against the limits it is
// held to and against the workload table in this package.
func TestBenchmarkJSON(t *testing.T) {
	e := smokeEnv(t)
	s := e.spec
	if len(s.Paths) != 1 || s.Paths[0] != "benchmark" {
		t.Errorf("paths = %v, want [benchmark]", s.Paths)
	}
	if s.RunSeconds < 1 || s.RunSeconds > 60 {
		t.Errorf("run_seconds = %d", s.RunSeconds)
	}
	if len(s.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the program", len(s.Workloads), len(workloads))
	}
	seen := map[string]bool{}
	name := func(n string) {
		if !nameRE.MatchString(n) {
			t.Errorf("name %q does not match %s", n, nameRE)
		}
		if seen[n] {
			t.Errorf("name %q used twice", n)
		}
		seen[n] = true
	}
	for i, w := range s.Workloads {
		name(w.Name)
		if w.Name != workloads[i].name {
			t.Errorf("workload %d is %q in BENCHMARK.json, %q in the program", i, w.Name, workloads[i].name)
		}
		if len(w.Why) == 0 || len(w.Why) > 200 {
			t.Errorf("%s: why has %d characters", w.Name, len(w.Why))
		}
	}
	if len(s.EndToEnd) > 16 || len(s.PerLayer) > 128 {
		t.Errorf("%d end-to-end and %d per-layer metrics", len(s.EndToEnd), len(s.PerLayer))
	}
	setup := false
	for _, m := range s.EndToEnd {
		name(m.Name)
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %g", m.Name, m.Bound)
		}
		setup = setup || (m.Name == "setup_s" && m.Unit == "s" && m.Better == "lower")
	}
	if !setup {
		t.Error("no setup_s metric in s, lower")
	}
	for _, m := range append(append([]metricSpec{}, s.EndToEnd...), s.PerLayer...) {
		if !unitRE.MatchString(m.Unit) {
			t.Errorf("%s: unit %q", m.Name, m.Unit)
		}
		if m.Better != "lower" && m.Better != "higher" {
			t.Errorf("%s: better %q", m.Name, m.Better)
		}
	}
	for _, m := range s.PerLayer {
		name(m.Name)
	}
}

// checkMetrics requires every wanted metric to be present with a finite
// value and the unit BENCHMARK.json gives it. A map cannot hold a name
// twice, so present is also exactly once.
func checkMetrics(t *testing.T, rec *runRecord, want []metricSpec) {
	t.Helper()
	if !rec.Correct || rec.Failed != 0 {
		t.Errorf("%s: correct=%v failed=%d checks=%+v", rec.Workload, rec.Correct, rec.Failed, rec.Checks)
	}
	for _, m := range want {
		got, ok := rec.Metrics[m.Name]
		switch {
		case !ok:
			t.Errorf("%s: metric %s missing", rec.Workload, m.Name)
		case math.IsNaN(got.Value) || math.IsInf(got.Value, 0):
			t.Errorf("%s: metric %s = %v", rec.Workload, m.Name, got.Value)
		case got.Unit != m.Unit:
			t.Errorf("%s: metric %s has unit %q, BENCHMARK.json says %q", rec.Workload, m.Name, got.Unit, m.Unit)
		}
	}
	if _, missing := driverLine(rec, want); len(missing) > 0 {
		t.Errorf("%s: driver line lacks %v", rec.Workload, missing)
	}
}

// TestSmoke runs all five workloads and the traced walk at smoke scale.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the simulator and builds and starts hbolockd")
	}
	defer stopChildren()
	for i := range workloads {
		w := &workloads[i]
		t.Run(w.name, func(t *testing.T) {
			e := smokeEnv(t)
			rec, err := measure(e, w, false, "")
			if err != nil {
				t.Fatal(err)
			}
			checkMetrics(t, rec, e.spec.EndToEnd)
		})
	}
	t.Run("traced", func(t *testing.T) {
		e := smokeEnv(t)
		dir := t.TempDir()
		rec, err := measure(e, &workloads[0], true, dir)
		if err != nil {
			t.Fatal(err)
		}
		checkMetrics(t, rec, e.spec.PerLayer)
		for _, w := range workloads {
			st, err := os.Stat(filepath.Join(dir, w.name+".trace.json"))
			if err != nil || st.Size() == 0 {
				t.Errorf("no span file for %s: %v", w.name, err)
			}
		}
	})
}

// TestQuartilesMatchPython pins quartiles to statistics.quantiles(n=4),
// the spread the acceptance rule is stated in.
func TestQuartilesMatchPython(t *testing.T) {
	q1, q3 := quartiles([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10})
	if q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles(1..10) = %v, %v; python gives 2.75, 8.25", q1, q3)
	}
	q1, q3 = quartiles([]float64{3, 1, 2})
	if q1 != 1 || q3 != 3 {
		t.Errorf("quartiles(1..3) = %v, %v; python gives 1, 3", q1, q3)
	}
}
