package experiments

import (
	"bytes"
	"errors"
	"runtime"
	"testing"

	"repro/internal/machine"
	"repro/internal/microbench"
	"repro/internal/par"
	"repro/internal/simlock"
)

// TestParallelMatchesSequential runs every experiment with a sequential
// runner and an 8-wide worker pool and requires byte-identical rendered
// tables: parallelism must never change results, only wall-clock.
func TestParallelMatchesSequential(t *testing.T) {
	if testing.Short() {
		t.Skip("parallel determinism sweep is not short")
	}
	seq := quick()
	par := quick()
	par.Parallel = 8
	for _, e := range All() {
		e := e
		t.Run(e.ID, func(t *testing.T) {
			a := e.Run(seq)
			b := e.Run(par)
			if len(a) != len(b) {
				t.Fatalf("table count %d (sequential) vs %d (parallel)", len(a), len(b))
			}
			for i := range a {
				sa, sb := a[i].String(), b[i].String()
				if sa != sb {
					t.Errorf("table %d diverges under -parallel 8:\n--- sequential ---\n%s\n--- parallel ---\n%s", i, sa, sb)
				}
			}
		})
	}
}

// TestMicroReportParallelByteIdentical is the JSON-report half of the
// determinism contract: hbo-run-report/v1 bytes must not depend on the
// worker-pool width.
func TestMicroReportParallelByteIdentical(t *testing.T) {
	seq := quick()
	par := quick()
	par.Parallel = 8
	var a, b bytes.Buffer
	if err := MicroReport(seq, 11).WriteJSON(&a); err != nil {
		t.Fatal(err)
	}
	if err := MicroReport(par, 11).WriteJSON(&b); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatalf("JSON run reports differ between -parallel 1 and -parallel 8:\n%s\nvs\n%s", a.String(), b.String())
	}
}

// panicAfter is a lock whose n-th Acquire panics on the acquiring
// simulated CPU, with the other threads of the cell parked in the lock.
type panicAfter struct {
	simlock.Lock
	n   int
	err error
}

func (l *panicAfter) Acquire(p *machine.Proc, tid int) {
	if l.n--; l.n == 0 {
		panic(l.err)
	}
	l.Lock.Acquire(p, tid)
}

// TestCellPanicSurfacesAsCellPanic: a panic inside a simulated lock body
// travels out of the process into machine.Run's caller, so the pool sees
// it like any other cell panic — *par.CellPanic naming the cell and
// carrying the original value, at any width — instead of dying on a bare
// goroutine. The cell's other processes are released as it unwinds.
func TestCellPanicSurfacesAsCellPanic(t *testing.T) {
	boom := errors.New("lock body bug")
	const cells, bad = 6, 3
	for _, width := range []int{1, 4} {
		base := runtime.NumGoroutine()
		o := quick()
		o.Parallel = width
		func() {
			defer func() {
				cp, ok := recover().(*par.CellPanic)
				if !ok || cp.Item != bad || cp.Value != boom || !errors.Is(cp, boom) {
					t.Errorf("parallel %d: recovered %v, want *par.CellPanic for item %d wrapping %v", width, cp, bad, boom)
				}
			}()
			o.parfor(cells, func(i int) {
				cfg := microbench.NewBenchConfig{
					Machine: wildfire(uint64(1 + i)), Lock: "MCS", Threads: 8, Iterations: 20,
					CriticalWork: 100, PrivateWork: 100, Tuning: simlock.DefaultTuning(),
				}
				if i == bad {
					cfg.WrapLock = func(l simlock.Lock) simlock.Lock { return &panicAfter{Lock: l, n: 40, err: boom} }
				}
				microbench.NewBench(cfg)
			})
			t.Errorf("parallel %d: parfor returned; the cell's panic was lost", width)
		}()
		if n := runtime.NumGoroutine(); n > base {
			t.Errorf("parallel %d: %d goroutines after the panic, %d before (parked processes leaked)", width, n, base)
		}
	}
}
