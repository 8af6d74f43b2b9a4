package experiments

import (
	"bytes"
	"fmt"
	"runtime"
	"testing"
)

// simWorkerWidths is the matrix every byte-identity check sweeps.
var simWorkerWidths = []int{1, 2, 4, 8}

// TestSimWorkersByteIdentityMatrix is the acceptance matrix for the
// parallel simulation tier: every lock in internal/simlock (MicroReport
// and DegradedReport both sweep lockNames()) × sim-worker widths
// {1, 2, 4, 8} × a healthy and a fault-injected machine must produce
// byte-identical hbo-run-report/v1 JSON; the cluster experiment's
// rendered tables must match too. Parallel is raised alongside
// SimWorkers so the product cap path is exercised as well.
func TestSimWorkersByteIdentityMatrix(t *testing.T) {
	if testing.Short() {
		t.Skip("width matrix is not short")
	}
	render := func(w int) (micro, degraded, cluster []byte) {
		o := quick()
		o.SimWorkers = w
		o.Parallel = w
		var mb bytes.Buffer
		if err := MicroReport(o, 11).WriteJSON(&mb); err != nil {
			t.Fatal(err)
		}
		rep, err := DegradedReport(o, 11, "all", 0.75)
		if err != nil {
			t.Fatal(err)
		}
		var db bytes.Buffer
		if err := rep.WriteJSON(&db); err != nil {
			t.Fatal(err)
		}
		var cb bytes.Buffer
		for _, tbl := range Clu1(o) {
			fmt.Fprint(&cb, tbl.String())
		}
		return mb.Bytes(), db.Bytes(), cb.Bytes()
	}
	wantMicro, wantDeg, wantClu := render(simWorkerWidths[0])
	if len(wantClu) == 0 {
		t.Fatal("cluster experiment rendered nothing")
	}
	for _, w := range simWorkerWidths[1:] {
		micro, deg, clu := render(w)
		if !bytes.Equal(micro, wantMicro) {
			t.Errorf("sim-workers %d: healthy-machine report bytes diverge from width 1", w)
		}
		if !bytes.Equal(deg, wantDeg) {
			t.Errorf("sim-workers %d: degraded-machine report bytes diverge from width 1", w)
		}
		if !bytes.Equal(clu, wantClu) {
			t.Errorf("sim-workers %d: cluster tables diverge from width 1", w)
		}
	}
}

// TestSimWorkersCap pins the two-layer composition rule, par.Compose's:
// the Parallel × SimWorkers product never exceeds GOMAXPROCS, the inner
// width wins the contest for cores, and both floor at one worker. The
// test sets GOMAXPROCS itself so no expectation is read from the host.
func TestSimWorkersCap(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, procs := range []int{1, 2, 4, 8} {
		runtime.GOMAXPROCS(procs)
		o := Options{Parallel: 1 << 20, SimWorkers: 1 << 20}
		if pool, inner := o.composeFor(1 << 20); pool != 1 || inner != procs {
			t.Errorf("GOMAXPROCS=%d: saturated layers composed to %d x %d, want 1 x %d",
				procs, pool, inner, procs)
		}
		o = Options{Parallel: 4, SimWorkers: 2}
		pool, inner := o.composeFor(8)
		if want := min(2, procs); inner != want || pool < 1 || pool*inner > procs {
			t.Errorf("GOMAXPROCS=%d: -parallel 4 -sim-workers 2 composed to %d x %d", procs, pool, inner)
		}
		o = Options{}
		if pool, inner := o.composeFor(4); pool < 1 || inner != 1 {
			t.Errorf("GOMAXPROCS=%d: zero Options composed to %d x %d, want one sim worker", procs, pool, inner)
		}
	}
}
