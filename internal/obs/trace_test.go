package obs

import (
	"bytes"
	"runtime/trace"
	"testing"

	"repro/internal/core"
)

// TestFlightRecorderRegions captures a runtime trace around sampled
// acquires and checks the lock's wait/hold region names land in it —
// the strings a `go tool trace` view groups lock phases under.
func TestFlightRecorderRegions(t *testing.T) {
	if trace.IsEnabled() {
		t.Skip("a trace is already running")
	}
	var buf bytes.Buffer
	if err := trace.Start(&buf); err != nil {
		t.Fatal(err)
	}
	rt := core.NewRuntime(1, 1)
	l := NewRegistry().Instrument(core.New("TATAS", rt, core.DefaultTuning()), "flight", WithSampleEvery(1))
	th := rt.RegisterThread(0)
	for i := 0; i < 5; i++ {
		l.Acquire(th)
		l.Release(th)
	}
	trace.Stop()
	out := buf.Bytes()
	for _, want := range []string{"lock:flight:wait", "lock:flight:hold"} {
		if !bytes.Contains(out, []byte(want)) {
			t.Errorf("trace capture missing region name %q", want)
		}
	}
}
