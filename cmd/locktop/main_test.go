package main

import (
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/stats"
)

func histOf(values ...int64) stats.HistogramSnapshot {
	var h stats.Histogram
	for _, v := range values {
		h.Add(v)
	}
	return h.Snapshot()
}

func TestRenderRates(t *testing.T) {
	snap := obs.Snapshot{
		Schema: obs.SnapshotSchema,
		Locks: []obs.LockSnapshot{
			{
				Name:           "HBO",
				Attempts:       2100,
				Contended:      1050,
				Aborts:         100,
				SpinIterations: 4000,
				HandoffLocal:   30,
				HandoffRemote:  10,
				Wait:           histOf(2_000, 2_000, 6_000_000),
				Hold:           histOf(500, 900),
			},
			{Name: "quiet"},
		},
	}
	var b strings.Builder
	render(&b, snap, 2*time.Second, true)
	out := b.String()

	for _, want := range []string{
		"LOCK", "ACQ/s", "CONT%", "ABORT%", "LOCAL%", "SPINS/ACQ",
		"WAIT p50", "HOLD p99",
		"HBO",
		"1000", // acquires/s: (2100-100)/2s
		"50.0", // contended %
		"4.8",  // abort %: 100/2100
		"75.0", // locality: 30/40
		"2.0",  // spins/acq: 4000/2000
		"quiet",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("render output missing %q:\n%s", want, out)
		}
	}
	// The quiet lock's derived columns are all dashes.
	for _, line := range strings.Split(out, "\n") {
		if strings.Contains(line, "quiet") && strings.Count(line, "-") < 7 {
			t.Errorf("quiet lock row should be dashed out: %q", line)
		}
	}
}

func TestRenderAbsolute(t *testing.T) {
	snap := obs.Snapshot{
		Schema: obs.SnapshotSchema,
		Locks:  []obs.LockSnapshot{{Name: "x", Attempts: 7}},
	}
	var b strings.Builder
	render(&b, snap, 0, false)
	out := b.String()
	if !strings.Contains(out, "ACQ") || strings.Contains(out, "ACQ/s") {
		t.Errorf("absolute header wrong:\n%s", out)
	}
	if !strings.Contains(out, "7") {
		t.Errorf("absolute count missing:\n%s", out)
	}
}

func TestFmtDur(t *testing.T) {
	cases := []struct {
		ns   int64
		want string
	}{
		{0, "-"},
		{815, "815ns"},
		{3_400, "3.4µs"},
		{1_200_000, "1.2ms"},
		{2_500_000_000, "2.50s"},
	}
	for _, c := range cases {
		if got := fmtDur(c.ns); got != c.want {
			t.Errorf("fmtDur(%d) = %q, want %q", c.ns, got, c.want)
		}
	}
}

func TestBaseURL(t *testing.T) {
	cases := map[string]string{
		"localhost:9141":      "http://localhost:9141",
		"http://10.0.0.1:80/": "http://10.0.0.1:80",
		"https://host:1/":     "https://host:1",
	}
	for in, want := range cases {
		if got := baseURL(in); got != want {
			t.Errorf("baseURL(%q) = %q, want %q", in, got, want)
		}
	}
}

// TestAgainstLiveEndpoint drives the full fetch → delta → render and
// promcheck paths against a real obs handler.
func TestAgainstLiveEndpoint(t *testing.T) {
	reg := obs.NewRegistry()
	rt := core.NewRuntime(1, 1)
	l := reg.Instrument(core.New("TATAS", rt, core.DefaultTuning()), "live", obs.WithSampleEvery(1))
	th := rt.RegisterThread(0)

	srv := httptest.NewServer(reg.Handler())
	defer srv.Close()
	client := &http.Client{Timeout: 5 * time.Second}

	// Empty registry activity: promcheck must fail.
	if err := promCheck(client, srv.URL); err == nil {
		t.Fatal("promCheck passed with zero activity")
	}

	first, err := fetchSnapshot(client, srv.URL)
	if err != nil {
		t.Fatal(err)
	}

	for i := 0; i < 10; i++ {
		l.Acquire(th)
		l.Release(th)
	}

	if err := promCheck(client, srv.URL); err != nil {
		t.Fatalf("promCheck on active registry: %v", err)
	}
	second, err := fetchSnapshot(client, srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	d := second.Delta(first)
	if len(d.Locks) != 1 || d.Locks[0].Attempts != 10 {
		t.Fatalf("delta = %+v", d.Locks)
	}
	var b strings.Builder
	render(&b, d, time.Second, true)
	if !strings.Contains(b.String(), "live") {
		t.Fatalf("render missing lock name:\n%s", b.String())
	}
}
