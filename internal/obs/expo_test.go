package obs

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"testing"

	"repro/internal/core"
)

// activeRegistry builds a registry with deterministic activity on two
// locks across two nodes.
func activeRegistry(t *testing.T) (*Registry, uint64) {
	t.Helper()
	r := NewRegistry()
	rt := core.NewRuntime(2, 2)
	a := r.Instrument(core.New("TATAS", rt, core.DefaultTuning()), "alpha", WithSampleEvery(1))
	b := r.Instrument(core.New("TICKET", rt, core.DefaultTuning()), "beta", WithSampleEvery(1))
	t0 := rt.RegisterThread(0)
	t1 := rt.RegisterThread(1)
	const n = 25
	for i := 0; i < n; i++ {
		a.Acquire(t0)
		a.Release(t0)
		b.Acquire(t1)
		b.Release(t1)
	}
	return r, n
}

func TestPrometheusExposition(t *testing.T) {
	r, n := activeRegistry(t)
	var buf bytes.Buffer
	if err := r.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	var buf2 bytes.Buffer
	if err := r.WritePrometheus(&buf2); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), buf2.Bytes()) {
		t.Fatal("idle Prometheus exposition not byte-stable")
	}

	samples, err := ParsePrometheus(buf.String())
	if err != nil {
		t.Fatalf("exposition does not parse: %v\n%s", err, buf.String())
	}
	for _, lock := range []string{"alpha", "beta"} {
		s := FindSample(samples, "hbo_lock_attempts_total", map[string]string{"lock": lock})
		if s == nil {
			t.Fatalf("missing attempts sample for %q", lock)
		}
		if s.Value != float64(n) {
			t.Fatalf("%s attempts = %v, want %d", lock, s.Value, n)
		}
	}
	if s := FindSample(samples, "hbo_lock_wait_ns", map[string]string{"lock": "alpha", "quantile": "0.99"}); s == nil {
		t.Fatal("missing wait summary quantile")
	}
	if s := FindSample(samples, "hbo_lock_wait_ns_count", map[string]string{"lock": "alpha"}); s == nil || s.Value != float64(n) {
		t.Fatalf("wait summary count sample = %+v", s)
	}
	if s := FindSample(samples, "hbo_lock_node_attempts_total", map[string]string{"lock": "beta", "node": "1"}); s == nil || s.Value != float64(n) {
		t.Fatalf("per-node sample = %+v", s)
	}
}

func TestParsePrometheusRejectsGarbage(t *testing.T) {
	for _, bad := range []string{
		"no_value_here",
		`metric{unterminated="x" 1`,
		`metric{lock=unquoted} 1`,
		"metric{} not-a-number",
	} {
		if _, err := ParsePrometheus(bad); err == nil {
			t.Errorf("ParsePrometheus(%q) accepted garbage", bad)
		}
	}
	// Timestamps and untyped lines are fine.
	s, err := ParsePrometheus("m{a=\"b\"} 4.5 1712000000\nplain 1\n")
	if err != nil {
		t.Fatal(err)
	}
	if len(s) != 2 || s[0].Value != 4.5 || s[1].Name != "plain" {
		t.Fatalf("parsed = %+v", s)
	}
}

func TestHTTPEndpoints(t *testing.T) {
	r, n := activeRegistry(t)
	srv := httptest.NewServer(r.Handler())
	defer srv.Close()

	get := func(path string) []byte {
		t.Helper()
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: %s", path, resp.Status)
		}
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return body
	}

	if _, err := ParsePrometheus(string(get("/metrics"))); err != nil {
		t.Fatalf("/metrics does not parse: %v", err)
	}

	var snap Snapshot
	if err := json.Unmarshal(get("/snapshot"), &snap); err != nil {
		t.Fatalf("/snapshot: %v", err)
	}
	if snap.Schema != SnapshotSchema || len(snap.Locks) != 2 || snap.Locks[0].Attempts != n {
		t.Fatalf("/snapshot = %+v", snap)
	}

	var vars map[string]json.RawMessage
	if err := json.Unmarshal(get("/debug/vars"), &vars); err != nil {
		t.Fatalf("/debug/vars is not valid JSON: %v", err)
	}
	if _, ok := vars["memstats"]; !ok {
		t.Fatal("/debug/vars missing standard memstats var")
	}
	var embedded Snapshot
	if err := json.Unmarshal(vars["hbo_locks"], &embedded); err != nil {
		t.Fatalf("hbo_locks var: %v", err)
	}
	if embedded.Schema != SnapshotSchema {
		t.Fatalf("hbo_locks schema = %q", embedded.Schema)
	}

	var rep map[string]any
	if err := json.Unmarshal(get("/report"), &rep); err != nil {
		t.Fatalf("/report: %v", err)
	}
	if rep["schema"] != "hbo-run-report/v1" {
		t.Fatalf("/report schema = %v", rep["schema"])
	}
	if _, ok := rep["host"].(map[string]any); !ok {
		t.Fatal("/report missing host block")
	}
}

func TestLiveReportMapping(t *testing.T) {
	r, n := activeRegistry(t)
	rep := r.Report("test")
	if rep.Machine.Preset != "native" || rep.Machine.Nodes != 2 {
		t.Fatalf("machine = %+v", rep.Machine)
	}
	if len(rep.Locks) != 2 {
		t.Fatalf("locks = %d", len(rep.Locks))
	}
	alpha := rep.Locks[0]
	if alpha.Lock != "alpha" || alpha.Acquisitions != int(n) || alpha.Aborts != 0 {
		t.Fatalf("alpha = %+v", alpha)
	}
	if alpha.Wait.Count != n || alpha.Hold.Count != n {
		t.Fatalf("alpha quantiles: wait=%d hold=%d", alpha.Wait.Count, alpha.Hold.Count)
	}
	var buf1, buf2 bytes.Buffer
	if err := rep.WriteJSON(&buf1); err != nil {
		t.Fatal(err)
	}
	if err := r.Report("test").WriteJSON(&buf2); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf1.Bytes(), buf2.Bytes()) {
		t.Fatal("idle live reports not byte-identical")
	}
}
