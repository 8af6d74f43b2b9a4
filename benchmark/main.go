// Command benchmark is this repository's one benchmark: five workloads
// over the two end-to-end paths (reproduce the paper, serve a lease) and
// the native lock library, measured from outside through the packages'
// public functions and the real hbolockd binary. See README.md in this
// directory for what each workload and metric is for, and BENCHMARK.json
// at the repository root for names, units, directions and bounds.
//
//	go run -C benchmark . -workload all -seed 11 -out run.jsonl
//	go run -C benchmark . -workload serve-http -seconds 15
//	go run -C benchmark . -workload sim-paper -trace traces/
//	go run -C benchmark . -compare a.jsonl b.jsonl
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"

	"repro/internal/report"
	"repro/internal/stats"
)

// workload is one entry of the fixed workload table; names are cited by
// later issues and must not change.
type workload struct {
	name string
	run  func(e *env, o *outcome) error
}

var workloads = []workload{
	{"sim-paper", runSimPaper},
	{"sim-cluster", runSimCluster},
	{"native-locks", runNativeLocks},
	{"serve-core", runServeCore},
	{"serve-http", runServeHTTP},
}

// env is what a run is given: where it may write, its seed and its time
// budget. Everything a workload generates comes from seed.
type env struct {
	root    string  // the checkout: parent of this directory, holds BENCHMARK.json
	scratch string  // removed on exit; inside the checkout
	seed    uint64  // drives every generated input
	seconds float64 // measuring time for one run
	smoke   bool    // sub-second sizes for the smoke test
	w       int     // min(GOMAXPROCS, 4): working goroutines and connections
	update  bool    // rewrite testdata digests instead of checking them
	spec    *benchSpec
}

// dur scales a share of the run's measuring time.
func (e *env) dur(share float64) time.Duration {
	return time.Duration(share * e.seconds * float64(time.Second))
}

// metric is one reported number: the median of n samples taken inside
// the run, with their quartiles so one run already shows its own spread.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	N     int     `json:"n"`
	Q1    float64 `json:"q1"`
	Q3    float64 `json:"q3"`
}

type check struct {
	Name   string `json:"name"`
	OK     bool   `json:"ok"`
	Detail string `json:"detail,omitempty"`
}

// outcome collects what a workload measured and verified.
type outcome struct {
	Metrics   map[string]metric `json:"metrics"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Checks    []check           `json:"checks"`
	Notes     []string          `json:"notes,omitempty"`
}

func newOutcome() *outcome { return &outcome{Metrics: map[string]metric{}} }

// set records a metric as the median of samples. No samples, no metric:
// the missing name then fails the run instead of reading as zero.
func (o *outcome) set(name, unit string, samples ...float64) {
	if len(samples) == 0 {
		return
	}
	q1, q3 := quartiles(samples)
	o.Metrics[name] = metric{Value: stats.Median(samples), Unit: unit, N: len(samples), Q1: q1, Q3: q3}
}

// verify records a correctness check; a failed check fails the run.
func (o *outcome) verify(name string, err error) {
	c := check{Name: name, OK: err == nil}
	if err != nil {
		c.Detail = err.Error()
	}
	o.Checks = append(o.Checks, c)
}

func (o *outcome) note(format string, args ...any) {
	o.Notes = append(o.Notes, fmt.Sprintf(format, args...))
}

func (o *outcome) correct() bool {
	for _, c := range o.Checks {
		if !c.OK {
			return false
		}
	}
	return true
}

// runRecord is one line of an -out file: everything needed to compare
// this run with another and to know where it was taken.
type runRecord struct {
	Schema   string            `json:"schema"`
	Workload string            `json:"workload"`
	Traced   bool              `json:"traced"`
	Seed     uint64            `json:"seed"`
	Seconds  float64           `json:"seconds"`
	W        int               `json:"w"`
	Commit   string            `json:"commit"`
	Host     report.HostReport `json:"host"`
	Flush    string            `json:"flush_policy"`
	Correct  bool              `json:"correct"`
	outcome
}

const (
	recordSchema = "hbo-benchmark/v1"
	// flushPolicy is the store's shipped durability setting, the same on
	// both sides of any comparison made with this benchmark.
	flushPolicy = "shipped: mmap WAL appends, fsync at snapshot and clean close"
)

// traceFlag accepts the driver's "--trace 0|1" and a directory, which
// turns tracing on and says where the span files go.
type traceFlag struct {
	on  bool
	dir string
}

func (t *traceFlag) String() string { return t.dir }
func (t *traceFlag) Set(v string) error {
	switch v {
	case "0", "":
		t.on, t.dir = false, ""
	case "1":
		t.on, t.dir = true, ""
	default:
		t.on, t.dir = true, v
	}
	return nil
}

func main() {
	var tr traceFlag
	var (
		wl      = flag.String("workload", "all", "workload name, or 'all' to run each in its own process")
		seed    = flag.Uint64("seed", 11, "seed for every generated input (session mixes, keys, simulator seeds)")
		seconds = flag.Float64("seconds", 0, "measuring time for one run (default: run_seconds from BENCHMARK.json)")
		out     = flag.String("out", "", "append one JSON record per run to this file (input of -compare)")
		compare = flag.Bool("compare", false, "compare two -out files given as arguments: a.jsonl b.jsonl")
		update  = flag.Bool("update-digests", false, "rewrite testdata/*.sha256 from this run; only a benchmark PR may do this")
		smoke   = flag.Bool("smoke", false, "sub-second sizes, for the smoke test")
	)
	flag.Var(&tr, "trace", "0, 1, or a directory: traced run (per-layer metrics and span files)")
	flag.Parse()

	root, err := findRoot()
	if err != nil {
		fatal(err)
	}
	spec, err := loadSpec(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		fatal(err)
	}
	if *compare {
		if flag.NArg() != 2 {
			fatal(errors.New("-compare needs two result files"))
		}
		worse, err := compareFiles(os.Stdout, spec, flag.Arg(0), flag.Arg(1))
		if err != nil {
			fatal(err)
		}
		if worse {
			os.Exit(1)
		}
		return
	}
	if *seconds <= 0 {
		*seconds = float64(spec.RunSeconds)
	}
	if *smoke {
		*seconds = 0.5
	}

	if *wl == "all" {
		os.Exit(runAll(root, *seed, *seconds, tr, *out, *update, *smoke))
	}
	var w *workload
	for i := range workloads {
		if workloads[i].name == *wl {
			w = &workloads[i]
		}
	}
	if w == nil {
		fatal(fmt.Errorf("unknown workload %q", *wl))
	}

	scratchDir = filepath.Join(root, ".bench_build", fmt.Sprintf("run-%d", os.Getpid()))
	if err := os.MkdirAll(scratchDir, 0o755); err != nil {
		fatal(err)
	}
	// Temp dirs and the daemon go on Ctrl-C too.
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sig
		stopChildren()
		os.RemoveAll(scratchDir)
		os.Exit(130)
	}()

	e := &env{
		root: root, scratch: scratchDir, seed: *seed, seconds: *seconds, smoke: *smoke,
		w: min(runtime.GOMAXPROCS(0), 4), update: *update, spec: spec,
	}
	traceDir := tr.dir
	if tr.on && traceDir == "" {
		traceDir = filepath.Join(root, ".bench_build", "trace")
	}
	rec, err := measure(e, w, tr.on, traceDir)
	os.RemoveAll(scratchDir)
	if err != nil {
		fatal(fmt.Errorf("%s: %w", w.name, err))
	}
	printRecord(os.Stdout, rec)
	if *out != "" {
		if err := appendRecord(*out, rec); err != nil {
			fatal(err)
		}
	}
	// The driver's line: every metric BENCHMARK.json names for this kind
	// of run, and nothing else.
	want := spec.EndToEnd
	if tr.on {
		want = spec.PerLayer
	}
	line, missing := driverLine(rec, want)
	if len(missing) > 0 {
		fatal(fmt.Errorf("%s: metrics named in BENCHMARK.json but not measured: %s", w.name, strings.Join(missing, ", ")))
	}
	fmt.Println(line)
	if !rec.Correct {
		os.Exit(1)
	}
}

// scratchDir is this run's temporary directory, inside the checkout;
// every exit path removes it.
var scratchDir string

// measure runs one workload, or the traced walk, and wraps what it found
// in a record.
func measure(e *env, w *workload, traced bool, traceDir string) (*runRecord, error) {
	o := newOutcome()
	var err error
	if traced {
		err = runTraced(e, o, w.name, traceDir)
	} else {
		err = w.run(e, o)
	}
	if err != nil {
		return nil, err
	}
	o.Attempted = max(o.Attempted, 1)
	if !o.correct() && o.Failed == 0 {
		o.Failed = o.Attempted // a failed check fails the whole workload
	}
	return &runRecord{
		Schema: recordSchema, Workload: w.name, Traced: traced, Seed: e.seed, Seconds: e.seconds,
		W: e.w, Commit: commit(e.root), Host: report.Host(), Flush: flushPolicy,
		Correct: o.correct(), outcome: *o,
	}, nil
}

// runAll runs every workload in its own process, so one workload's heap
// and goroutines never sit under another's measurement and peak_rss_mb
// belongs to one workload. With tracing on it runs the traced walk
// once: that walk covers every layer whichever workload is named.
func runAll(root string, seed uint64, seconds float64, tr traceFlag, out string, update, smoke bool) int {
	self, err := os.Executable()
	if err != nil {
		fatal(err)
	}
	code := 0
	todo := workloads
	if tr.on {
		todo = workloads[:1]
	}
	for _, w := range todo {
		args := []string{"-workload", w.name, "-seed", fmt.Sprint(seed), "-seconds", fmt.Sprint(seconds)}
		if tr.on {
			t := tr.dir
			if t == "" {
				t = "1"
			}
			args = append(args, "-trace", t)
		}
		if out != "" {
			abs, err := filepath.Abs(out)
			if err != nil {
				fatal(err)
			}
			args = append(args, "-out", abs)
		}
		if update {
			args = append(args, "-update-digests")
		}
		if smoke {
			args = append(args, "-smoke")
		}
		cmd := exec.Command(self, args...)
		cmd.Stdout, cmd.Stderr = os.Stdout, os.Stderr
		if err := cmd.Run(); err != nil {
			fmt.Fprintf(os.Stderr, "benchmark: %s: %v\n", w.name, err)
			code = 1
		}
	}
	return code
}

// findRoot walks up from the working directory to the checkout root,
// the directory holding BENCHMARK.json ("go run -C benchmark ." starts
// the program one level below it).
func findRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "BENCHMARK.json")); err == nil {
			if _, err := os.Stat(filepath.Join(dir, "benchmark", "go.mod")); err == nil {
				return dir, nil
			}
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", errors.New("BENCHMARK.json not found above the working directory")
		}
		dir = parent
	}
}

// commit names the commit measured, when the checkout is a git
// repository; the driver's checkout is not.
func commit(root string) string {
	cmd := exec.Command("git", "rev-parse", "--short", "HEAD")
	cmd.Dir = root
	b, err := cmd.Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(b))
}

func printRecord(w *os.File, r *runRecord) {
	kind := "end-to-end (tracing off)"
	if r.Traced {
		kind = "traced: per-layer"
	}
	fmt.Fprintf(w, "== %s  %s  seed=%d seconds=%g W=%d commit=%s host=%dcpu %s/%s %s\n",
		r.Workload, kind, r.Seed, r.Seconds, r.W, r.Commit, r.Host.CPUs, r.Host.GOOS, r.Host.GOARCH, r.Host.GoVersion)
	fmt.Fprintf(w, "   flush policy: %s\n", r.Flush)
	names := make([]string, 0, len(r.Metrics))
	for n := range r.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := r.Metrics[n]
		fmt.Fprintf(w, "   %-40s %14.6g %-6s n=%-6d q1=%.6g q3=%.6g\n", n, m.Value, m.Unit, m.N, m.Q1, m.Q3)
	}
	for _, c := range r.Checks {
		state := "ok"
		if !c.OK {
			state = "FAILED: " + c.Detail
		}
		fmt.Fprintf(w, "   check %-34s %s\n", c.Name, state)
	}
	for _, n := range r.Notes {
		fmt.Fprintf(w, "   note: %s\n", n)
	}
	frac := float64(r.Failed) / float64(r.Attempted)
	fmt.Fprintf(w, "   attempted=%d failed=%d failed_frac=%.6f correct=%v\n", r.Attempted, r.Failed, frac, r.Correct)
}

func appendRecord(path string, r *runRecord) error {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return err
	}
	b, err := json.Marshal(r)
	if err != nil {
		f.Close()
		return err
	}
	if _, err := f.Write(append(b, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// driverLine renders the result line the driver reads and lists the
// wanted metrics that have no finite value.
func driverLine(r *runRecord, want []metricSpec) (string, []string) {
	type mv struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	ms := map[string]mv{}
	var missing []string
	for _, s := range want {
		m, ok := r.Metrics[s.Name]
		if !ok || math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			missing = append(missing, s.Name)
			continue
		}
		ms[s.Name] = mv{m.Value, s.Unit}
	}
	b, err := json.Marshal(map[string]any{
		"correct": r.Correct, "attempted": r.Attempted, "failed": r.Failed, "metrics": ms,
	})
	if err != nil {
		fatal(err)
	}
	return string(b), missing
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "benchmark: %v\n", err)
	stopChildren()
	if scratchDir != "" {
		os.RemoveAll(scratchDir)
	}
	os.Exit(2)
}
