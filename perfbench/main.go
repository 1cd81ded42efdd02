// Command perfbench is the repository benchmark. It runs one workload
// per invocation, closed-loop with one caller, through the program's
// public entry points, checks the outputs, and prints one JSON result
// line last:
//
//	perfbench --workload study --seed 1 --seconds 20 --trace 0
//
// With --trace 0 the result carries the end-to-end metrics; with
// --trace 1 it carries the per-layer metrics of a traced composition
// of the same work, which must reproduce the untraced outputs first.
// See README.md for the workloads and the metric map.
package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"syscall"
	"time"
)

// runner is one workload instance with its inputs built. A run's calls
// cycle over the inputs, so call k of the run works on input k mod
// inputs().
type runner interface {
	inputs() int
	// run is one untraced timed call on input k; it returns the checked
	// outputs and the call's wall time.
	run(k int) (*mined, time.Duration, error)
	// traced is the same work composed with timing wrappers; it adds
	// per-layer metrics to m.
	traced(k int, m map[string]float64) (*mined, time.Duration, error)
}

// workload builds a runner from the seed; workdir is a scratch
// directory inside the checkout.
type workload struct {
	name  string
	setup func(seed int64, workdir string) (runner, error)
}

var workloads = []workload{
	{"study", func(seed int64, dir string) (runner, error) { return newStudy(studyDefaults, seed, dir) }},
	{"study_faults", func(seed int64, dir string) (runner, error) { return newStudy(studyFaultsDefaults, seed, dir) }},
	{"mine_batch", func(seed int64, _ string) (runner, error) { return newBatch(seed, batchRecords), nil }},
	{"mine_stream", func(seed int64, _ string) (runner, error) { return newStream(seed, streamRecords) }},
}

// An untraced run builds its inputs at least setupMinReps times and for
// at least setupMinTime, and reports the median build time. It then
// makes at least minCalls timed calls, at least one per input, and
// calls until --seconds pass. Every build and every timed call starts
// after a forced garbage collection, so none pays for garbage the one
// before it left.
const (
	setupMinReps = 3
	setupMinTime = time.Second
	minCalls     = 3
)

// options are one invocation's settings.
type options struct {
	workload string
	seed     int64
	seconds  time.Duration
	trace    bool
	workdir  string
}

func main() {
	var o options
	var secs float64
	var trace int
	flag.StringVar(&o.workload, "workload", "", "workload name: study, study_faults, mine_batch or mine_stream")
	flag.Int64Var(&o.seed, "seed", 1, "input seed")
	flag.Float64Var(&secs, "seconds", 20, "how long to measure")
	flag.IntVar(&trace, "trace", 0, "1 runs the traced composition and prints per-layer metrics")
	flag.Parse()
	// Run from the checkout root, as run.sh does; scratch files stay in
	// the build directory there.
	o.workdir = filepath.Join(".bench_build", "work")
	o.seconds = time.Duration(secs * float64(time.Second))
	o.trace = trace == 1

	var w *workload
	for i := range workloads {
		if workloads[i].name == o.workload {
			w = &workloads[i]
		}
	}
	if w == nil || (trace != 0 && trace != 1) || secs <= 0 {
		fmt.Fprintf(os.Stderr, "perfbench: bad arguments (workload %q, trace %d, seconds %g)\n", o.workload, trace, secs)
		os.Exit(2)
	}
	if err := os.MkdirAll(o.workdir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}

	header, _ := json.Marshal(map[string]any{
		"workload": o.workload, "seed": o.seed, "trace": trace, "host": fingerprint(),
	})
	fmt.Println(string(header))

	res, err := measure(func() (runner, error) { return w.setup(o.seed, o.workdir) }, o)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

// measure builds the input and runs the untraced or traced loop for
// o.seconds. Set-up is measured in CPU seconds, like the calls.
func measure(setup func() (runner, error), o options) (*result, error) {
	var r runner
	var setupCPU, setupWall []float64
	first := time.Now()
	for len(setupCPU) == 0 || (!o.trace &&
		(len(setupCPU) < setupMinReps || time.Since(first) < setupMinTime)) {
		r = nil // let the previous input be collected first
		runtime.GC()
		start, cpu0 := time.Now(), cpuSeconds()
		var err error
		if r, err = setup(); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setupCPU = append(setupCPU, cpuSeconds()-cpu0)
		setupWall = append(setupWall, time.Since(start).Seconds())
	}
	fmt.Fprintf(os.Stderr, "perfbench: set-up %d times, median %.4fs (cpu %.4fs)\n",
		len(setupCPU), median(setupWall), median(setupCPU))
	if o.trace {
		return tracedLoop(r, o), nil
	}
	return plainLoop(r, o, median(setupCPU))
}

// plainLoop times untraced calls and reports the end-to-end metrics.
// A call's cost is the CPU time it used; an input's cost is the median
// over its calls. cpu_ms_per_wpn is the inputs' summed cost over the
// WPNs they hold. CPU time, unlike wall time, does not grow when other
// tenants of a shared host take the CPUs away.
func plainLoop(r runner, o options, setupS float64) (*result, error) {
	res := &result{Correct: true}
	n := r.inputs()
	firsts := make([]*mined, n)
	cpus := make([][]float64, n)
	start, steal0 := time.Now(), stealSeconds()
	for call := 0; call < max(minCalls, n) || time.Since(start) < o.seconds; call++ {
		k := call % n
		runtime.GC()
		cpu0 := cpuSeconds()
		out, wall, err := r.run(k)
		cpu := cpuSeconds() - cpu0
		res.Attempted++
		if err != nil {
			res.Failed++
			fmt.Fprintf(os.Stderr, "perfbench: call %d (input %d) failed: %v\n", call+1, k, err)
			continue
		}
		cpus[k] = append(cpus[k], cpu)
		fmt.Fprintf(os.Stderr, "perfbench: call %d (input %d): %.3fs, cpu %.3fs, %d WPNs\n",
			call+1, k, wall.Seconds(), cpu, out.wpns)
		if firsts[k] == nil {
			firsts[k] = out
		} else if same, part := firsts[k].equal(out); !same {
			res.Correct = false
			fmt.Fprintf(os.Stderr, "perfbench: FAIL: call %d differs from the first on input %d in %s\n", call+1, k, part)
		}
	}
	var cpu float64
	var wpns int
	var nmis []float64
	for k, f := range firsts {
		if f == nil || !checkDigest(o, k, f.digestAll()) {
			res.Correct = false
			continue
		}
		cpu += median(cpus[k])
		wpns += f.wpns
		nmis = append(nmis, f.nmi)
	}
	if res.Failed > 0 {
		res.Correct = false
	}
	rss, err := peakRSSMB()
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(os.Stderr, "perfbench: host steal %.1f%% of CPU capacity during the run\n",
		100*stolenShare(start, steal0))
	res.Metrics = fill(endToEnd, map[string]float64{
		"setup_s":        setupS,
		"cpu_ms_per_wpn": ratio(1000*cpu, float64(wpns)),
		"peak_rss_mb":    rss,
		"campaign_nmi":   median(nmis),
	})
	return res, nil
}

// tracedLoop runs pairs, an untraced call and a traced call on the same
// input, cycling over the inputs until o.seconds pass, at least two
// pairs. The first pair runs the untraced call first, then the order
// alternates, so the overhead's median holds both orders and warm-up
// does not bias it. Each traced call must reproduce its untraced twin's
// outputs. The per-layer metrics are medians over the pairs.
func tracedLoop(r runner, o options) *result {
	res := &result{Correct: true}
	samples := make(map[string][]float64)
	digests := make([]string, r.inputs())
	start, steal0 := time.Now(), stealSeconds()
	for pair := 0; pair < 2 || time.Since(start) < o.seconds; pair++ {
		k := pair % len(digests)
		m, ok := tracedPair(r, k, pair%2 == 1, res)
		if !ok {
			continue
		}
		if digests[k] == "" {
			digests[k] = m.digest
		} else if digests[k] != m.digest {
			res.Correct = false
			fmt.Fprintf(os.Stderr, "perfbench: FAIL: pair %d differs from the first on input %d\n", pair+1, k)
		}
		for _, d := range perLayer {
			samples[d.name] = append(samples[d.name], m.vals[d.name])
		}
	}
	for k, d := range digests {
		if d != "" && !checkDigest(o, k, d) {
			res.Correct = false
		}
	}
	if len(samples) == 0 {
		res.Correct = false
	}
	vals := make(map[string]float64, len(samples))
	for k, xs := range samples {
		vals[k] = median(xs)
	}
	vals["host.steal_frac"] = stolenShare(start, steal0)
	res.Metrics = fill(perLayer, vals)
	return res
}

// pairResult is one traced pair's outcome.
type pairResult struct {
	vals   map[string]float64
	digest string
}

// tracedPair runs input k untraced and traced (traced first when
// tracedFirst), checks trace parity, and returns the per-layer values.
// Failures are tallied into res.
func tracedPair(r runner, k int, tracedFirst bool, res *result) (pairResult, bool) {
	m := make(map[string]float64)
	var ref, out *mined
	var wall0, wall1 time.Duration
	var before, after runtime.MemStats
	var err0, err1 error
	untraced := func() {
		runtime.GC()
		runtime.ReadMemStats(&before)
		ref, wall0, err0 = r.run(k)
		runtime.ReadMemStats(&after)
	}
	traced := func() {
		runtime.GC()
		out, wall1, err1 = r.traced(k, m)
	}
	if tracedFirst {
		traced()
		untraced()
	} else {
		untraced()
		traced()
	}
	res.Attempted += 2
	for _, err := range []error{err0, err1} {
		if err != nil {
			res.Failed++
			res.Correct = false
			fmt.Fprintf(os.Stderr, "perfbench: input %d: call failed: %v\n", k, err)
		}
	}
	if err0 != nil || err1 != nil {
		return pairResult{}, false
	}
	if same, part := ref.equal(out); !same {
		res.Correct = false
		fmt.Fprintf(os.Stderr, "perfbench: FAIL: trace parity: traced %s differs from the untraced call on input %d\n", part, k)
		return pairResult{}, false
	}
	m["wall_s"] = wall0.Seconds()
	m["trace.overhead_s"] = (wall1 - wall0).Seconds()
	m["mal_precision"] = ref.precision
	m["mal_recall"] = ref.recall
	m["campaign_ari"] = ref.ari
	m["go.gc_cycles"] = float64(after.NumGC - before.NumGC)
	m["go.gc_pause_s"] = float64(after.PauseTotalNs-before.PauseTotalNs) / 1e9
	m["go.alloc_bytes"] = float64(after.TotalAlloc - before.TotalAlloc)
	fmt.Fprintf(os.Stderr, "perfbench: input %d: untraced %.3fs traced %.3fs\n", k, wall0.Seconds(), wall1.Seconds())
	return pairResult{vals: m, digest: ref.digestAll()}, true
}

// cpuSeconds is the CPU time this process has used so far.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

// stolenShare is the share of the machine's CPU capacity stolen by the
// hypervisor since start.
func stolenShare(start time.Time, steal0 float64) float64 {
	return ratio(stealSeconds()-steal0, float64(runtime.NumCPU())*time.Since(start).Seconds())
}

// checkDigest compares the output digest of input k with the one
// recorded by the first run of the same workload and seed in this work
// directory, recording it if none exists yet. A mismatch is printed as
// a failure.
func checkDigest(o options, k int, d string) bool {
	dir := filepath.Join(o.workdir, "digests")
	path := filepath.Join(dir, fmt.Sprintf("%s-%d-%d", o.workload, o.seed, k))
	prev, err := os.ReadFile(path)
	if errors.Is(err, fs.ErrNotExist) {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench: FAIL: digest store:", err)
			return false
		}
		if err := os.WriteFile(path, []byte(d+"\n"), 0o644); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench: FAIL: digest store:", err)
			return false
		}
		return true
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: FAIL: digest store:", err)
		return false
	}
	if got := strings.TrimSpace(string(prev)); got != d {
		fmt.Fprintf(os.Stderr, "perfbench: FAIL: output digest %s of input %d differs from %s recorded by an earlier run at seed %d\n", d, k, got, o.seed)
		return false
	}
	return true
}

// fingerprint describes the host a run measured on.
func fingerprint() map[string]any {
	return map[string]any{
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go":         runtime.Version(),
		"os_arch":    runtime.GOOS + "/" + runtime.GOARCH,
		"cpu":        cpuModel(),
	}
}

// cpuModel reads the first "model name" of /proc/cpuinfo.
func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}
