package main

import (
	"encoding/json"
	"os"
	"testing"
	"time"

	"pushadminer/internal/core"
)

// Tiny sizes keep the tests quick while every layer still does work.
// tinyStudy has two webs, so the second pair of a traced smoke run
// calls the traced study first on a web no untraced call has run yet.
var (
	tinyStudy  = studySpec{scale: 0.003, window: 3 * 24 * time.Hour, mobile: true, webs: 2}
	tinyFaults = studySpec{scale: 0.003, window: 3 * 24 * time.Hour, shards: 4,
		faults: studyFaultsDefaults.faults, webs: 1}
)

const tinyCorpus = 600

func tinySetups(dir string) map[string]func(int64) (runner, error) {
	return map[string]func(int64) (runner, error){
		"study":        func(seed int64) (runner, error) { return newStudy(tinyStudy, seed, dir) },
		"study_faults": func(seed int64) (runner, error) { return newStudy(tinyFaults, seed, dir) },
		"mine_batch":   func(seed int64) (runner, error) { return newBatch(seed, tinyCorpus), nil },
		"mine_stream":  func(seed int64) (runner, error) { return newStream(seed, tinyCorpus) },
	}
}

// benchmarkFile is the part of BENCHMARK.json the smoke test checks.
type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

// TestSmoke runs every workload of BENCHMARK.json at a tiny size,
// untraced and traced, and fails if a run is incorrect or any metric
// BENCHMARK.json names is missing or has another unit.
func TestSmoke(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(raw, &bf); err != nil {
		t.Fatal(err)
	}
	if len(bf.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json names %d workloads, perfbench has %d", len(bf.Workloads), len(workloads))
	}
	dir := t.TempDir()
	setups := tinySetups(dir)
	for _, wl := range bf.Workloads {
		setup := setups[wl.Name]
		if setup == nil {
			t.Fatalf("no workload %q", wl.Name)
		}
		for _, trace := range []bool{false, true} {
			o := options{workload: wl.Name, seed: 5, seconds: time.Millisecond, trace: trace, workdir: dir}
			res, err := measure(func() (runner, error) { return setup(o.seed) }, o)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", wl.Name, trace, err)
			}
			if !res.Correct || res.Attempted < 1 || res.Failed != 0 {
				t.Errorf("%s trace=%v: correct=%v attempted=%d failed=%d", wl.Name, trace, res.Correct, res.Attempted, res.Failed)
			}
			want := bf.EndToEnd
			if trace {
				want = bf.PerLayer
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s trace=%v: %d metrics, BENCHMARK.json names %d", wl.Name, trace, len(res.Metrics), len(want))
			}
			for _, d := range want {
				got, ok := res.Metrics[d.Name]
				switch {
				case !ok:
					t.Errorf("%s trace=%v: metric %s missing", wl.Name, trace, d.Name)
				case got.Unit == "" || got.Unit != d.Unit:
					t.Errorf("%s trace=%v: metric %s unit %q, BENCHMARK.json says %q", wl.Name, trace, d.Name, got.Unit, d.Unit)
				case !trace && got.Value == 0:
					t.Errorf("%s: end-to-end metric %s is 0", wl.Name, d.Name)
				}
			}
		}
	}
}

// TestStreamMatchesBlockedBatch pins the documented convergence: the
// final Recluster of mine_stream equals ClusterWPNs on the blocked path
// over the same corpus.
func TestStreamMatchesBlockedBatch(t *testing.T) {
	w, err := newStream(7, 2000)
	if err != nil {
		t.Fatal(err)
	}
	got, _, err := w.run(0)
	if err != nil {
		t.Fatal(err)
	}
	cr := core.ClusterWPNs(w.fs, core.ClusterOptions{Blocked: true})
	want := digest([]any{cr.Labels, cr.CutHeight, cr.Silhouette})
	if got.parts["clusters"] != want {
		t.Fatalf("stream result %s, blocked batch %s", got.parts["clusters"], want)
	}
}

// TestFleetMatchesSingleProcess pins the documented fleet guarantee on
// the study_faults configuration: the 4-shard run under the fault
// profile equals a single-process run under the same profile.
func TestFleetMatchesSingleProcess(t *testing.T) {
	dir := t.TempDir()
	single := tinyFaults
	single.shards = 0
	var runs []*studyRun
	var outs []*mined
	for _, spec := range []studySpec{tinyFaults, single} {
		w, err := newStudy(spec, 9, dir)
		if err != nil {
			t.Fatal(err)
		}
		out, _, err := w.run(0)
		if err != nil {
			t.Fatal(err)
		}
		runs = append(runs, w)
		outs = append(outs, out)
	}
	if same, part := outs[0].equal(outs[1]); !same {
		t.Fatalf("4-shard fleet differs from the single-process run in %s", part)
	}
	if outs[0].wpns == 0 {
		t.Fatal("no WPNs collected")
	}
	// The comparison means something only if the faults fired.
	m := make(map[string]float64)
	if _, _, err := runs[0].traced(0, m); err != nil {
		t.Fatal(err)
	}
	if m["chaos.faults_injected"] == 0 || m["fleet.heartbeats"] == 0 {
		t.Fatalf("fleet run saw %v faults and %v heartbeats", m["chaos.faults_injected"], m["fleet.heartbeats"])
	}
}
