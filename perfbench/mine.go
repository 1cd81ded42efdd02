package main

import (
	"fmt"
	"time"

	"pushadminer"
	"pushadminer/internal/core"
	"pushadminer/internal/crawler"
)

// batchRun is the mine_batch workload: the blocked mining pipeline over
// a synthetic campaign corpus.
type batchRun struct {
	records []*crawler.WPNRecord
}

// Sizes of the mining workloads.
const (
	batchRecords  = 20000
	streamRecords = 10000
	// reclusterEvery is the CLI's -incremental batch size.
	reclusterEvery = 256
)

func newBatch(seed int64, n int) *batchRun {
	return &batchRun{records: core.SynthWPNRecords(seed, n)}
}

func (w *batchRun) opts() pushadminer.PipelineOptions {
	return pushadminer.PipelineOptions{Cluster: core.ClusterOptions{Blocked: true}}
}

func (w *batchRun) inputs() int { return 1 }

func (w *batchRun) run(int) (*mined, time.Duration, error) {
	start := time.Now()
	a, err := pushadminer.RunPipeline(w.records, w.opts())
	wall := time.Since(start)
	if err != nil {
		return nil, 0, err
	}
	out, err := minedAnalysis(w.records, a, landingHostTruth)
	return out, wall, err
}

func (w *batchRun) traced(_ int, m map[string]float64) (*mined, time.Duration, error) {
	start := time.Now()
	a, err := tracedPipeline(w.records, w.opts(), m)
	wall := time.Since(start)
	if err != nil {
		return nil, 0, err
	}
	out, err := minedAnalysis(w.records, a, landingHostTruth)
	return out, wall, err
}

// streamRun is the mine_stream workload: records arrive one by one at
// an IncrementalClusterer, with a Recluster every reclusterEvery
// arrivals and once at the end.
type streamRun struct {
	records []*crawler.WPNRecord
	fs      *core.FeatureSet
	opts    core.ClusterOptions
	inc     *core.IncrementalClusterer
}

func newStream(seed int64, n int) (*streamRun, error) {
	records := core.SynthWPNRecords(seed, n)
	fs, err := core.ExtractFeatures(core.FilterValidLanding(records), core.FeatureOptions{})
	if err != nil {
		return nil, err
	}
	w := &streamRun{records: records, fs: fs, opts: core.ClusterOptions{Blocked: true}}
	w.inc = core.NewIncrementalClusterer(fs, w.opts)
	return w, nil
}

// clusterer hands out the clusterer built in set-up once, then a fresh
// one per call (built outside the timed region).
func (w *streamRun) clusterer() *core.IncrementalClusterer {
	if inc := w.inc; inc != nil {
		w.inc = nil
		return inc
	}
	return core.NewIncrementalClusterer(w.fs, w.opts)
}

// streamTimes holds the per-call latencies of a traced stream.
type streamTimes struct {
	add, recluster []time.Duration
}

// stream feeds every record through inc; with st non-nil it times each
// call.
func (w *streamRun) stream(inc *core.IncrementalClusterer, st *streamTimes) *core.ClusterResult {
	n := len(w.fs.Records)
	var res *core.ClusterResult
	for i := 0; i < n; i++ {
		if st == nil {
			inc.Add(i)
		} else {
			t := time.Now()
			inc.Add(i)
			st.add = append(st.add, time.Since(t))
		}
		if (i+1)%reclusterEvery == 0 || i == n-1 {
			if st == nil {
				res = inc.Recluster()
			} else {
				t := time.Now()
				res = inc.Recluster()
				st.recluster = append(st.recluster, time.Since(t))
			}
		}
	}
	return res
}

func (w *streamRun) result(inc *core.IncrementalClusterer, res *core.ClusterResult) (*mined, error) {
	if got := inc.Added(); got != len(w.fs.Records) {
		return nil, fmt.Errorf("stream: %d of %d records added", got, len(w.fs.Records))
	}
	if err := checkLabels(res.Labels, len(w.fs.Records)); err != nil {
		return nil, err
	}
	classes := make([]string, len(w.fs.Records))
	for i, r := range w.fs.Records {
		classes[i] = landingHostTruth(i, r)
	}
	return &mined{
		parts: map[string]string{
			"clusters": digest([]any{res.Labels, res.CutHeight, res.Silhouette}),
		},
		wpns: len(w.records),
		ari:  adjustedRand(res.Labels, classes),
		nmi:  normalizedMI(res.Labels, classes),
	}, nil
}

func (w *streamRun) inputs() int { return 1 }

func (w *streamRun) run(int) (*mined, time.Duration, error) {
	inc := w.clusterer()
	start := time.Now()
	res := w.stream(inc, nil)
	wall := time.Since(start)
	out, err := w.result(inc, res)
	return out, wall, err
}

func (w *streamRun) traced(_ int, m map[string]float64) (*mined, time.Duration, error) {
	inc := w.clusterer()
	st := &streamTimes{}
	start := time.Now()
	res := w.stream(inc, st)
	wall := time.Since(start)
	out, err := w.result(inc, res)
	if err != nil {
		return nil, 0, err
	}
	var addSum, reclSum time.Duration
	for _, d := range st.add {
		addSum += d
	}
	for _, d := range st.recluster {
		reclSum += d
	}
	s := inc.Stats()
	m["core.add_s"] = addSum.Seconds()
	m["core.recluster_s"] = reclSum.Seconds()
	m["core.blocks_reused_ratio"] = ratio(float64(s.BlocksReused), float64(s.BlocksReused+s.BlocksRebuilt))
	m["core.memo_hit_ratio"] = ratio(float64(s.SweepMemoHits),
		float64(s.SweepMemoHits+s.SweepMemoRefreshes+s.SweepRescoredBlocks))
	m["core.assigned_ratio"] = ratio(float64(s.AssignedToExisting), float64(s.Added))
	m["add_p50_us"] = quantileUS(st.add, 0.50)
	m["add_p99_us"] = quantileUS(st.add, 0.99)
	m["recluster_p50_ms"] = quantileUS(st.recluster, 0.50) / 1000
	m["core.valid_records"] = float64(len(w.fs.Records))
	m["core.clusters"] = float64(len(res.Clusters))
	return out, wall, nil
}

// checkLabels verifies a final labeling covers every record.
func checkLabels(labels []int, n int) error {
	if len(labels) != n {
		return fmt.Errorf("%d labels for %d records", len(labels), n)
	}
	for i, l := range labels {
		if l < 0 {
			return fmt.Errorf("record %d left unclustered", i)
		}
	}
	return nil
}
