package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"sort"
	"strconv"
	"strings"
	"time"

	"pushadminer/internal/stats"
)

// metricDef names one reported metric and its unit.
type metricDef struct {
	name, unit string
}

// endToEnd are the metrics of an untraced run (--trace 0). Every
// workload reports every one of them.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"cpu_ms_per_wpn", "ms"},
	{"peak_rss_mb", "MB"},
	{"campaign_nmi", "ratio"},
}

// perLayer are the metrics of a traced run (--trace 1). A layer a
// workload does not exercise reports 0.
var perLayer = []metricDef{
	{"wall_s", "s"},
	{"trace.overhead_s", "s"},
	{"host.steal_frac", "ratio"},

	{"webeco.build_s", "s"},
	{"webeco.tick_s", "s"},
	{"webeco.tick_calls", "count"},
	{"webeco.pushes", "count"},
	{"webeco.push_send_retries", "count"},
	{"webeco.push_sends_abandoned", "count"},

	{"vnet.requests", "count"},
	{"vnet.crawler_requests", "count"},
	{"vnet.request_p50_us", "us"},
	{"vnet.request_p99_us", "us"},
	{"vnet.new_conns", "count"},
	{"vnet.conn_reuse_ratio", "ratio"},
	{"vnet.request_errors", "count"},
	{"vnet.status_5xx", "count"},

	{"fcm.pending_calls", "count"},
	{"fcm.pending_nonzero_ratio", "ratio"},
	{"fcm.queue_collapsed", "count"},

	{"crawler.desktop_s", "s"},
	{"crawler.mobile_s", "s"},
	{"crawler.containers", "count"},
	{"crawler.records", "count"},
	{"crawler.visits", "count"},
	{"crawler.polls", "count"},
	{"crawler.visit_retries", "count"},
	{"crawler.visit_failures", "count"},
	{"crawler.poll_failures", "count"},
	{"crawler.breaker_fast_fails", "count"},
	{"crawler.dropped_notifications", "count"},
	{"crawler.containers_lost", "count"},
	{"failed_frac", "ratio"},

	{"chaos.faults_injected", "count"},
	{"chaos.reset", "count"},
	{"chaos.http_503", "count"},
	{"chaos.outage_503", "count"},
	{"chaos.truncate", "count"},
	{"chaos.blackhole", "count"},
	{"chaos.latency", "count"},
	{"chaos.container_crash", "count"},

	{"fleet.run_s", "s"},
	{"fleet.heartbeats", "count"},
	{"fleet.kills", "count"},
	{"fleet.restarts", "count"},
	{"fleet.containers_stolen", "count"},
	{"fleet.state_saves", "count"},
	{"fleet.state_fallbacks", "count"},
	{"fleet.state_bytes", "bytes"},

	{"core.filter_s", "s"},
	{"core.featurize_s", "s"},
	{"core.cluster_s", "s"},
	{"core.label_s", "s"},
	{"core.propagate_s", "s"},
	{"core.meta_s", "s"},
	{"core.valid_records", "count"},
	{"core.clusters", "count"},
	{"mal_precision", "ratio"},
	{"mal_recall", "ratio"},
	{"campaign_ari", "ratio"},

	{"core.blocks_s", "s"},
	{"core.block_linkage_s", "s"},
	{"core.cut_s", "s"},
	{"cluster.exact_pairs", "count"},
	{"cluster.exact_pair_frac", "ratio"},

	{"core.add_s", "s"},
	{"core.recluster_s", "s"},
	{"core.blocks_reused_ratio", "ratio"},
	{"core.memo_hit_ratio", "ratio"},
	{"core.assigned_ratio", "ratio"},
	{"add_p50_us", "us"},
	{"add_p99_us", "us"},
	{"recluster_p50_ms", "ms"},

	{"go.gc_cycles", "count"},
	{"go.gc_pause_s", "s"},
	{"go.alloc_bytes", "bytes"},
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line a run prints.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// fill returns every metric of defs, taking values from vals (absent
// means 0).
func fill(defs []metricDef, vals map[string]float64) map[string]metric {
	out := make(map[string]metric, len(defs))
	for _, d := range defs {
		out[d.name] = metric{Value: vals[d.name], Unit: d.unit}
	}
	return out
}

// median returns the median of xs (0 for none).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

// quantileUS returns the nearest-rank q-quantile of ds in microseconds
// (0 for none).
func quantileUS(ds []time.Duration, q float64) float64 {
	if len(ds) == 0 {
		return 0
	}
	return float64(stats.NewDurationECDF(ds).Quantile(q)) / float64(time.Microsecond)
}

// ratio returns a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// adjustedRand is the adjusted Rand index of two labelings of the same
// items (Hubert and Arabie): 1 for identical partitions, about 0 for
// independent ones.
func adjustedRand(a []int, b []string) float64 {
	type cell struct {
		x int
		y string
	}
	n := len(a)
	cont := make(map[cell]int)
	rows := make(map[int]int)
	cols := make(map[string]int)
	for i := 0; i < n; i++ {
		cont[cell{a[i], b[i]}]++
		rows[a[i]]++
		cols[b[i]]++
	}
	c2 := func(k int) float64 { return float64(k) * float64(k-1) / 2 }
	var index, sumA, sumB float64
	for _, v := range cont {
		index += c2(v)
	}
	for _, v := range rows {
		sumA += c2(v)
	}
	for _, v := range cols {
		sumB += c2(v)
	}
	expected := sumA * sumB / c2(n)
	maxIndex := (sumA + sumB) / 2
	if maxIndex == expected {
		return 1
	}
	return (index - expected) / (maxIndex - expected)
}

// normalizedMI is the normalized mutual information of two labelings of
// the same items, I(A;B) / ((H(A) + H(B)) / 2), also known as the
// V-measure: 1 for identical partitions, 0 for independent ones.
func normalizedMI(a []int, b []string) float64 {
	type cell struct {
		x int
		y string
	}
	n := float64(len(a))
	cont := make(map[cell]float64)
	rows := make(map[int]float64)
	cols := make(map[string]float64)
	for i := range a {
		cont[cell{a[i], b[i]}]++
		rows[a[i]]++
		cols[b[i]]++
	}
	var ha, hb, mi float64
	for _, v := range rows {
		ha -= v / n * math.Log(v/n)
	}
	for _, v := range cols {
		hb -= v / n * math.Log(v/n)
	}
	for c, v := range cont {
		mi += v / n * math.Log(v*n/(rows[c.x]*cols[c.y]))
	}
	if ha+hb == 0 {
		return 1
	}
	return 2 * mi / (ha + hb)
}

// digest hashes the JSON encoding of v.
func digest(v any) string {
	h := sha256.New()
	if err := json.NewEncoder(h).Encode(v); err != nil {
		panic(fmt.Sprintf("perfbench: digest: %v", err))
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// peakRSSMB reads the process's peak resident set size (VmHWM).
func peakRSSMB() (float64, error) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, "VmHWM:") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) < 2 {
			break
		}
		kb, err := strconv.ParseFloat(fields[1], 64)
		if err != nil {
			return 0, err
		}
		return kb / 1024, nil
	}
	return 0, fmt.Errorf("perfbench: no VmHWM in /proc/self/status")
}

// stealSeconds reads the CPU time the hypervisor stole from this
// machine's CPUs since boot (the steal column of /proc/stat, in
// USER_HZ ticks of 1/100 s). Other tenants of a shared host show here;
// a run reports the stolen share of its CPU capacity so its timings
// can be read against it.
func stealSeconds() float64 {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0
	}
	ticks, err := strconv.ParseFloat(f[8], 64)
	if err != nil {
		return 0
	}
	return ticks / 100
}
