package main

import (
	"context"
	"fmt"
	"io/fs"
	"net/http"
	"os"
	"path/filepath"
	"time"

	"pushadminer"
	"pushadminer/internal/browser"
	"pushadminer/internal/chaos"
	"pushadminer/internal/core"
	"pushadminer/internal/crawler"
	"pushadminer/internal/fleet"
	"pushadminer/internal/telemetry"
	"pushadminer/internal/webeco"
)

// studySpec sizes a study workload.
type studySpec struct {
	scale  float64
	window time.Duration
	mobile bool
	shards int
	// faults is a chaos profile string ("" = fault-free).
	faults string
	// webs is how many synthetic webs, each generated from its own
	// seed, a run studies. A web's size follows its seed, and the cost
	// per WPN, the peak memory and the clustering quality follow its
	// size and shape; pooling several webs keeps a run's figures steady
	// from one seed to the next.
	webs int
}

var (
	// studyDefaults is RunStudy as the README runs it: desktop + mobile,
	// 14 simulated days, scale 0.05, no chaos.
	studyDefaults = studySpec{scale: 0.05, window: 14 * 24 * time.Hour, mobile: true, webs: 3}
	// studyFaultsDefaults is the desktop study as a 4-shard fleet under
	// resets, 5xx bursts and worker kills, with no injected latency. At
	// a kill rate of 0.05 per heartbeat all four workers exhaust their
	// restart budget on about one web in twelve and the study fails;
	// at 0.01 a binomial estimate puts it near one in ten million.
	studyFaultsDefaults = studySpec{scale: 0.05, window: 14 * 24 * time.Hour, shards: 4,
		faults: "resets=0.02,errors=0.05,workercrashes=0.01", webs: 3}
)

// studyRun is one study workload instance: spec.webs synthetic webs,
// generated from seeds derived from the run's seed.
type studyRun struct {
	spec    studySpec
	seeds   []int64 // one per web
	workdir string
	prof    *chaos.Profile
	// cfg is the configuration RunStudy ran the last untraced call
	// with, its defaults filled in. The traced composition copies its
	// settings from there; only the web's seed differs between webs.
	cfg *pushadminer.StudyConfig
}

func newStudy(spec studySpec, seed int64, workdir string) (*studyRun, error) {
	prof, err := chaos.ParseProfile(spec.faults)
	if err != nil {
		return nil, err
	}
	w := &studyRun{spec: spec, workdir: workdir, prof: prof}
	for k := 0; k < spec.webs; k++ {
		w.seeds = append(w.seeds, subSeed(seed, k))
	}
	// Set-up generates each synthetic web once and tears it down. It
	// is the only input preparation a study has, and it warms the
	// runtime and the loopback listener before the timed calls.
	for k := range w.seeds {
		eco, err := webeco.New(w.ecoConfig(k))
		if err != nil {
			return nil, err
		}
		n := len(eco.SeedURLs())
		if err := eco.Close(); err != nil {
			return nil, err
		}
		if n == 0 {
			return nil, fmt.Errorf("study: web %d has no seed URLs", k)
		}
	}
	return w, nil
}

// subSeed derives the seed of web k from the run's seed; distinct run
// seeds give disjoint web seeds.
func subSeed(seed int64, k int) int64 { return seed*16 + int64(k) }

func (w *studyRun) inputs() int { return len(w.seeds) }

func (w *studyRun) ecoConfig(k int) webeco.Config {
	return webeco.Config{Seed: w.seeds[k], Scale: w.spec.scale, Chaos: w.prof}
}

// fleetDir makes a fresh shard-state directory inside the work
// directory, or returns "" when the workload runs unsharded.
func (w *studyRun) fleetDir() (string, error) {
	if w.spec.shards <= 1 {
		return "", nil
	}
	return os.MkdirTemp(w.workdir, "fleet-")
}

// campaignTruth maps a valid record to its webeco campaign; a record
// with no ad truth is a class of its own.
func campaignTruth(eco *webeco.Ecosystem) func(int, *crawler.WPNRecord) string {
	t := eco.Truth()
	return func(i int, r *crawler.WPNRecord) string {
		if at, ok := t.AdTruth(r.PayloadAdID); ok && at.IsAd {
			return fmt.Sprintf("campaign-%d", at.CampaignID)
		}
		return fmt.Sprintf("record-%d", i)
	}
}

// run is the untraced timed call on web k: pushadminer.RunStudy with
// the workload's configuration and the program's own defaults
// otherwise.
func (w *studyRun) run(k int) (*mined, time.Duration, error) {
	dir, err := w.fleetDir()
	if err != nil {
		return nil, 0, err
	}
	if dir != "" {
		defer os.RemoveAll(dir)
	}
	cfg := pushadminer.StudyConfig{
		Eco:              w.ecoConfig(k),
		CollectionWindow: w.spec.window,
		SkipMobile:       !w.spec.mobile,
		Shards:           w.spec.shards,
		FleetDir:         dir,
	}
	start := time.Now()
	s, err := pushadminer.RunStudy(cfg)
	wall := time.Since(start)
	if err != nil {
		return nil, 0, err
	}
	defer s.Close()
	cfg = s.Cfg // a copy, so the study itself can be collected
	w.cfg = &cfg
	if len(s.Records) == 0 {
		return nil, 0, fmt.Errorf("study collected no WPNs")
	}
	out, err := minedAnalysis(s.Records, s.Analysis, campaignTruth(s.Eco))
	if err != nil {
		return nil, 0, err
	}
	ev := s.Evaluate()
	out.precision, out.recall = ev.Precision(), ev.Recall()
	return out, wall, nil
}

// traced composes the same study from the modules' public functions,
// RunStudy's steps in RunStudy's order with the settings RunStudy used,
// and wraps the interfaces the crawler takes with timing wrappers. It
// needs an untraced call to have run first.
func (w *studyRun) traced(k int, m map[string]float64) (*mined, time.Duration, error) {
	if w.cfg == nil {
		return nil, 0, fmt.Errorf("study: traced call before an untraced one")
	}
	cfg := *w.cfg
	cfg.Eco.Seed = w.seeds[k]
	dir, err := w.fleetDir()
	if err != nil {
		return nil, 0, err
	}
	if dir != "" {
		defer os.RemoveAll(dir)
	}
	start := time.Now()

	t0 := time.Now()
	eco, err := webeco.New(cfg.Eco)
	m["webeco.build_s"] = time.Since(t0).Seconds()
	if err != nil {
		return nil, 0, err
	}
	defer eco.Close()
	reqsBefore := sumCounts(eco.Net.RequestCounts())

	drv := &timedDriver{PushDriver: eco}
	pend := &countingPending{PendingChecker: eco.Push}
	ns := &netStats{}
	// The crawler's own counters give the visits attempted.
	reg := telemetry.New()
	seeds := eco.SeedURLs()
	var deg crawler.Degradation
	var lastFaults map[string]int
	var records []*crawler.WPNRecord
	containers := 0

	crawl := func(device browser.DeviceType, real bool) error {
		crawlCfg := crawler.Config{
			Clock:            eco.Clock,
			NewClient:        func() *http.Client { return ns.wrapClient(eco.Net.ClientNoRedirect()) },
			Driver:           drv,
			Pending:          pend,
			Device:           device,
			RealDevice:       real,
			CollectionWindow: cfg.CollectionWindow,
			PumpWorkers:      cfg.PumpWorkers,
			BatchWindow:      cfg.BatchWindow,
			CrashPlan:        eco.CrashPlan(),
			FaultCounts:      eco.FaultCounts,
			Metrics:          reg,
		}
		t := time.Now()
		var res *crawler.Result
		if cfg.Shards > 1 {
			var rep *fleet.Report
			res, rep, err = fleet.Run(context.Background(), fleet.Config{
				Crawl:           crawlCfg,
				Shards:          cfg.Shards,
				Heartbeat:       cfg.ShardHeartbeat,
				MaxRestarts:     cfg.MaxShardRestarts,
				Dir:             filepath.Join(dir, device.String()),
				WorkerCrashPlan: eco.WorkerCrashPlan(),
			}, seeds)
			m["fleet.run_s"] += time.Since(t).Seconds()
			if rep != nil {
				m["fleet.heartbeats"] += float64(rep.Heartbeats)
				m["fleet.kills"] += float64(rep.Kills)
				m["fleet.restarts"] += float64(rep.Restarts)
				m["fleet.containers_stolen"] += float64(rep.ContainersStolen)
				m["fleet.state_saves"] += float64(rep.StateSaves)
				m["fleet.state_fallbacks"] += float64(rep.StateFallbacks)
			}
		} else {
			var c *crawler.Crawler
			if c, err = crawler.New(crawlCfg); err == nil {
				res, err = c.RunContext(context.Background(), seeds)
			}
		}
		m["crawler."+device.String()+"_s"] = time.Since(t).Seconds()
		if err != nil {
			return err
		}
		records = append(records, res.Records...)
		containers += res.Containers
		deg.Merge(res.Degradation)
		lastFaults = res.Degradation.Faults // cumulative over the ecosystem
		return nil
	}
	if err := crawl(browser.Desktop, false); err != nil {
		return nil, 0, err
	}
	if !cfg.SkipMobile {
		if err := crawl(browser.Mobile, true); err != nil {
			return nil, 0, err
		}
	}
	if dir != "" {
		m["fleet.state_bytes"] = float64(dirBytes(dir))
	}

	opts := cfg.Pipeline
	opts.Services = []core.BlocklistLookup{core.ServiceLookup{S: eco.VT}, core.ServiceLookup{S: eco.GSB}}
	now := eco.Clock.Now()
	opts.Scans = []time.Time{now, now.Add(cfg.RescanAfter)}
	if opts.Features.Workers == 0 {
		opts.Features.Workers = cfg.PumpWorkers
	}
	if opts.Labels.Workers == 0 {
		opts.Labels.Workers = cfg.PumpWorkers
	}
	a, err := tracedPipeline(records, opts, m)
	if err != nil {
		return nil, 0, err
	}
	wall := time.Since(start)

	m["vnet.requests"] = float64(sumCounts(eco.Net.RequestCounts()) - reqsBefore)
	ns.report(m)
	m["webeco.tick_s"] = float64(drv.busy.Load()) / 1e9
	m["webeco.tick_calls"] = float64(drv.calls.Load())
	m["webeco.pushes"] = float64(drv.pushes.Load())
	m["webeco.push_send_retries"] = float64(lastFaults["push_send_retries"])
	m["webeco.push_sends_abandoned"] = float64(lastFaults["push_sends_abandoned"])
	m["fcm.pending_calls"] = float64(pend.calls.Load())
	m["fcm.pending_nonzero_ratio"] = ratio(float64(pend.nonzero.Load()), float64(pend.calls.Load()))
	m["fcm.queue_collapsed"] = float64(lastFaults["push_queue_collapsed"])

	visits := float64(reg.Counter("crawler_visits").Value())
	m["crawler.containers"] = float64(containers)
	m["crawler.records"] = float64(len(records))
	m["crawler.visits"] = visits
	m["crawler.visit_retries"] = float64(deg.VisitRetries)
	m["crawler.visit_failures"] = float64(deg.VisitFailures)
	m["crawler.poll_failures"] = float64(deg.PollFailures)
	m["crawler.breaker_fast_fails"] = float64(deg.BreakerFastFails)
	m["crawler.dropped_notifications"] = float64(deg.DroppedNotifications)
	m["crawler.containers_lost"] = float64(deg.ContainersLost)
	failed := deg.VisitFailures + deg.PollFailures + deg.DroppedNotifications + deg.ContainersLost
	m["failed_frac"] = ratio(float64(failed), visits+m["crawler.polls"])

	total := 0
	for _, kind := range []string{"reset", "http_503", "outage_503", "truncate", "blackhole", "latency", "container_crash"} {
		n := lastFaults["chaos_"+kind]
		m["chaos."+kind] = float64(n)
		total += n
	}
	m["chaos.faults_injected"] = float64(total)
	out, err := minedAnalysis(records, a, campaignTruth(eco))
	return out, wall, err
}

func sumCounts(c map[string]int) int {
	n := 0
	for _, v := range c {
		n += v
	}
	return n
}

// dirBytes is the total size of the regular files under dir.
func dirBytes(dir string) int64 {
	var n int64
	_ = filepath.WalkDir(dir, func(_ string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil // a vanished file only shrinks the total
		}
		if d.Type().IsRegular() {
			if info, err := d.Info(); err == nil {
				n += info.Size()
			}
		}
		return nil
	})
	return n
}
