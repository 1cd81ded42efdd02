package crawler

import (
	"container/heap"
	"context"
	"fmt"
	"sort"
	"time"
)

// This file implements the shard-worker side of the crawl fleet
// (internal/fleet owns the coordinator). A ShardWorker owns a disjoint
// subset of the global container set — its own browsers, per-container
// circuit breakers, pump-worker pool, and suspension heap — and exposes
// the crawl's pump phases as individual calls so the coordinator can
// run one global tick across all shards: poll everywhere, decide
// whether anything arrived, dispatch + advance the shared clock once,
// click everywhere, then merge the shards' records serially in
// container-id order. Records leave the worker with ID unassigned; the
// coordinator mints IDs on its serial merge path, which is what makes a
// fleet run byte-identical to the single-process crawl.

// ShardSeed is one seed URL with its position in the *global* seed
// list. The container created for it gets id Index+1 — the same id the
// single-process crawler would mint — so cross-shard id-order merges
// reproduce the single-process record order.
type ShardSeed struct {
	Index int    `json:"index"`
	URL   string `json:"url"`
}

// TickStatus is a worker's scheduling state after a call: the earliest
// pending container resume and how many resumes remain queued. The
// coordinator takes the minimum across shards to find the next global
// event, exactly as the single-process monitor peeks its own heap.
type TickStatus struct {
	NextResume time.Time
	HasResume  bool
	Queued     int
}

// ShardSeedOutcome reports one seed visit, keyed by global seed index.
type ShardSeedOutcome struct {
	Index      int
	Requested  bool // page requested notification permission (an NPR)
	Registered bool // visit produced a live, subscribed container
}

// ShardSeedReport is the result of a worker's seeding phase.
type ShardSeedReport struct {
	Outcomes []ShardSeedOutcome
	Status   TickStatus
}

// TickPoll is the result of a worker's poll phase for one tick.
type TickPoll struct {
	Due    int  // containers in this tick's batch
	Any    bool // any poll returned messages
	Status TickStatus
}

// TickItem is one container's contribution to a tick: its records
// (IDs unassigned) and the §6.2 additional-subscription URLs, in
// outcome order.
type TickItem struct {
	ContainerID    int
	Records        []*WPNRecord
	AdditionalURLs []string
}

// TickResult is the result of a worker's click+fold phase: non-empty
// items in ascending container-id order.
type TickResult struct {
	Items []TickItem
}

// ShardFinish is a worker's end-of-crawl accounting: its Degradation
// tallies with the final per-container losses (dropped notifications,
// undeliverable queued messages) folded in.
type ShardFinish struct {
	Degradation Degradation
}

// ShardWorker drives one shard's containers through coordinator-paced
// tick phases. All methods are called by one goroutine at a time (the
// coordinator serializes per-shard calls); distinct workers may run
// their phases concurrently — all cross-shard state (the clock, the
// push scheduler, record IDs) is owned by the coordinator.
type ShardWorker struct {
	c     *Crawler
	r     *run
	id    int
	seeds []ShardSeed

	live    []*container
	resumes containerHeap
	batch   []*batchItem

	// dirty marks shard state changed since the last TakeDirty, so the
	// transport persists exactly the ticks that mutated something.
	dirty bool
	enc   stateEncoder
}

// NewShardWorker builds a worker for one shard of the fleet. seeds
// carry global indices; cfg is the same crawl config every shard and
// the coordinator share (checkpointing fields are ignored — shard
// durability is the transport's job).
func NewShardWorker(ctx context.Context, cfg Config, shard int, seeds []ShardSeed) (*ShardWorker, error) {
	if cfg.Clock == nil || cfg.NewClient == nil || cfg.Driver == nil {
		return nil, fmt.Errorf("crawler: Clock, NewClient and Driver are required")
	}
	if ctx == nil {
		ctx = context.Background()
	}
	cfg = cfg.withDefaults()
	c := &Crawler{cfg: cfg, tel: newCrawlMetrics(cfg.Metrics)}
	w := &ShardWorker{c: c, id: shard, seeds: seeds}
	w.r = &run{
		c:        c,
		cfg:      &c.cfg,
		ctx:      ctx,
		res:      &Result{},
		occ:      make(map[string]int),
		restored: make(map[string]*WPNRecord),
	}
	return w, nil
}

// ShardID returns the worker's shard number.
func (w *ShardWorker) ShardID() int { return w.id }

// Containers returns how many containers the worker currently owns.
func (w *ShardWorker) Containers() int { return len(w.live) }

// ShardHealth is one worker's live-introspection line, served through
// the fleet's /fleetz endpoint: container ownership, scheduling
// pressure, and circuit-breaker posture (how many per-container host
// circuits sit in each state — a fleet-wide "open" spike is the first
// visible symptom of a push-service outage).
type ShardHealth struct {
	Shard      int            `json:"shard"`
	Containers int            `json:"containers"`
	Dead       int            `json:"dead,omitempty"`
	Queued     int            `json:"queued"`
	Collected  int            `json:"collected"`
	Breakers   map[string]int `json:"breakers,omitempty"`
}

// Health snapshots the worker's introspection state. Called on the
// coordinator's serial path (same discipline as every worker method).
func (w *ShardWorker) Health() *ShardHealth {
	h := &ShardHealth{Shard: w.id, Containers: len(w.live), Queued: len(w.resumes)}
	for _, ct := range w.live {
		if ct.dead {
			h.Dead++
		}
		h.Collected += ct.collected
		for _, hs := range ct.brk.Export() {
			if h.Breakers == nil {
				h.Breakers = make(map[string]int, 2)
			}
			h.Breakers[hs.State]++
		}
	}
	return h
}

// TakeDirty reports whether shard state changed since the last call,
// clearing the flag.
func (w *ShardWorker) TakeDirty() bool {
	d := w.dirty
	w.dirty = false
	return d
}

// Seed visits the shard's seed URLs in parallel containers and reports
// per-seed outcomes for the coordinator's global NPR list. Containers
// are created with their global ids before any visit.
func (w *ShardWorker) Seed() (*ShardSeedReport, error) {
	containers := make([]*container, len(w.seeds))
	urls := make([]string, len(w.seeds))
	for i, s := range w.seeds {
		urls[i] = s.URL
		containers[i] = w.c.newContainerWithID(s.Index+1, s.URL)
	}
	live, outcomes := w.r.seedContainers(containers, urls)
	w.live = live
	w.resumes = make(containerHeap, len(live))
	copy(w.resumes, live)
	heap.Init(&w.resumes)
	w.r.end = w.c.cfg.Clock.Now().Add(w.c.cfg.CollectionWindow)
	w.dirty = true

	rep := &ShardSeedReport{Status: w.status()}
	for i, oc := range outcomes {
		rep.Outcomes = append(rep.Outcomes, ShardSeedOutcome{
			Index: w.seeds[i].Index, Requested: oc.requested, Registered: oc.registered,
		})
	}
	return rep, nil
}

func (w *ShardWorker) status() TickStatus {
	st := TickStatus{Queued: len(w.resumes)}
	if len(w.resumes) > 0 {
		st.NextResume = w.resumes[0].nextResume
		st.HasResume = true
	}
	return st
}

// Poll runs the tick's batch collection and poll phase (pump phases
// 1a/1b): due containers are popped from the suspension heap (crash
// plans consulted), live-window containers joined in, then every
// container in the batch polls the push service in parallel and the
// outcomes are classified serially. The batch stays open until Click.
// final selects the end-of-window drain batch instead.
func (w *ShardWorker) Poll(now time.Time, final bool) (*TickPoll, error) {
	popped := len(w.resumes) > 0 && !w.resumes[0].nextResume.After(now)
	if final {
		w.batch = w.r.finalBatch(w.live)
	} else {
		w.batch = w.r.collectDue(&w.resumes, w.live, now)
	}
	if popped || len(w.batch) > 0 {
		w.dirty = true
	}
	any := w.r.phasePoll(w.batch, w.c.tel.enabled)
	return &TickPoll{Due: len(w.batch), Any: any, Status: w.status()}, nil
}

// Dispatch runs pump phase 2 on the open batch. The coordinator calls
// it only on ticks where some shard's poll returned messages, before
// advancing the shared clock by ClickDelay.
func (w *ShardWorker) Dispatch() error {
	w.r.phaseDispatch(w.batch, w.c.tel.enabled)
	return nil
}

// Click runs pump phase 4 (auto-clicks + landing-page subscription
// visits) and folds the batch into container state, returning the
// tick's records (IDs unassigned) and additional URLs per container.
// On ticks with no messages anywhere the coordinator skips Dispatch
// and the clock advance and calls Click directly; the phases are
// no-ops then and the call just closes the batch.
func (w *ShardWorker) Click() (*TickResult, error) {
	tel := w.c.tel.enabled
	w.r.phaseClick(w.batch, tel)
	res := &TickResult{}
	for _, it := range w.batch {
		recs, additional := w.r.foldItem(it)
		if len(recs) > 0 || len(additional) > 0 {
			res.Items = append(res.Items, TickItem{
				ContainerID: it.ct.id, Records: recs, AdditionalURLs: additional,
			})
		}
	}
	w.r.observeBatchLatency(w.batch, tel)
	w.batch = nil
	return res, nil
}

// Finish returns the shard's final accounting: its Degradation with
// the end-of-crawl per-container losses folded in, mirroring the
// single-process finish.
func (w *ShardWorker) Finish() (*ShardFinish, error) {
	deg := w.r.res.Degradation
	for _, ct := range w.live {
		deg.DroppedNotifications += ct.br.DroppedNotifications()
	}
	if w.r.cfg.Pending != nil {
		for _, tok := range w.r.lostTokens {
			deg.RecordsDroppedEst += w.r.cfg.Pending.Pending(tok)
		}
	}
	return &ShardFinish{Degradation: deg}, nil
}

// Adopt transfers another (dead) shard's persisted containers into this
// worker — the work-stealing rebalance. The orphans join the live set
// and the suspension heap exactly as their last saved state left them,
// and the dead shard's Degradation tallies and lost tokens fold in so
// the fleet's final aggregate misses nothing.
func (w *ShardWorker) Adopt(st *ShardState) error {
	if err := w.checkState(st); err != nil {
		return err
	}
	for i := range st.Containers {
		// Chain-recorder state never crosses shards: its span IDs
		// reference the dead shard's tracer, and restoring them against
		// this worker's tracer would parent new events under unrelated
		// spans. Adopted chains restart as roots instead.
		st.Containers[i].Chain = nil
		ct := w.c.containerFromState(&st.Containers[i])
		w.live = append(w.live, ct)
		if st.Containers[i].InHeap {
			heap.Push(&w.resumes, ct)
		}
	}
	sort.Slice(w.live, func(i, j int) bool { return w.live[i].id < w.live[j].id })
	w.seeds = append(w.seeds, st.Seeds...)
	sort.Slice(w.seeds, func(i, j int) bool { return w.seeds[i].Index < w.seeds[j].Index })
	w.enc.seeds = nil
	w.r.res.Degradation.Merge(st.Degradation)
	w.r.lostTokens = append(w.r.lostTokens, st.LostTokens...)
	w.dirty = true
	return nil
}

func (w *ShardWorker) checkState(st *ShardState) error {
	if st.Version != ShardStateVersion {
		return fmt.Errorf("crawler: shard state version %d, want %d", st.Version, ShardStateVersion)
	}
	if dev := w.c.cfg.Device.String(); st.Device != dev {
		return fmt.Errorf("crawler: shard state is for device %q, this worker is %q", st.Device, dev)
	}
	return nil
}
