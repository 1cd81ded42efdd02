package crawler

import (
	"bytes"
	"container/heap"
	"context"
	"encoding/json"
	"fmt"
	"time"

	"pushadminer/internal/httpx"
	"pushadminer/internal/serviceworker"
	"pushadminer/internal/telemetry"
)

// ShardStateVersion is bumped when the shard-state format changes
// incompatibly; LoadShardState rejects other versions.
const ShardStateVersion = 1

// ShardContainerState is one container's complete persisted state:
// the checkpoint cursor plus everything a restarted worker needs to
// resume the container *losslessly* — circuit-breaker host states (so
// a chaos 5xx burst is not re-probed at full rate after failover),
// service-worker registrations with their push subscriptions, the
// dropped-notification tally, cookies (tracking ad networks
// frequency-cap returning browsers they recognize by cookie, §8), and
// whether the container sits in the suspension heap (heap membership is
// not derivable from the cursor: a container can die or hit its cap
// after being re-queued, and a spurious or missing resume event would
// shift tick times and break parity).
type ShardContainerState struct {
	Cursor               ContainerCursor          `json:"cursor"`
	InHeap               bool                     `json:"in_heap,omitempty"`
	Breaker              []httpx.BreakerHostState `json:"breaker,omitempty"`
	DroppedNotifications int                      `json:"dropped_notifications,omitempty"`
	Cookies              []httpx.CookieRecord     `json:"cookies,omitempty"`
	// Chain is the browser's trace chain-recorder linkage state (span
	// IDs future events parent under). Present only when tracing is on;
	// its IDs reference the shard's tracer, which the fleet transport
	// owns across restarts — so a restored worker keeps extending the
	// chains the lost one left open and the stitched fleet trace stays
	// byte-identical to the single-process trace. Adopt drops it: the
	// IDs are meaningless against another shard's tracer.
	Chain *telemetry.ChainState `json:"chain,omitempty"`
	// Registrations come last: EncodeState splices their cached
	// encodings in after the rest of the object.
	Registrations []*serviceworker.Registration `json:"registrations,omitempty"`
}

// ShardState is one shard worker's durable snapshot, written by the
// fleet transport at the end of every tick that changed something.
// Restart-with-resume deserializes it back into a ShardWorker with no
// HTTP and no replay: because the fleet kills workers only at tick
// boundaries (after the save), the restored worker continues exactly
// where the lost one stopped.
type ShardState struct {
	Version int       `json:"version"`
	Shard   int       `json:"shard"`
	Device  string    `json:"device"`
	SimTime time.Time `json:"sim_time"`
	// End is the collection-window end the worker computed at seeding
	// (heap re-queue decisions depend on it).
	End time.Time `json:"end"`

	// LostTokens are subscriptions lost in container crashes (their
	// still-queued messages become RecordsDroppedEst at finish).
	LostTokens  []string    `json:"lost_tokens,omitempty"`
	Degradation Degradation `json:"degradation"`

	// Seeds and Containers come last: EncodeState appends them to the
	// encoded header.
	Seeds      []ShardSeed           `json:"seeds,omitempty"`
	Containers []ShardContainerState `json:"containers,omitempty"`
}

// State snapshots the worker for durable storage.
func (w *ShardWorker) State() (*ShardState, error) {
	st := w.stateHeader()
	st.Seeds = w.seeds
	inHeap := w.inHeap()
	for _, ct := range w.live {
		cs := ct.shardState(inHeap[ct.id])
		cs.Registrations = ct.br.Registrations()
		st.Containers = append(st.Containers, cs)
	}
	return st, nil
}

// stateHeader is the worker's state without seeds and containers.
func (w *ShardWorker) stateHeader() *ShardState {
	return &ShardState{
		Version:     ShardStateVersion,
		Shard:       w.id,
		Device:      w.c.cfg.Device.String(),
		SimTime:     w.c.cfg.Clock.Now(),
		End:         w.r.end,
		LostTokens:  w.r.lostTokens,
		Degradation: w.r.res.Degradation,
	}
}

// inHeap reports which container ids sit in the suspension heap.
func (w *ShardWorker) inHeap() map[int]bool {
	m := make(map[int]bool, len(w.resumes))
	for _, ct := range w.resumes {
		m[ct.id] = true
	}
	return m
}

// shardState is the container's persisted state without its
// registrations.
func (ct *container) shardState(inHeap bool) ShardContainerState {
	return ShardContainerState{
		Cursor:               ct.cursor(),
		InHeap:               inHeap,
		Breaker:              ct.brk.Export(),
		DroppedNotifications: ct.br.DroppedNotifications(),
		Cookies:              ct.br.ExportCookies(),
		Chain:                ct.br.ExportChain(),
	}
}

// stateEncoder is what EncodeState keeps between saves.
type stateEncoder struct {
	buf  bytes.Buffer
	jenc *json.Encoder // writes into buf
	// seeds is the encoded seed list; nil until first needed and
	// after Adopt changes the list.
	seeds []byte
	// regs holds each registration's encoding, keyed by pointer.
	regs map[*serviceworker.Registration][]byte
}

// EncodeState returns the worker's durable state as compact JSON: the
// bytes json.Marshal(w.State()) gives. The seed list and every
// service-worker registration are encoded once and spliced into later
// saves, so a save re-encodes only what can change: the header and,
// per container, the cursor, heap flag, breaker, cookies, dropped
// count and trace chain. That relies on two invariants: a browser
// never mutates a Registration after creating it (it only appends new
// ones), and w.seeds changes only in Adopt, which drops the cached
// seeds. The returned slice is valid until the next call.
func (w *ShardWorker) EncodeState() ([]byte, error) {
	e := &w.enc
	if e.jenc == nil {
		e.jenc = json.NewEncoder(&e.buf)
		e.regs = make(map[*serviceworker.Registration][]byte)
	}
	e.buf.Reset()
	if err := e.open(w.stateHeader()); err != nil {
		return nil, err
	}
	if len(w.seeds) > 0 {
		if e.seeds == nil {
			b, err := json.Marshal(w.seeds)
			if err != nil {
				return nil, fmt.Errorf("crawler: marshal shard seeds: %w", err)
			}
			e.seeds = b
		}
		e.buf.WriteString(`,"seeds":`)
		e.buf.Write(e.seeds)
	}
	if len(w.live) > 0 {
		inHeap := w.inHeap()
		e.buf.WriteString(`,"containers":[`)
		for i, ct := range w.live {
			if i > 0 {
				e.buf.WriteByte(',')
			}
			cs := ct.shardState(inHeap[ct.id])
			if err := e.open(&cs); err != nil {
				return nil, err
			}
			if err := e.registrations(ct.br.Registrations()); err != nil {
				return nil, err
			}
			e.buf.WriteByte('}')
		}
		e.buf.WriteByte(']')
	}
	e.buf.WriteByte('}')
	return e.buf.Bytes(), nil
}

// open appends v's encoding without its closing brace, so fields can
// follow. v must have a field that is never omitted, else the next
// field would follow a bare "{".
func (e *stateEncoder) open(v any) error {
	if err := e.jenc.Encode(v); err != nil {
		return fmt.Errorf("crawler: marshal shard state: %w", err)
	}
	e.buf.Truncate(e.buf.Len() - len("}\n"))
	return nil
}

// registrations appends the "registrations" field from the cached
// encodings, encoding registrations not seen before.
func (e *stateEncoder) registrations(regs []*serviceworker.Registration) error {
	if len(regs) == 0 {
		return nil
	}
	e.buf.WriteString(`,"registrations":[`)
	for i, reg := range regs {
		b, ok := e.regs[reg]
		if !ok {
			var err error
			if b, err = json.Marshal(reg); err != nil {
				return fmt.Errorf("crawler: marshal registration: %w", err)
			}
			e.regs[reg] = b
		}
		if i > 0 {
			e.buf.WriteByte(',')
		}
		e.buf.Write(b)
	}
	e.buf.WriteByte(']')
	return nil
}

// RestoreShardWorker rebuilds a worker from its persisted state: fresh
// browsers and breakers are constructed (pure, no HTTP) and rehydrated
// with the saved registrations, breaker host states, cookies, and
// tallies. The restored worker is byte-equivalent to the lost one at
// the tick boundary the state was saved on.
func RestoreShardWorker(ctx context.Context, cfg Config, st *ShardState) (*ShardWorker, error) {
	w, err := NewShardWorker(ctx, cfg, st.Shard, st.Seeds)
	if err != nil {
		return nil, err
	}
	if err := w.checkState(st); err != nil {
		return nil, err
	}
	w.r.end = st.End
	w.r.res.Degradation = st.Degradation
	w.r.lostTokens = st.LostTokens
	for i := range st.Containers {
		ct := w.c.containerFromState(&st.Containers[i])
		w.live = append(w.live, ct)
		if st.Containers[i].InHeap {
			w.resumes = append(w.resumes, ct)
		}
	}
	heap.Init(&w.resumes)
	return w, nil
}

// containerFromState rebuilds one container from its persisted state.
// No HTTP happens: the browser's registrations were announced when
// first created and the push service's token state lives server-side.
func (c *Crawler) containerFromState(cs *ShardContainerState) *container {
	cur := &cs.Cursor
	ct := c.newContainerWithID(cur.ID, cur.SeedURL)
	ct.registeredAt = cur.RegisteredAt
	ct.activeUntil = cur.ActiveUntil
	ct.nextResume = cur.NextResume
	ct.collected = cur.Collected
	ct.cycles = cur.Cycles
	ct.recoveries = cur.Recoveries
	ct.pollFails = cur.PollFails
	ct.dead = cur.Dead
	if cur.Sources != nil {
		ct.sourceByToken = cur.Sources
	}
	if cur.RegTimes != nil {
		ct.regTimeByToken = cur.RegTimes
	}
	ct.brk.Restore(cs.Breaker)
	ct.br.RestoreSession(cs.Registrations, cs.DroppedNotifications)
	ct.br.RestoreCookies(cs.Cookies)
	ct.br.RestoreChain(cs.Chain)
	return ct
}

// LoadShardState reads a shard state file, falling back to the rotated
// .bak when the primary is missing, truncated, or corrupt. fellBack
// reports that the backup was used.
func LoadShardState(path string) (st *ShardState, fellBack bool, err error) {
	return loadWithBackup(path, loadShardState)
}

func loadShardState(path string) (*ShardState, error) {
	var st ShardState
	if err := readJSON(path, "shard state", &st); err != nil {
		return nil, err
	}
	if st.Version != ShardStateVersion {
		return nil, fmt.Errorf("crawler: shard state %s: version %d, want %d", path, st.Version, ShardStateVersion)
	}
	return &st, nil
}
