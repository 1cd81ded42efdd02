package crawler

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"time"
)

// CheckpointVersion is bumped when the on-disk format changes
// incompatibly; LoadCheckpoint rejects other versions.
const CheckpointVersion = 1

// ContainerCursor is the persisted position of one container: enough to
// audit where a crawl stood when it was killed. Resume does not restore
// cursors directly — it replays the deterministic simulation from the
// epoch and deduplicates records against the checkpoint — but the
// cursors make the checkpoint a complete, inspectable crawl snapshot.
type ContainerCursor struct {
	ID           int                  `json:"id"`
	SeedURL      string               `json:"seed_url"`
	ClientID     string               `json:"client_id"`
	RegisteredAt time.Time            `json:"registered_at"`
	ActiveUntil  time.Time            `json:"active_until"`
	NextResume   time.Time            `json:"next_resume"`
	Collected    int                  `json:"collected"`
	Cycles       int                  `json:"cycles"`
	Recoveries   int                  `json:"recoveries"`
	PollFails    int                  `json:"poll_fails,omitempty"`
	Dead         bool                 `json:"dead,omitempty"`
	Sources      map[string]string    `json:"sources,omitempty"`   // token → source URL
	RegTimes     map[string]time.Time `json:"reg_times,omitempty"` // token → registration time
}

// Checkpoint is the JSON crawl snapshot written to Config.CheckpointPath:
// the records collected so far, per-container cursors, and the
// degradation tallies at write time.
type Checkpoint struct {
	Version int       `json:"version"`
	Device  string    `json:"device"`
	SimTime time.Time `json:"sim_time"`
	NextID  int       `json:"next_id"`

	SeedURLs       []string `json:"seed_urls,omitempty"`
	NPRURLs        []string `json:"npr_urls,omitempty"`
	AdditionalURLs []string `json:"additional_urls,omitempty"`
	Containers     int      `json:"containers"`

	Records     []*WPNRecord      `json:"records,omitempty"`
	Cursors     []ContainerCursor `json:"cursors,omitempty"`
	Degradation Degradation       `json:"degradation"`
}

// snapshot captures the run's current state as a Checkpoint.
func (r *run) snapshot(live []*container) *Checkpoint {
	cp := &Checkpoint{
		Version:        CheckpointVersion,
		Device:         r.cfg.Device.String(),
		SimTime:        r.cfg.Clock.Now(),
		NextID:         r.c.nextID,
		SeedURLs:       r.res.SeedURLs,
		NPRURLs:        r.res.NPRURLs,
		AdditionalURLs: r.res.AdditionalURLs,
		Containers:     r.res.Containers,
		Records:        r.res.Records,
		Degradation:    r.res.Degradation,
	}
	for _, ct := range live {
		cp.Cursors = append(cp.Cursors, ct.cursor())
	}
	return cp
}

// cursor captures the container's persisted position.
func (ct *container) cursor() ContainerCursor {
	return ContainerCursor{
		ID:           ct.id,
		SeedURL:      ct.seedURL,
		ClientID:     ct.clientID,
		RegisteredAt: ct.registeredAt,
		ActiveUntil:  ct.activeUntil,
		NextResume:   ct.nextResume,
		Collected:    ct.collected,
		Cycles:       ct.cycles,
		Recoveries:   ct.recoveries,
		PollFails:    ct.pollFails,
		Dead:         ct.dead,
		Sources:      ct.sourceByToken,
		RegTimes:     ct.regTimeByToken,
	}
}

// maybeCheckpoint writes a periodic checkpoint when CheckpointEvery of
// simulated time has elapsed since the last write.
func (r *run) maybeCheckpoint(live []*container) {
	if r.cfg.CheckpointPath == "" {
		return
	}
	now := r.cfg.Clock.Now()
	if now.Sub(r.lastCheckpoint) < r.cfg.CheckpointEvery {
		return
	}
	r.lastCheckpoint = now
	r.writeCheckpoint(live)
}

// writeCheckpoint persists the current state if checkpointing is
// enabled. Write errors are not fatal to the crawl (a full disk must
// not kill a week of collection); success is counted in the report.
func (r *run) writeCheckpoint(live []*container) {
	if r.cfg.CheckpointPath == "" {
		return
	}
	if err := SaveCheckpoint(r.cfg.CheckpointPath, r.snapshot(live)); err == nil {
		r.res.Degradation.CheckpointWrites++
		r.c.tel.checkpointWrites.Inc()
	}
}

// SaveCheckpoint atomically writes a checkpoint: marshal to compact
// JSON, write to a temp file in the same directory, fsync, rename. Before the final
// rename, the previous checkpoint (if any) is rotated to path+".bak",
// so even a corrupted primary — a crash between the renames, a torn
// write on a dying disk — leaves one complete earlier snapshot for
// LoadCheckpointFallback to resume from.
func SaveCheckpoint(path string, cp *Checkpoint) error {
	data, err := json.Marshal(cp)
	if err != nil {
		return fmt.Errorf("crawler: marshal checkpoint: %w", err)
	}
	if err := WriteFileDurable(path, data); err != nil {
		return fmt.Errorf("crawler: checkpoint: %w", err)
	}
	return nil
}

// WriteFileDurable is the shared atomic-write-with-backup-rotation used
// by run checkpoints and fleet shard state: temp file in the same
// directory, fsync, rotate the existing file to .bak, rename into
// place. The rotation is best-effort — failing to keep a backup must
// not fail the write.
func WriteFileDurable(path string, data []byte) error {
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, filepath.Base(path)+".tmp*")
	if err != nil {
		return fmt.Errorf("temp file: %w", err)
	}
	tmpName := tmp.Name()
	_, werr := tmp.Write(data)
	if werr == nil {
		werr = tmp.Sync()
	}
	if cerr := tmp.Close(); werr == nil {
		werr = cerr
	}
	if werr != nil {
		os.Remove(tmpName)
		return fmt.Errorf("write: %w", werr)
	}
	if _, err := os.Stat(path); err == nil {
		os.Rename(path, path+".bak")
	}
	if err := os.Rename(tmpName, path); err != nil {
		os.Remove(tmpName)
		return fmt.Errorf("commit: %w", err)
	}
	return nil
}

// readJSON decodes the file at path into v; what names the file kind
// in parse errors. Read errors are returned as they are, so callers
// can test them with os.IsNotExist.
func readJSON(path, what string, v any) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(data, v); err != nil {
		return fmt.Errorf("crawler: parse %s %s: %w", what, path, err)
	}
	return nil
}

// loadWithBackup loads path, falling back to the .bak rotated by
// WriteFileDurable when the primary is missing, truncated, corrupt, or
// version-mismatched — the states a crash mid-write can leave behind.
// fellBack reports that the backup was used. When both copies are
// unusable the primary's error is returned (preserving os.IsNotExist
// for fresh starts).
func loadWithBackup[T any](path string, load func(string) (*T, error)) (v *T, fellBack bool, err error) {
	v, err = load(path)
	if err == nil {
		return v, false, nil
	}
	if bv, berr := load(path + ".bak"); berr == nil {
		return bv, true, nil
	}
	return nil, false, err
}

// LoadCheckpoint reads and validates a checkpoint file.
func LoadCheckpoint(path string) (*Checkpoint, error) {
	var cp Checkpoint
	if err := readJSON(path, "checkpoint", &cp); err != nil {
		return nil, err
	}
	if cp.Version != CheckpointVersion {
		return nil, fmt.Errorf("crawler: checkpoint %s: version %d, want %d", path, cp.Version, CheckpointVersion)
	}
	return &cp, nil
}

// LoadCheckpointFallback loads a checkpoint, falling back to the .bak
// rotated by SaveCheckpoint (see loadWithBackup). fellBack reports
// that the backup was used, so callers can note the degradation.
func LoadCheckpointFallback(path string) (cp *Checkpoint, fellBack bool, err error) {
	return loadWithBackup(path, LoadCheckpoint)
}

// loadCheckpoint merges a previous checkpoint into this run for resume:
// records are indexed by content key so the deterministic replay can
// hand back the already-collected copies instead of duplicating them. A
// missing file is a fresh start, not an error; a corrupt file falls
// back to the last good .bak with a Degradation note rather than
// failing the run.
func (r *run) loadCheckpoint() error {
	cp, fellBack, err := LoadCheckpointFallback(r.cfg.CheckpointPath)
	if os.IsNotExist(err) {
		return nil
	}
	if err != nil {
		return err
	}
	if fellBack {
		r.res.Degradation.CheckpointFallbacks++
	}
	if cp.Device != r.cfg.Device.String() {
		return fmt.Errorf("crawler: checkpoint %s is for device %q, this crawl is %q",
			r.cfg.CheckpointPath, cp.Device, r.cfg.Device)
	}
	occ := make(map[string]int)
	for _, rec := range cp.Records {
		k := recordKey(rec)
		occ[k]++
		r.restored[fmt.Sprintf("%s\x1e%d", k, occ[k])] = rec
	}
	r.cpNextID = cp.NextID
	r.res.Degradation.ResumedFromCheckpoint = true
	return nil
}
