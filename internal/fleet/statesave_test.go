package fleet

import (
	"bytes"
	"context"
	"encoding/json"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"

	"pushadminer/internal/crawler"
)

// checkStateSaves makes every shard-state save of the test check its
// bytes against the reference encoding, json.Marshal(w.State()): they
// must decode to equal states, and are expected to be byte-identical.
// It returns the number of saves checked.
func checkStateSaves(t *testing.T) *atomic.Int64 {
	t.Helper()
	var n atomic.Int64
	decode := func(data []byte) *crawler.ShardState {
		var st crawler.ShardState
		if err := json.Unmarshal(data, &st); err != nil {
			t.Errorf("decode shard state: %v", err)
		}
		return &st
	}
	onStateSave = func(w *crawler.ShardWorker, data []byte) {
		n.Add(1)
		st, err := w.State()
		if err != nil {
			t.Errorf("shard %d: State: %v", w.ShardID(), err)
			return
		}
		want, err := json.Marshal(st)
		if err != nil {
			t.Errorf("shard %d: marshal State: %v", w.ShardID(), err)
			return
		}
		if !reflect.DeepEqual(decode(data), decode(want)) {
			t.Errorf("shard %d: EncodeState decodes to a different state than State:\n%s",
				w.ShardID(), firstDiff(want, data))
		} else if !bytes.Equal(data, want) {
			t.Errorf("shard %d: EncodeState is not byte-identical to json.Marshal(State):\n%s",
				w.ShardID(), firstDiff(want, data))
		}
	}
	t.Cleanup(func() { onStateSave = nil })
	return &n
}

// TestEncodeStateMatchesState checks every save of two fleet runs
// against the reference encoding: one under worker kills, where
// restarted workers start with empty encoding caches, and one with work
// stealing, where Adopt rebuilds the seed list.
func TestEncodeStateMatchesState(t *testing.T) {
	t.Run("restarts", func(t *testing.T) {
		saves := checkStateSaves(t)
		_, rep := fleetRun(t, 11, chaosProfile(0.05), 4)
		if rep.Restarts == 0 {
			t.Error("no restarts; the empty-cache path went unchecked")
		}
		if got := saves.Load(); got == 0 || got != int64(rep.StateSaves) {
			t.Errorf("checked %d saves, report counts %d", got, rep.StateSaves)
		}
	})
	t.Run("stealing", func(t *testing.T) {
		saves := checkStateSaves(t)
		eco := newEco(t, 11, nil)
		_, rep, err := Run(context.Background(), Config{
			Crawl:       crawlConfig(eco, nil),
			Shards:      4,
			MaxRestarts: -1,
			Dir:         t.TempDir(),
			WorkerCrashPlan: func(workerID string, cycle int) bool {
				return strings.HasPrefix(workerID, "shard-1#") && cycle == 2
			},
		}, eco.SeedURLs())
		if err != nil {
			t.Fatal(err)
		}
		if rep.ContainersStolen == 0 {
			t.Error("no containers stolen; the Adopt path went unchecked")
		}
		if got := saves.Load(); got == 0 || got != int64(rep.StateSaves) {
			t.Errorf("checked %d saves, report counts %d", got, rep.StateSaves)
		}
	})
}
