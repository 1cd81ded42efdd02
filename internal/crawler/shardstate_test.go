package crawler

import (
	"context"
	"encoding/json"
	"net/http"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"pushadminer/internal/browser"
)

// decodeShardState decodes a state file's bytes the way LoadShardState
// does, so in-memory and on-disk states compare field by field.
func decodeShardState(t *testing.T, data []byte) *ShardState {
	t.Helper()
	var st ShardState
	if err := json.Unmarshal(data, &st); err != nil {
		t.Fatal(err)
	}
	return &st
}

func marshalShardState(t *testing.T, w *ShardWorker) []byte {
	t.Helper()
	st, err := w.State()
	if err != nil {
		t.Fatal(err)
	}
	data, err := json.Marshal(st)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// TestShardStateBackupFallback pins LoadShardState's recovery from a
// torn write: a truncated primary falls back to the rotated .bak, both
// copies torn is an error, and a worker restored from the .bak saves
// exactly the state it was saved from.
func TestShardStateBackupFallback(t *testing.T) {
	eco := newEco(t, 0.002)
	cfg := Config{
		Clock:            eco.Clock,
		NewClient:        func() *http.Client { return eco.Net.ClientNoRedirect() },
		Driver:           eco,
		Pending:          eco.Push,
		Device:           browser.Desktop,
		CollectionWindow: 7 * 24 * time.Hour,
	}
	var seeds []ShardSeed
	for i, u := range eco.SeedURLs() {
		seeds = append(seeds, ShardSeed{Index: i, URL: u})
	}
	ctx := context.Background()
	w, err := NewShardWorker(ctx, cfg, 0, seeds)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w.Seed(); err != nil {
		t.Fatal(err)
	}
	saved := marshalShardState(t, w)
	if len(decodeShardState(t, saved).Containers) == 0 {
		t.Fatal("seeding produced no containers; fallback test is vacuous")
	}

	path := filepath.Join(t.TempDir(), "shard-0.json")
	save := func(w *ShardWorker) []byte {
		t.Helper()
		data, err := w.EncodeState()
		if err != nil {
			t.Fatal(err)
		}
		if err := WriteFileDurable(path, data); err != nil {
			t.Fatal(err)
		}
		return append([]byte(nil), data...)
	}
	save(w)
	// A later save of a different (unseeded) worker rotates the seeded
	// state to .bak.
	fresh, err := NewShardWorker(ctx, cfg, 0, seeds)
	if err != nil {
		t.Fatal(err)
	}
	newer := save(fresh)

	st, fellBack, err := LoadShardState(path)
	if err != nil || fellBack {
		t.Fatalf("intact primary: fellBack=%v err=%v", fellBack, err)
	}
	if len(st.Containers) != 0 {
		t.Fatalf("intact primary loaded %d containers, want the unseeded state", len(st.Containers))
	}

	if err := os.WriteFile(path, newer[:len(newer)/2], 0o644); err != nil {
		t.Fatal(err)
	}
	st, fellBack, err = LoadShardState(path)
	if err != nil {
		t.Fatalf("truncated primary: %v", err)
	}
	if !fellBack {
		t.Error("truncated primary: fellBack = false, want true")
	}
	if want := decodeShardState(t, saved); !reflect.DeepEqual(st, want) {
		t.Fatal("state loaded from .bak differs from the saved state")
	}

	restored, err := RestoreShardWorker(ctx, cfg, st)
	if err != nil {
		t.Fatal(err)
	}
	if got := marshalShardState(t, restored); !reflect.DeepEqual(decodeShardState(t, got), decodeShardState(t, saved)) {
		t.Error("restored worker's State differs from the saved state")
	}

	bak, err := os.ReadFile(path + ".bak")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path+".bak", bak[:len(bak)/2], 0o644); err != nil {
		t.Fatal(err)
	}
	if st, fellBack, err := LoadShardState(path); err == nil || st != nil || fellBack {
		t.Fatalf("both copies torn: st=%v fellBack=%v err=%v, want an error", st != nil, fellBack, err)
	}
}
