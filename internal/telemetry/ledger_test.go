package telemetry_test

import (
	"math"
	"os"
	"path/filepath"
	"strconv"
	"sync"
	"testing"
	"time"

	"pushadminer/internal/core"
	"pushadminer/internal/fleet"
	"pushadminer/internal/simclock"
	"pushadminer/internal/telemetry"
)

// writeLines runs one ledger writer into a temp file and returns its
// bytes.
func writeLines(t *testing.T, write func(path string) error) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "ledger.jsonl")
	if err := write(path); err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// TestLedgerLineFormat pins the exact JSONL bytes of both ledger
// shapes: a fleet line carries seq, simclock time, kind, shard and
// attrs; a mining line carries seq, kind and attrs only. Attr keys are
// sorted, nil attrs are omitted, and a NaN float attr is the string
// "NaN".
func TestLedgerLineFormat(t *testing.T) {
	clock := simclock.NewSimulated(time.Date(2019, 9, 1, 0, 0, 0, 0, time.UTC))
	clock.Advance(26*time.Hour + 30*time.Minute + 15*time.Second)
	simNow := clock.Now()
	nan := strconv.FormatFloat(math.NaN(), 'g', -1, 64)

	fleetCases := []struct {
		name string
		ev   fleet.Event
		want string
	}{
		{
			name: "fleet-wide, shard -1, several attrs",
			ev: fleet.Event{Seq: 1, Time: simNow, Kind: fleet.EvMerge, Shard: -1,
				Attrs: map[string]string{"records": "12", "items": "3", "a": "x"}},
			want: `{"seq":1,"time":"2019-09-02T02:30:15Z","kind":"merge","shard":-1,"attrs":{"a":"x","items":"3","records":"12"}}` + "\n",
		},
		{
			name: "shard 0, nil attrs",
			ev:   fleet.Event{Seq: 2, Time: simNow, Kind: fleet.EvKillDetected, Shard: 0},
			want: `{"seq":2,"time":"2019-09-02T02:30:15Z","kind":"kill_detected","shard":0}` + "\n",
		},
	}
	for _, c := range fleetCases {
		got := writeLines(t, func(path string) error { return telemetry.WriteLedger(path, []fleet.Event{c.ev}) })
		if got != c.want {
			t.Errorf("%s:\n got %s want %s", c.name, got, c.want)
		}
	}

	miningCases := []struct {
		name string
		ev   core.MiningEvent
		want string
	}{
		{
			name: "NaN silhouette",
			ev: core.MiningEvent{Seq: 0, Kind: core.EvCutChosen,
				Attrs: map[string]string{"height": "0.25", "k": "4", "silhouette": nan}},
			want: `{"seq":0,"kind":"cut_chosen","attrs":{"height":"0.25","k":"4","silhouette":"NaN"}}` + "\n",
		},
		{
			name: "nil attrs",
			ev:   core.MiningEvent{Seq: 7, Kind: core.EvStageEnd},
			want: `{"seq":7,"kind":"stage_end"}` + "\n",
		},
	}
	for _, c := range miningCases {
		got := writeLines(t, func(path string) error { return telemetry.WriteLedger(path, []core.MiningEvent{c.ev}) })
		if got != c.want {
			t.Errorf("%s:\n got %s want %s", c.name, got, c.want)
		}
	}
}

// TestReadLedgerSeq pins the reader's sequence check on both ledger
// shapes: the first line sets the base, and any gap or reordering
// after it is rejected.
func TestReadLedgerSeq(t *testing.T) {
	fleetLedger := func(seqs ...int) func(path string) error {
		return func(path string) error {
			events := make([]fleet.Event, len(seqs))
			for i, seq := range seqs {
				events[i] = fleet.Event{Seq: seq, Kind: fleet.EvMerge, Shard: -1}
			}
			return telemetry.WriteLedger(path, events)
		}
	}
	// A mining ledger from the typed appends, with one line dropped.
	led := core.NewMiningLedger()
	led.StageBegin("blocks")
	led.BlockClustered(0, 3)
	led.BlockClustered(1, 1)
	led.StageEnd("blocks")
	led.CutChosen(0.25, 4, 0.5)
	mined := led.Events()
	dropped := append(append([]core.MiningEvent{}, mined[:2]...), mined[3:]...)

	cases := []struct {
		name  string
		write func(path string) error
		read  func(path string) (int, error)
		want  int // events read; -1 means the read must fail
	}{
		{"fleet base 1, no gap", fleetLedger(1, 2, 3), readFleet, 3},
		{"fleet gap", fleetLedger(1, 2, 4), readFleet, -1},
		{"fleet out of order", fleetLedger(1, 3, 2), readFleet, -1},
		{"mining base 0, no gap", func(path string) error { return telemetry.WriteLedger(path, mined) }, readMining, len(mined)},
		{"mining dropped line", func(path string) error { return telemetry.WriteLedger(path, dropped) }, readMining, -1},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "ledger.jsonl")
			if err := c.write(path); err != nil {
				t.Fatal(err)
			}
			n, err := c.read(path)
			switch {
			case c.want < 0 && err == nil:
				t.Errorf("read %d events, want a seq error", n)
			case c.want >= 0 && err != nil:
				t.Errorf("read failed: %v", err)
			case c.want >= 0 && n != c.want:
				t.Errorf("read %d events, want %d", n, c.want)
			}
		})
	}
}

func readFleet(path string) (int, error) {
	events, err := telemetry.ReadLedger[fleet.Event](path)
	return len(events), err
}

func readMining(path string) (int, error) {
	events, err := telemetry.ReadLedger[core.MiningEvent](path)
	return len(events), err
}

// TestLedgerAppend pins the in-memory ledger: a nil ledger no-ops,
// concurrent appends get dense sequence numbers in append order, and
// Events returns a copy.
func TestLedgerAppend(t *testing.T) {
	type ev struct{ Seq, Worker int }
	var nilLed *telemetry.Ledger[ev]
	nilLed.Append(func(seq int) ev { t.Error("nil ledger built an event"); return ev{} })
	if nilLed.Len() != 0 || nilLed.Events() != nil {
		t.Error("nil ledger is not empty")
	}

	var led telemetry.Ledger[ev]
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				led.Append(func(seq int) ev { return ev{Seq: seq, Worker: w} })
			}
		}(w)
	}
	wg.Wait()
	events := led.Events()
	if len(events) != 400 || led.Len() != 400 {
		t.Fatalf("Events has %d, Len %d, want 400", len(events), led.Len())
	}
	for i, e := range events {
		if e.Seq != i {
			t.Fatalf("event %d has seq %d", i, e.Seq)
		}
	}
	events[0].Seq = -1
	if led.Events()[0].Seq != 0 {
		t.Error("Events shares its backing array with the ledger")
	}
}
