package telemetry

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sync"
)

// Ledger is an append-only, seq-numbered event record: the one format
// behind the fleet's control-plane timeline and the mining ledger. E is
// the owning package's line struct; it carries its own `json:"seq"`
// field, and nothing here needs to read it back from E. A nil *Ledger
// no-ops everywhere, so an unrecorded run pays nothing.
type Ledger[E any] struct {
	mu     sync.Mutex
	events []E
}

// Append stores the event mk builds. mk runs under the ledger's lock
// and gets the event's 0-based position, so sequence numbers are dense
// in append order; a ledger that numbers from 1 adds one.
func (l *Ledger[E]) Append(mk func(seq int) E) {
	if l == nil {
		return
	}
	l.mu.Lock()
	l.events = append(l.events, mk(len(l.events)))
	l.mu.Unlock()
}

// Events returns a copy of the events in append order.
func (l *Ledger[E]) Events() []E {
	if l == nil {
		return nil
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	out := make([]E, len(l.events))
	copy(out, l.events)
	return out
}

// Len is the number of events appended so far.
func (l *Ledger[E]) Len() int {
	if l == nil {
		return 0
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.events)
}

// WriteLedger writes events as JSONL, one json.Encoder line per event.
// Map keys come out sorted, so identical event sequences give
// identical bytes.
func WriteLedger[E any](path string, events []E) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("telemetry: ledger: %w", err)
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for i := range events {
		if err := enc.Encode(&events[i]); err != nil {
			f.Close()
			return fmt.Errorf("telemetry: ledger: %w", err)
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("telemetry: ledger: %w", err)
	}
	return f.Close()
}

// ReadLedger parses a JSONL ledger and rejects any sequence gap: the
// first line's seq is the base (the fleet numbers from 1, mining from
// 0), and every later line must carry the next number. A dropped,
// duplicated or reordered line is an error.
func ReadLedger[E any](path string) ([]E, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("telemetry: ledger: %w", err)
	}
	defer f.Close()
	var out []E
	base := 0
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 64*1024), 4*1024*1024)
	for sc.Scan() {
		line := sc.Bytes()
		if len(line) == 0 {
			continue
		}
		var ev E
		if err := json.Unmarshal(line, &ev); err != nil {
			return nil, fmt.Errorf("telemetry: ledger event %d: %w", len(out)+1, err)
		}
		var seq struct {
			Seq *int `json:"seq"`
		}
		if err := json.Unmarshal(line, &seq); err != nil || seq.Seq == nil {
			return nil, fmt.Errorf("telemetry: ledger event %d: no seq", len(out)+1)
		}
		if len(out) == 0 {
			base = *seq.Seq
		} else if want := base + len(out); *seq.Seq != want {
			return nil, fmt.Errorf("telemetry: ledger seq gap at event %d: got %d want %d", len(out)+1, *seq.Seq, want)
		}
		out = append(out, ev)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("telemetry: ledger: %w", err)
	}
	return out, nil
}
