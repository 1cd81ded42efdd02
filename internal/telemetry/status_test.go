package telemetry

import (
	"encoding/json"
	"fmt"
	"net/http/httptest"
	"testing"
)

type testStatus struct {
	N int `json:"n"`
}

func (s testStatus) String() string { return fmt.Sprintf("dashboard n=%d\n", s.N) }

// TestStatusHandler pins the /fleetz and /miningz endpoint contract:
// inactive until a registered status publishes, the JSON envelope,
// the text rendering, and latest-registration-wins.
func TestStatusHandler(t *testing.T) {
	const key = "statustest"
	t.Cleanup(func() {
		statusMu.Lock()
		delete(statuses, key)
		statusMu.Unlock()
	})
	get := func(query string) string {
		t.Helper()
		rec := httptest.NewRecorder()
		statusHandler(key)(rec, httptest.NewRequest("GET", "/statustestz"+query, nil))
		return rec.Body.String()
	}
	const inactive = "{\"active\": false}\n"

	if got := get(""); got != inactive {
		t.Errorf("no provider: %q, want %q", got, inactive)
	}

	first := NewStatus[testStatus](key)
	if got := get(""); got != inactive {
		t.Errorf("registered, never published: %q, want %q", got, inactive)
	}
	if got := get("?format=text"); got != inactive {
		t.Errorf("registered, never published, text: %q, want %q", got, inactive)
	}
	if LoadStatus[testStatus](key) != nil {
		t.Error("LoadStatus before the first Publish is not nil")
	}

	first.Publish(&testStatus{N: 3})
	var env struct {
		Active bool        `json:"active"`
		Status *testStatus `json:"statustest"`
	}
	if err := json.Unmarshal([]byte(get("")), &env); err != nil {
		t.Fatal(err)
	}
	if !env.Active || env.Status == nil || env.Status.N != 3 {
		t.Errorf("published: envelope %+v", env)
	}
	if got := get("?format=text"); got != "dashboard n=3\n" {
		t.Errorf("text rendering %q", got)
	}
	if got := LoadStatus[testStatus](key); got == nil || got.N != 3 {
		t.Errorf("LoadStatus = %+v", got)
	}
	if LoadStatus[int](key) != nil {
		t.Error("LoadStatus with the wrong type is not nil")
	}

	// Re-registering replaces the provider: the new status is inactive
	// until it publishes, and the old one no longer shows.
	second := NewStatus[testStatus](key)
	if got := get(""); got != inactive {
		t.Errorf("re-registered, never published: %q, want %q", got, inactive)
	}
	first.Publish(&testStatus{N: 4})
	second.Publish(&testStatus{N: 5})
	if got := get("?format=text"); got != "dashboard n=5\n" {
		t.Errorf("after re-registration: %q, want the new status", got)
	}
}
