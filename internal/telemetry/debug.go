package telemetry

import (
	"encoding/json"
	"expvar"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"sync"
	"sync/atomic"
	"time"
)

// Registered live-introspection statuses, keyed by the JSON envelope
// field their endpoint wraps the payload in ("fleet" for /fleetz,
// "mining" for /miningz). The owning subsystem registers one when its
// run starts; telemetry stays a leaf package and only knows it gets
// *something* JSON-marshalable back — or a fmt.Stringer for the text
// rendering.
var (
	statusMu sync.RWMutex
	statuses = map[string]interface{ payload() any }{}
)

// Status publishes one subsystem's live snapshot to a debug endpoint.
// Each Publish stores a fresh, immutable *T: the debug server reads it
// concurrently, so a published value must never be mutated afterwards.
type Status[T any] struct {
	cur atomic.Pointer[T]
}

// NewStatus returns a status and registers it as the provider behind
// key's endpoint. Re-registering a key replaces the previous status
// (desktop fleet, then mobile fleet — latest wins, like expvar
// republication). Until the first Publish the endpoint reports
// {"active": false}.
func NewStatus[T any](key string) *Status[T] {
	s := &Status[T]{}
	statusMu.Lock()
	statuses[key] = s
	statusMu.Unlock()
	return s
}

// Publish makes v the current snapshot.
func (s *Status[T]) Publish(v *T) { s.cur.Store(v) }

// Load returns the current snapshot, or nil before the first Publish.
// Nil-safe.
func (s *Status[T]) Load() *T {
	if s == nil {
		return nil
	}
	return s.cur.Load()
}

// payload is Load as an any that is a true nil (not a typed nil
// pointer) before the first Publish, so the handler sees "inactive".
func (s *Status[T]) payload() any {
	if v := s.Load(); v != nil {
		return v
	}
	return nil
}

// LoadStatus returns the current snapshot of the status registered
// under key, or nil when none is registered, it was registered with a
// different T, or nothing has been published yet.
func LoadStatus[T any](key string) *T {
	statusMu.RLock()
	s, _ := statuses[key].(*Status[T])
	statusMu.RUnlock()
	return s.Load()
}

// statusHandler serves one registered status's live snapshot: JSON by
// default (wrapped in an {"active": true, "<key>": ...} envelope), the
// payload's fmt.Stringer rendering with ?format=text.
func statusHandler(key string) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		statusMu.RLock()
		src := statuses[key]
		statusMu.RUnlock()
		var payload any
		if src != nil {
			payload = src.payload()
		}
		if payload == nil {
			w.Header().Set("Content-Type", "application/json")
			fmt.Fprintln(w, `{"active": false}`)
			return
		}
		if r.URL.Query().Get("format") == "text" {
			if str, ok := payload.(fmt.Stringer); ok {
				w.Header().Set("Content-Type", "text/plain; charset=utf-8")
				fmt.Fprint(w, str.String())
				return
			}
		}
		w.Header().Set("Content-Type", "application/json")
		b, err := json.MarshalIndent(map[string]any{
			"active": true,
			key:      payload,
		}, "", "  ")
		if err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
		w.Write(append(b, '\n')) //nolint:errcheck // best-effort debug endpoint
	}
}

// DebugServer is the optional runtime-profiling endpoint behind the
// -debug-addr flag: net/http/pprof, /debug/vars (expvar), and /metrics
// (the registry snapshot) on a loopback listener.
type DebugServer struct {
	addr string
	ln   net.Listener
	srv  *http.Server
}

// ServeDebug starts the debug HTTP server on addr (e.g.
// "127.0.0.1:6060"; ":0" picks a free port). The registry may be nil,
// in which case /metrics serves an empty snapshot. The server runs
// until Close.
func ServeDebug(addr string, reg *Registry) (*DebugServer, error) {
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	mux.Handle("/debug/vars", expvar.Handler())
	mux.HandleFunc("/fleetz", statusHandler("fleet"))
	mux.HandleFunc("/miningz", statusHandler("mining"))
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		if err := reg.WriteJSON(w); err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
		}
	})

	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("telemetry: debug listen %s: %w", addr, err)
	}
	ds := &DebugServer{
		addr: ln.Addr().String(),
		ln:   ln,
		srv:  &http.Server{Handler: mux, ReadHeaderTimeout: 5 * time.Second},
	}
	go ds.srv.Serve(ln) //nolint:errcheck // Serve always returns on Close
	return ds, nil
}

// Addr returns the bound listen address.
func (d *DebugServer) Addr() string {
	if d == nil {
		return ""
	}
	return d.addr
}

// Close shuts the server down. Nil-safe.
func (d *DebugServer) Close() error {
	if d == nil {
		return nil
	}
	return d.srv.Close()
}
