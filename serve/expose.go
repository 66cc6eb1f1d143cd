package serve

import (
	"net/http"
	"net/http/pprof"

	"dcasdeque/deque"
)

// ExpositionMux returns a mux with the repository's full observability
// surface mounted: the Prometheus text exposition at /metrics (also
// dequetop's scrape target) and the pprof handlers under /debug/pprof —
// the wiring every serving binary (dequeserve, examples/worksteal
// -listen) shares instead of hand-rolling.  Handlers are mounted on a fresh mux, not
// http.DefaultServeMux, so embedding binaries control their surface.
func ExpositionMux() *http.ServeMux {
	mux := http.NewServeMux()
	mux.Handle("/metrics", deque.PrometheusHandler())
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}
