package telemetry

import (
	"net"
	"net/http"
	"net/http/pprof"
)

// Handler returns an http.Handler exposing the registry:
//
//	/metrics       Prometheus text exposition format
//	/metrics.json  the same metrics as one JSON snapshot
//	/debug/pprof/  standard runtime profiles
//
// Scrapes read only atomics and short read-locked sections, so serving
// never blocks the packet path.
func Handler(reg *Registry) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		_ = reg.WritePrometheus(w)
	})
	mux.HandleFunc("/metrics.json", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		_ = reg.WriteJSON(w)
	})
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}

// Serve starts the exposition endpoint on addr in a background
// goroutine and returns the bound listener (useful with ":0") or an
// error if the address cannot be bound. The caller closes the listener
// to stop serving.
func Serve(addr string, reg *Registry) (net.Listener, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	srv := &http.Server{Handler: Handler(reg)}
	go func() { _ = srv.Serve(ln) }()
	return ln, nil
}
