package server

import (
	"log"
	"net/http"
	"net/http/pprof"
)

// pprofHandler serves the runtime profiles of net/http/pprof — heap,
// allocs, goroutine, CPU profile, execution trace — under /debug/pprof/ on
// a mux of its own. It belongs on a separate listener (ServePprof), never
// behind the public /v1 Handler.
func pprofHandler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}

// ServePprof serves pprofHandler on its own listener at addr in the
// background, for the commands' -pprof flag, and does nothing when addr is
// empty. The listener lives as long as the process. One that cannot start
// ends the process, as the main one does: an operator who asked for
// profiles should not silently lack them.
func ServePprof(addr string) {
	if addr == "" {
		return
	}
	go func() {
		log.Printf("pprof listening on %s", addr)
		log.Fatalf("pprof: %v", http.ListenAndServe(addr, pprofHandler()))
	}()
}
