// Command gearbox-serve runs the Gearbox simulator as a long-lived
// multi-tenant HTTP service. Systems are built once per (dataset, size,
// version, longfrac) key and pooled; every later run on the same key reuses
// the built machine through the reset-to-pristine path, so a served run
// skips the preprocess + partition + build cost the batch CLI pays every
// invocation.
//
// Usage:
//
//	gearbox-serve [-addr :8642] [-run-workers GOMAXPROCS] [-queue 16]
//	              [-log text|json] [-debug-addr :8643]
//
// Submit runs with POST /v1/runs (the response streams NDJSON lifecycle
// events; the X-Request-ID response header carries the run's correlation
// ID) and inspect the service with GET /v1/stats:
//
//	curl -sN localhost:8642/v1/runs -d '{"dataset":"patent","size":"tiny","app":"bfs"}'
//
// Observability:
//
//	GET /metrics    Prometheus text exposition — host-side serving metrics
//	                (request counts per tenant, queue depth and waits, run
//	                latencies, shed/cancel counts, pool traffic) plus the
//	                simulated aggregates every run feeds (iterations, per-step
//	                busy time, link words, accumulation classes).
//	-log json       structured request/lifecycle logs on stderr; every line
//	                for a run carries its run_id.
//	-debug-addr     opt-in second listener serving net/http/pprof under
//	                /debug/pprof/ (profiles, heap, goroutines). Off by
//	                default; never exposed on the main address.
package main

import (
	"flag"
	"fmt"
	"log/slog"
	"net/http"
	"net/http/pprof"
	"os"
	"runtime"

	"gearbox/internal/serve"
)

func main() {
	addr := flag.String("addr", ":8642", "listen address")
	runWorkers := flag.Int("run-workers", runtime.GOMAXPROCS(0), "runs executing concurrently (each owns one pooled machine while it runs)")
	queue := flag.Int("queue", 16, "admission queue depth across all tenants; overflow returns 429")
	logFormat := flag.String("log", "text", "structured log format on stderr: text or json")
	debugAddr := flag.String("debug-addr", "", "optional second listen address for net/http/pprof (empty: disabled)")
	flag.Parse()

	var handler slog.Handler
	switch *logFormat {
	case "json":
		handler = slog.NewJSONHandler(os.Stderr, nil)
	case "text":
		handler = slog.NewTextHandler(os.Stderr, nil)
	default:
		fmt.Fprintf(os.Stderr, "gearbox-serve: unknown -log format %q (want text or json)\n", *logFormat)
		os.Exit(2)
	}
	logger := slog.New(handler)

	s := serve.New(serve.Config{
		Workers:    *runWorkers,
		QueueDepth: *queue,
		Logger:     logger,
	})
	defer s.Close()

	if *debugAddr != "" {
		// pprof lives on its own mux and listener: opting in to profiling
		// must not put /debug/pprof/ on the public API address.
		dmux := http.NewServeMux()
		dmux.HandleFunc("/debug/pprof/", pprof.Index)
		dmux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		dmux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		dmux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		dmux.HandleFunc("/debug/pprof/trace", pprof.Trace)
		go func() {
			logger.Info("pprof listening", "addr", *debugAddr)
			if err := http.ListenAndServe(*debugAddr, dmux); err != nil {
				logger.Error("pprof listener failed", "error", err.Error())
			}
		}()
	}

	logger.Info("gearbox-serve listening",
		"addr", *addr, "run_workers", *runWorkers, "queue_depth", *queue, "log", *logFormat)
	fmt.Printf("gearbox-serve: listening on %s (run workers %d, queue depth %d)\n", *addr, *runWorkers, *queue)
	if err := http.ListenAndServe(*addr, serve.AccessLog(s.Handler(), logger)); err != nil {
		fmt.Fprintln(os.Stderr, "gearbox-serve:", err)
		os.Exit(1)
	}
}
