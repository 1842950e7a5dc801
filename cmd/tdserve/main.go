// Command tdserve runs the simulator as a long-lived scenario service: an
// HTTP daemon with a bounded worker pool, per-job deadlines, panic
// isolation, and a deterministic result cache keyed by (canonical spec hash,
// seed).
//
// Usage:
//
//	tdserve -addr :8080                  # serve the API
//	tdserve -addr :0                     # pick a free port (printed on stdout)
//	tdserve -workers 4 -queue 32         # pool size and admission bound
//	tdserve -deadline 30s -drain 20s     # default job deadline, SIGTERM budget
//
// API (see internal/serve for the full contract):
//
//	POST /jobs              submit a scenario spec (JSON)
//	GET  /jobs/{id}         job status
//	GET  /jobs/{id}/result  result; ?wait=10s blocks until terminal
//	POST /jobs/{id}/cancel  cooperative cancel
//	GET  /jobs              list jobs
//	GET  /healthz /readyz   liveness / readiness
//	GET  /metrics           serve.* counters and histograms (JSON)
//
// On SIGTERM or SIGINT the server drains: submissions get 503, queued and
// running jobs get half the -drain budget to finish, then are cancelled
// through the simulator's cooperative stop seam; the process exits 0 on a
// clean drain and 1 if the budget is exceeded.
package main

import (
	"context"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"github.com/rdcn-net/tdtcp/internal/serve"
)

func main() {
	os.Exit(run())
}

func run() int {
	var (
		addr     = flag.String("addr", ":8080", "listen address (':0' picks a free port, printed on stdout)")
		workers  = flag.Int("workers", 0, "worker-pool size: max concurrent simulations (0 = default 2)")
		queue    = flag.Int("queue", 0, "admission queue depth; beyond workers+queue, submits get 429 (0 = default 16)")
		deadline = flag.Duration("deadline", 0, "default per-job wall-clock deadline when the spec sets none (0 = default 60s)")
		cache    = flag.Int("cache", 0, "result-cache capacity in entries (0 = default 128, -1 = disable); finished jobs are held while cached or among the last that many to finish (128 when disabled)")
		drain    = flag.Duration("drain", 30*time.Second, "shutdown budget on SIGTERM: half for graceful finish, then cancel")
	)
	flag.Parse()
	if flag.NArg() > 0 {
		fmt.Fprintf(os.Stderr, "tdserve: unexpected arguments: %v\n", flag.Args())
		flag.Usage()
		return 2
	}
	if *drain <= 0 {
		fmt.Fprintln(os.Stderr, "tdserve: -drain must be positive")
		return 2
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fmt.Fprintf(os.Stderr, "tdserve: %v\n", err)
		return 1
	}

	s := serve.New(serve.Config{
		Workers:         *workers,
		QueueDepth:      *queue,
		DefaultDeadline: *deadline,
		CacheCap:        *cache,
	})
	hs := &http.Server{Handler: serve.Handler(s)}

	// Catch signals before the address is announced: a client that has seen
	// it may send SIGTERM at once, and it must start a drain, not kill us.
	sigs := make(chan os.Signal, 1)
	signal.Notify(sigs, syscall.SIGTERM, syscall.SIGINT)

	// The address line is the startup handshake: tests (and scripts) listen
	// on :0 and parse the actual port from here.
	fmt.Printf("tdserve listening on %s\n", ln.Addr())

	serveErr := make(chan error, 1)
	go func() { serveErr <- hs.Serve(ln) }()

	select {
	case sig := <-sigs:
		fmt.Fprintf(os.Stderr, "tdserve: %v: draining (budget %v)\n", sig, *drain)
	case err := <-serveErr:
		fmt.Fprintf(os.Stderr, "tdserve: %v\n", err)
		return 1
	}

	// Drain order: stop job intake first so /readyz flips and queued work
	// finishes, then close the HTTP listener. In-flight result waits survive
	// until the HTTP shutdown deadline.
	code := 0
	if err := s.Shutdown(*drain); err != nil {
		fmt.Fprintf(os.Stderr, "tdserve: %v\n", err)
		code = 1
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := hs.Shutdown(ctx); err != nil {
		fmt.Fprintf(os.Stderr, "tdserve: http shutdown: %v\n", err)
		code = 1
	}
	if code == 0 {
		fmt.Println("tdserve: drained cleanly")
	}
	return code
}
