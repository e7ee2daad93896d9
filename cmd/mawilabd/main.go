// Command mawilabd is the long-lived MAWILab labeling service: the daily
// batch CLI turned into a daemon. It accepts pcap uploads over HTTP and
// watches a spool directory, schedules labeling jobs across the pipeline's
// worker pool behind a bounded admission queue, caches results in a
// digest-keyed label store (a repeat upload of a known trace never
// recomputes), and serves CSV/ADMD labels, community queries and
// Prometheus-style metrics.
//
// Usage:
//
//	mawilabd -addr :8080 -store /var/lib/mawilab -spool /var/spool/mawilab
//	curl -sT day.pcap 'http://localhost:8080/v1/traces?name=day'
//	curl -s  http://localhost:8080/v1/labels/<digest>.csv
//	curl -s  http://localhost:8080/metrics
//
// A served labeling is byte-identical to `mawilab -in day.pcap` output for
// the same trace at every worker count — the repo's determinism contract,
// extended across the wire by the shared v1 schema. SIGINT/SIGTERM drains
// gracefully: readiness flips to 503, accepted jobs finish, then the
// process exits.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"runtime"
	"syscall"
	"time"

	"mawilab/internal/serve"
)

func main() {
	var (
		addr        = flag.String("addr", "127.0.0.1:7077", "listen address (host:0 picks a random port, printed on startup)")
		storeDir    = flag.String("store", "mawilabd-store", "label store directory (persists across restarts)")
		spoolDir    = flag.String("spool", "", "spool directory to watch for *.pcap files (empty disables)")
		spoolEvery  = flag.Duration("spool-interval", 2*time.Second, "spool poll period")
		workers     = flag.Int("workers", runtime.GOMAXPROCS(0), "pipeline worker-pool size per job (1 = sequential reference path; output is identical)")
		jobWorkers  = flag.Int("job-workers", 1, "labeling jobs run concurrently")
		queueDepth  = flag.Int("queue", 8, "admission queue depth; overflow returns 429 + Retry-After")
		jobTimeout  = flag.Duration("job-timeout", 10*time.Minute, "per-job context timeout")
		maxResident = flag.Int("resident", 8, "label-store entries kept resident in memory (LRU)")
		drainWait   = flag.Duration("drain-timeout", 5*time.Minute, "graceful-drain budget on SIGTERM before forcing exit")
	)
	flag.Parse()

	cfg := serve.Config{
		StoreDir:        *storeDir,
		SpoolDir:        *spoolDir,
		SpoolInterval:   *spoolEvery,
		PipelineWorkers: *workers,
		JobWorkers:      *jobWorkers,
		QueueDepth:      *queueDepth,
		JobTimeout:      *jobTimeout,
		MaxResident:     *maxResident,
	}
	s, err := serve.New(cfg)
	if err != nil {
		fatal("config: %v", err)
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fatal("listen: %v", err)
	}
	// The discovery line tooling parses (the smoke test starts us on :0).
	fmt.Printf("mawilabd: listening on %s\n", ln.Addr())
	fmt.Fprintf(os.Stderr, "mawilabd: store=%s spool=%s workers=%d job-workers=%d queue=%d\n",
		*storeDir, *spoolDir, *workers, *jobWorkers, *queueDepth)

	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()

	httpSrv := newHTTPServer(s.Handler())
	errCh := make(chan error, 1)
	go func() { errCh <- httpSrv.Serve(ln) }() //mawilint:allow baregoroutine — the accept loop; terminated by httpSrv.Shutdown on SIGTERM and joined via errCh
	if *spoolDir != "" {
		go s.WatchSpool(ctx) //mawilint:allow baregoroutine — spool watcher; lifetime bounded by the signal ctx, exits on cancellation
	}

	select {
	case err := <-errCh:
		fatal("serve: %v", err)
	case <-ctx.Done():
	}

	// Graceful drain: stop admitting (readyz 503, uploads 503), let every
	// accepted job finish and persist, then close the listener.
	fmt.Fprintln(os.Stderr, "mawilabd: draining")
	drainCtx, cancel := context.WithTimeout(context.Background(), *drainWait)
	defer cancel()
	if err := s.Drain(drainCtx); err != nil {
		fmt.Fprintf(os.Stderr, "mawilabd: drain incomplete: %v\n", err)
	}
	if err := httpSrv.Shutdown(drainCtx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
		fmt.Fprintf(os.Stderr, "mawilabd: shutdown: %v\n", err)
	}
	<-errCh // Serve has returned http.ErrServerClosed
	fmt.Fprintln(os.Stderr, "mawilabd: drained, exiting")
}

// Connection bounds of the HTTP server. A client gets readHeaderTimeout to
// send a request's headers and an idle keep-alive connection is closed after
// idleTimeout, so a client that opens connections and never finishes a
// request cannot hold a goroutine and a file descriptor forever. Bodies and
// responses are not timed: uploads and label reads may legitimately be long.
const (
	readHeaderTimeout = 10 * time.Second
	idleTimeout       = 2 * time.Minute
)

// newHTTPServer returns the server main runs h on.
func newHTTPServer(h http.Handler) *http.Server {
	return &http.Server{Handler: h, ReadHeaderTimeout: readHeaderTimeout, IdleTimeout: idleTimeout}
}

func fatal(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "mawilabd: "+format+"\n", args...)
	os.Exit(1)
}
