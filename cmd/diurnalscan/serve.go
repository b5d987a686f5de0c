package main

// The serve command: publish a finished run as a columnar snapshot and
// answer result queries over HTTP through the overload-hardened serving
// plane (internal/serve). The lifecycle is deliberately boring:
//
//  1. load the newest valid snapshot under SNAPDIR (torn or
//     foreign files are quarantined, never served);
//  2. if the directory has none, run the configured world once and
//     write the snapshot it should serve — a cold-started server is a
//     batch run plus an atomic publish;
//  3. serve until SIGTERM/SIGINT, then drain in-flight requests through
//     http.Server.Shutdown and exit 0;
//  4. SIGHUP re-runs LoadLatest, so an external writer can publish a
//     fresh snapshot and hot-swap it under live traffic.
//
// Exit 5 (exitSnapshotFailed) means the server never had a snapshot to
// serve: nothing loadable on disk and the bootstrap run or publish
// failed. Serving plain 503s forever would look healthy to a
// load-balancer while answering nothing.

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"github.com/diurnalnet/diurnal"
	"github.com/diurnalnet/diurnal/internal/serve"
)

// serveOptions carries the serve command's arguments and flag values.
type serveOptions struct {
	Addr       string
	Dir        string
	Inflight   int
	ReqTimeout time.Duration
	Retain     int
	DiskBudget int64

	// ready, when non-nil, receives the bound listen address once the
	// server is accepting (tests bind :0 and need the real port).
	ready chan<- net.Addr
}

// runServe owns the whole serve lifecycle and returns the process exit
// code. ctx is the command's signal context: its cancellation (SIGTERM,
// SIGINT, -timeout) starts the graceful drain.
func runServe(ctx context.Context, world *diurnal.World, cfg diurnal.Config, opts serveOptions) int {
	sig := world.Signature(cfg)
	s := serve.New(serve.Config{
		Dir:             opts.Dir,
		MaxInflight:     opts.Inflight,
		QueryTimeout:    opts.ReqTimeout,
		ExpectSignature: sig,
		Retain:          opts.Retain,
		DiskBudget:      opts.DiskBudget,
	})
	defer s.Close()

	if path, err := s.LoadLatest(); err == nil {
		id, _ := s.Current()
		fmt.Printf("serving snapshot %s (%s)\n", id, path)
	} else {
		fmt.Fprintf(os.Stderr, "no loadable snapshot under %s (%v); running the world to build one\n", opts.Dir, err)
		path, err := buildSnapshot(ctx, world, cfg, s)
		if err != nil {
			fmt.Fprintf(os.Stderr, "building snapshot: %v\n", err)
			return exitSnapshotFailed
		}
		id, _ := s.Current()
		fmt.Printf("built and serving snapshot %s (%s)\n", id, path)
	}

	ln, err := net.Listen("tcp", opts.Addr)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	srv := &http.Server{Handler: s.Handler()}
	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.Serve(ln) }()
	fmt.Printf("listening on %s\n", ln.Addr())
	if opts.ready != nil {
		opts.ready <- ln.Addr()
	}

	// SIGHUP = "a writer published a new snapshot, pick it up". The swap
	// is atomic under live traffic; a bad publish quarantines and the
	// server keeps answering from last-good.
	hup := make(chan os.Signal, 1)
	signal.Notify(hup, syscall.SIGHUP)
	defer signal.Stop(hup)

	for {
		select {
		case <-hup:
			if path, err := s.LoadLatest(); err != nil {
				fmt.Fprintf(os.Stderr, "reload: %v (still serving last-good)\n", err)
			} else {
				id, _ := s.Current()
				fmt.Printf("reloaded snapshot %s (%s)\n", id, path)
			}
		case err := <-serveErr:
			// The listener died out from under us without a shutdown.
			fmt.Fprintln(os.Stderr, err)
			return 1
		case <-ctx.Done():
			// Graceful drain: stop accepting, let admitted requests
			// finish (bounded by their own deadlines plus slack), exit 0.
			sctx, cancel := context.WithTimeout(context.Background(), drainTimeout(opts.ReqTimeout))
			err := srv.Shutdown(sctx)
			cancel()
			<-serveErr // Serve has returned http.ErrServerClosed
			if err != nil {
				fmt.Fprintf(os.Stderr, "drain incomplete: %v\n", err)
				return 1
			}
			st := s.StatsNow()
			var shed uint64
			for _, n := range st.Admission.Shed {
				shed += n
			}
			fmt.Printf("drained and stopped: %d swaps, %d quarantined, %d cache hits, %d shed\n",
				st.Swaps, st.Quarantined, st.Cache.Hits+st.Cache.StaleHits, shed)
			return 0
		}
	}
}

// drainTimeout bounds the shutdown drain: every admitted request is
// already capped by the query deadline, so a small multiple of it plus
// scheduling slack is enough for a full drain.
func drainTimeout(reqTimeout time.Duration) time.Duration {
	if reqTimeout <= 0 {
		reqTimeout = 2 * time.Second
	}
	return 2*reqTimeout + time.Second
}

// buildSnapshot runs the world once and publishes the result through the
// server — so the bootstrap write honors the same retention and disk
// budget as any later publish, and the snapshot is installed atomically.
// Respects ctx so SIGTERM during the bootstrap run aborts cleanly.
func buildSnapshot(ctx context.Context, world *diurnal.World, cfg diurnal.Config, s *serve.Server) (string, error) {
	report, err := world.RunContext(ctx, cfg, diurnal.RunOptions{})
	if err != nil {
		if errors.Is(err, context.Canceled) {
			return "", fmt.Errorf("bootstrap run interrupted: %w", err)
		}
		return "", err
	}
	return s.Publish(report, world.Signature(cfg), world.Start(), world.End())
}
