// Command hmptd is the tuning-as-a-service daemon: a long-running HTTP
// server over the campaign engine and its cache ladder. See
// internal/server for the API; `hmptd loadgen` is the matching
// deterministic closed-loop load generator.
//
//	hmptd -addr 127.0.0.1:8080 -cache /var/cache/hmpt [-memo-bytes 16777216]
//	hmptd loadgen -url http://127.0.0.1:8080 -clients 4 -requests 64
//
// The daemon keeps completed captures and analyses in memory under the
// -memo-bytes budget, evicting the least recently used; an evicted key
// is served from the -cache directories (or recomputed without them).
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"strings"
	"syscall"
	"time"

	"hmpt/internal/faultfs"
	"hmpt/internal/server"

	// The benchmark set registers through internal/experiments (pulled
	// in by internal/server); synth only lives in the registry.
	_ "hmpt/internal/workloads/synth"
)

func main() {
	if len(os.Args) > 1 && os.Args[1] == "loadgen" {
		if err := loadgen(os.Args[2:]); err != nil {
			fmt.Fprintf(os.Stderr, "hmptd: %v\n", err)
			os.Exit(1)
		}
		return
	}
	if err := serve(os.Args[1:]); err != nil {
		fmt.Fprintf(os.Stderr, "hmptd: %v\n", err)
		os.Exit(1)
	}
}

func serve(args []string) error {
	fs := flag.NewFlagSet("hmptd", flag.ContinueOnError)
	addr := fs.String("addr", "127.0.0.1:8080", "listen address (port 0 picks a free port)")
	cacheDir := fs.String("cache", "", "snapshot cache directory (empty = in-memory only)")
	analysisDir := fs.String("analysis-cache", "", "analysis cache directory (default <cache>/analyses)")
	par := fs.Int("par", 0, "per-request campaign worker goroutines (0 = GOMAXPROCS)")
	maxConc := fs.Int("max-concurrent", 0, "max concurrent campaign runs (0 = unlimited)")
	reqTimeout := fs.Duration("request-timeout", 0, "server-side per-request deadline (0 = none; requests may set timeout_ms)")
	cacheReprobe := fs.Duration("cache-reprobe", 0, "degraded-cache re-probe interval (0 = publisher default)")
	memoBytes := fs.Int64("memo-bytes", server.DefaultMemoBytes, "byte budget of the in-memory store of completed captures and analyses; least recently used entries beyond it are evicted to the disk caches (must be > 0)")
	faultSeed := fs.Uint64("fault-seed", 1, "chaos: fault-injection RNG seed")
	faultEIO := fs.Float64("fault-eio", 0, "chaos: probability of injected EIO per cache write")
	faultENOSPC := fs.Float64("fault-enospc", 0, "chaos: probability of injected ENOSPC per cache write")
	faultTorn := fs.Float64("fault-torn", 0, "chaos: probability of a silently torn cache write")
	faultReadEIO := fs.Float64("fault-read-eio", 0, "chaos: probability of injected EIO per cache read")
	faultLatency := fs.Duration("fault-latency", 0, "chaos: injected latency per faulted op")
	faultLatencyRate := fs.Float64("fault-latency-rate", 0, "chaos: probability of injected latency per cache op")
	faultMax := fs.Int64("fault-max", 0, "chaos: total faults to inject before the schedule passes through (0 = unlimited)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() > 0 {
		return fmt.Errorf("unexpected argument %q (subcommands: loadgen)", fs.Arg(0))
	}
	if *memoBytes <= 0 {
		return fmt.Errorf("-memo-bytes must be > 0, got %d", *memoBytes)
	}
	if *analysisDir == "" && *cacheDir != "" {
		*analysisDir = filepath.Join(*cacheDir, "analyses")
	}

	logger := log.New(os.Stderr, "", log.LstdFlags)
	var inj *faultfs.Injector
	if *faultEIO > 0 || *faultENOSPC > 0 || *faultTorn > 0 || *faultReadEIO > 0 ||
		(*faultLatency > 0 && *faultLatencyRate > 0) {
		inj = faultfs.NewInjector(nil, faultfs.Config{
			Seed:        *faultSeed,
			WriteEIO:    *faultEIO,
			WriteENOSPC: *faultENOSPC,
			TornWrite:   *faultTorn,
			ReadEIO:     *faultReadEIO,
			Latency:     *faultLatency,
			LatencyRate: *faultLatencyRate,
			MaxFaults:   *faultMax,
		})
		// Cache construction (mkdir) must not consume the deterministic
		// fault schedule: boot disarmed, arm once serving starts.
		inj.SetArmed(false)
		logger.Printf("hmptd: fault injection configured: seed=%d eio=%g enospc=%g torn=%g read-eio=%g max=%d",
			*faultSeed, *faultEIO, *faultENOSPC, *faultTorn, *faultReadEIO, *faultMax)
	}
	s, err := server.New(server.Config{
		CacheDir:         *cacheDir,
		AnalysisCacheDir: *analysisDir,
		Parallelism:      *par,
		MaxConcurrent:    *maxConc,
		RequestTimeout:   *reqTimeout,
		CacheReprobe:     *cacheReprobe,
		MemoBytes:        *memoBytes,
		Injector:         inj,
		Log:              logger,
	})
	if err != nil {
		return err
	}
	if inj != nil {
		inj.SetArmed(true)
	}

	// Listen before announcing: the printed URL is connectable the
	// moment it appears, which is what the CI smoke job greps for.
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	srv := &http.Server{Handler: s.Handler()}
	logger.Printf("hmptd: serving on http://%s", ln.Addr())

	errc := make(chan error, 1)
	go func() { errc <- srv.Serve(ln) }()

	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, syscall.SIGTERM, syscall.SIGINT)
	select {
	case sig := <-sigc:
		logger.Printf("hmptd: received %s, draining and shutting down", sig)
		// Fail /readyz first so balancers stop routing here, then let
		// in-flight requests finish through the graceful shutdown.
		s.BeginDrain()
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		if err := srv.Shutdown(ctx); err != nil {
			return fmt.Errorf("shutdown: %w", err)
		}
		logger.Printf("hmptd: shutdown complete")
		return nil
	case err := <-errc:
		if errors.Is(err, http.ErrServerClosed) {
			return nil
		}
		return err
	}
}

func loadgen(args []string) error {
	fs := flag.NewFlagSet("hmptd loadgen", flag.ContinueOnError)
	url := fs.String("url", "http://127.0.0.1:8080", "daemon base URL")
	clients := fs.Int("clients", 4, "concurrent closed-loop clients")
	requests := fs.Int("requests", 64, "total requests across all clients")
	workloadsFlag := fs.String("workloads", "", "comma-separated request mix (empty = all Table I benchmarks)")
	platform := fs.String("platform", "xeonmax", "platform preset every request asks for")
	timeout := fs.Duration("timeout", 60*time.Second, "per-request timeout")
	out := fs.String("out", "", "write the JSON report here as well as stdout")
	if err := fs.Parse(args); err != nil {
		return err
	}

	cfg := server.LoadConfig{
		BaseURL:  strings.TrimRight(*url, "/"),
		Clients:  *clients,
		Requests: *requests,
		Platform: *platform,
		Timeout:  *timeout,
	}
	if *workloadsFlag != "" {
		for _, n := range strings.Split(*workloadsFlag, ",") {
			if n = strings.TrimSpace(n); n != "" {
				cfg.Workloads = append(cfg.Workloads, n)
			}
		}
	}
	rep, err := server.RunLoad(cfg)
	if err != nil {
		return err
	}
	b, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	b = append(b, '\n')
	os.Stdout.Write(b)
	if *out != "" {
		if err := os.WriteFile(*out, b, 0o644); err != nil {
			return err
		}
	}
	if rep.Errors > 0 {
		return fmt.Errorf("loadgen: %d of %d requests failed (first: %s)", rep.Errors, rep.Requests, rep.FirstError)
	}
	return nil
}
