package main

import (
	"context"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"time"

	"dmw/internal/gateway"
	"dmw/internal/server"
)

// topology names the deployment a workload boots in-process.
type topology int

const (
	// gatewayPair is two in-memory dmwd replicas behind one dmwgw.
	gatewayPair topology = iota
	// singleReplica is one in-memory dmwd, addressed directly.
	singleReplica
	// journalReplica is one dmwd writing a WAL with fsync=always into a
	// fresh data directory, addressed directly.
	journalReplica
)

func (t topology) String() string {
	switch t {
	case gatewayPair:
		return "2 in-memory replicas behind 1 gateway"
	case singleReplica:
		return "1 in-memory replica, direct"
	default:
		return "1 journal replica (fsync=always), direct"
	}
}

// fleet is a booted deployment served over loopback HTTP. URL is where
// clients send requests: the gateway when there is one, else the
// replica.
type fleet struct {
	URL string

	servers []*server.Server
	gw      *gateway.Gateway
	https   []*http.Server
	dataDir string
}

// serveLoopback binds a fresh loopback port for h and starts serving.
func (f *fleet) serveLoopback(h http.Handler) (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	srv := &http.Server{Handler: h}
	f.https = append(f.https, srv)
	go func() { _ = srv.Serve(ln) }()
	return "http://" + ln.Addr().String(), nil
}

// bootFleet starts the topology with daemon defaults (Demo128, 2
// workers, queue 64, default verify window, gateway wire frames on and
// submit coalescing off). workDir holds the journal's data directory.
func bootFleet(t topology, workDir string) (*fleet, error) {
	quiet := slog.New(slog.NewTextHandler(io.Discard, nil))
	f := &fleet{}
	cfg := server.Config{Logger: quiet}
	replicas := 1
	switch t {
	case gatewayPair:
		replicas = 2
	case journalReplica:
		if err := os.MkdirAll(workDir, 0o755); err != nil {
			return nil, err
		}
		dir, err := os.MkdirTemp(workDir, "wal-")
		if err != nil {
			return nil, err
		}
		f.dataDir = dir
		cfg.DataDir = dir
		cfg.Fsync = "always"
	}
	var backends []gateway.Backend
	for i := 0; i < replicas; i++ {
		s, err := server.New(cfg)
		if err != nil {
			f.Close()
			return nil, fmt.Errorf("boot replica %d: %w", i, err)
		}
		s.Start()
		f.servers = append(f.servers, s)
		url, err := f.serveLoopback(s.Handler())
		if err != nil {
			f.Close()
			return nil, err
		}
		f.URL = url
		backends = append(backends, gateway.Backend{Name: fmt.Sprintf("rep%d", i), URL: url})
	}
	if t != gatewayPair {
		return f, nil
	}
	gw, err := gateway.New(gateway.Config{Backends: backends, Logger: quiet})
	if err != nil {
		f.Close()
		return nil, fmt.Errorf("boot gateway: %w", err)
	}
	f.gw = gw
	if f.URL, err = f.serveLoopback(gw.Handler()); err != nil {
		f.Close()
		return nil, err
	}
	return f, nil
}

// Close stops the HTTP listeners, then the gateway, then the replicas
// (draining them), and removes the journal's data directory.
func (f *fleet) Close() error {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	var errs []error
	for i := len(f.https) - 1; i >= 0; i-- {
		if err := f.https[i].Shutdown(ctx); err != nil {
			errs = append(errs, err, f.https[i].Close())
		}
	}
	if f.gw != nil {
		f.gw.Close()
	}
	for _, s := range f.servers {
		errs = append(errs, s.Shutdown(ctx))
	}
	if f.dataDir != "" {
		errs = append(errs, os.RemoveAll(f.dataDir))
	}
	return errors.Join(errs...)
}

// workDirFor is the scratch directory runs write into, inside the
// checkout the benchmark runs from.
func workDirFor(base string, seed int64) string {
	return filepath.Join(base, fmt.Sprintf("run-%d-%d", seed, os.Getpid()))
}
