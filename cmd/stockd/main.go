// Command stockd runs preprocessing as a service: a daemon that keeps
// per-public-key inventories of pre-encrypted 0/1 bits at target depths, and
// streams batches of them to clients over the stock wire protocol. Clients
// (sumclient -stock, sumjobd -stock) prefetch from it instead of paying the
// paper's §3.3 online encryption cost; when stockd is down they silently
// fall back to online encryption, so a stock outage costs latency, never
// correctness.
//
// stockd holds no secrets: it sees only public keys and mints encryptions of
// the constants 0 and 1 under them. It learns nothing about any client's
// selections or any server's data. Keys are admitted on first hello, up to
// -max-keys.
//
// Usage:
//
//	stockd -listen :7005 -target-zeros 4096 -target-ones 512
//	stockd -listen :7005 -state-dir /var/lib/stockd -rate 2000 -stats-addr :7006
//
// With -state-dir, inventories survive restarts: stock is persisted on
// graceful shutdown (SIGINT/SIGTERM/SIGHUP all drain then persist) and
// restored — fingerprint-checked, so a rotated key's stale files are
// discarded — at startup, before the socket opens. Adding -snapshot-every
// also writes crash-safe snapshots on an interval (and optionally after
// every -snapshot-delta items served), so even a SIGKILL loses at most one
// interval of stock.
package main

import (
	"context"
	"flag"
	"log"
	"net"
	"time"

	"privstats/internal/daemon"
	"privstats/internal/metrics"
	"privstats/internal/server"
	"privstats/internal/stock"
)

// stockdConfig is everything buildInventory validates before a socket opens.
type stockdConfig struct {
	targets       stock.Targets
	maxKeys       int
	rate          int
	stateDir      string
	snapshotEvery time.Duration
	snapshotDelta int
}

// buildInventory validates the generation knobs and assembles the daemon's
// inventory, so every operator mistake surfaces before any socket is opened.
func buildInventory(cfg stockdConfig) (*stock.Inventory, error) {
	return stock.NewInventory(stock.InventoryConfig{
		Targets:       cfg.targets,
		MaxKeys:       cfg.maxKeys,
		Rate:          cfg.rate,
		StateDir:      cfg.stateDir,
		SnapshotEvery: cfg.snapshotEvery,
		SnapshotDelta: cfg.snapshotDelta,
		Logf:          log.Printf,
	})
}

func main() {
	listen := flag.String("listen", ":7005", "address to serve stock sessions on")
	var cfg stockdConfig
	flag.IntVar(&cfg.targets.Zeros, "target-zeros", 4096, "per-key inventory depth of encrypted 0 bits")
	flag.IntVar(&cfg.targets.Ones, "target-ones", 512, "per-key inventory depth of encrypted 1 bits")
	flag.IntVar(&cfg.maxKeys, "max-keys", stock.DefaultMaxKeys, "public keys admitted before hellos get a busy error")
	flag.IntVar(&cfg.rate, "rate", 0, "cap stock generation at this many items/second across all keys (0 = unlimited)")
	flag.StringVar(&cfg.stateDir, "state-dir", "", "persist inventories here on shutdown and restore on admission (empty = off)")
	flag.DurationVar(&cfg.snapshotEvery, "snapshot-every", 0, "also snapshot inventories to -state-dir at this interval, so a kill loses at most one interval of stock (0 = only on graceful exit)")
	flag.IntVar(&cfg.snapshotDelta, "snapshot-delta", 0, "snapshot early once this many items were served since the last one (0 = interval only)")
	var d daemon.Serving
	d.Register(flag.CommandLine)
	flag.IntVar(&d.MaxSessions, "max-sessions", server.DefaultMaxSessions, "max concurrent sessions; overflow connections get a busy error")
	flag.DurationVar(&d.IdleTimeout, "idle-timeout", 2*time.Minute, "fail a session whose client sends nothing for this long (0 = never)")
	flag.StringVar(&d.StatsAddr, "stats-addr", "", "serve inventory depths as JSON on http://<addr>/stats plus Prometheus /metrics (empty = off)")
	flag.Parse()

	inv, err := buildInventory(cfg)
	if err != nil {
		log.Fatalf("stockd: %v", err)
	}
	// Re-admit persisted keys and restore their stock before the socket
	// opens, and say exactly what came back.
	summary, err := inv.RestoreAll()
	if err != nil {
		log.Fatalf("stockd: %v", err)
	}
	log.Printf("stock: recovery: %s", summary)

	srv, err := server.NewHandler(&stock.Handler{Inv: inv}, d.Config())
	if err != nil {
		log.Fatalf("stockd: %v", err)
	}
	err = d.Run(context.Background(), "stockd", *listen, srv, server.StatsMuxConfig{
		Stats: metrics.StatsHandler(func() any { return inv.Metrics().Snapshot() }),
		Prom:  metrics.Registry{srv.Metrics(), inv.Metrics()},
	}, func(addr net.Addr) {
		log.Printf("stock daemon on %s (targets %d/%d, max-keys=%d, rate=%d/s)",
			addr, cfg.targets.Zeros, cfg.targets.Ones, cfg.maxKeys, cfg.rate)
	})
	if err != nil {
		log.Fatalf("stockd: %v", err)
	}
	// Stop the refillers and persist surviving stock (the whole point of a
	// graceful exit with -state-dir).
	if err := inv.Close(); err != nil {
		log.Printf("stockd: persisting inventories: %v", err)
	}
}
