// Command sumserver runs the database side of the private selected-sum
// protocol over TCP. It loads (or generates) a table of 32-bit values and
// answers selected-sum sessions, never learning which rows any client asked
// about.
//
// Sessions run through the internal/server runtime: concurrent sessions are
// capped (-max-sessions, overflow connections get a fast busy reply), quiet
// clients are timed out (-idle-timeout), transient accept errors are
// retried with backoff, and SIGINT/SIGTERM/SIGHUP drain in-flight sessions
// for up to -grace before exiting. Live counters are served as JSON from
// http://<-stats-addr>/stats when set.
//
// Usage:
//
//	sumserver -listen :7001 -generate 100000
//	sumserver -listen :7001 -db table.psdb -max-sessions 16 -stats-addr :7002
//	sumserver -listen :7001 -generate 10000 -throttle modem   # demo a 56Kbps link
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net"
	"os"
	"strconv"
	"strings"
	"time"

	"privstats/internal/colstore"
	"privstats/internal/daemon"
	"privstats/internal/database"
	"privstats/internal/metrics"
	"privstats/internal/netsim"
	"privstats/internal/server"
	"privstats/internal/wire"

	// Paillier, the one accepted scheme, registers itself with the registry.
	_ "privstats/internal/paillier"
)

// errNoSource is returned by loadTable when neither -db nor -generate was
// given; main responds with usage + exit 2 (the old code called os.Exit
// from inside loadTable, which skipped deferred cleanup and was untestable).
var errNoSource = errors.New("need -db or -generate")

func main() {
	listen := flag.String("listen", ":7001", "address to listen on")
	dbPath := flag.String("db", "", "table file to serve (written by -save or the database package)")
	tableDir := flag.String("table-dir", "", "serve a chunked on-disk column store directory (see cstool; exclusive with -db/-generate)")
	cacheBlocks := flag.Int("cache-blocks", colstore.DefaultCacheBlocks, "decoded-block LRU capacity for -table-dir (negative = no cache)")
	generate := flag.Int("generate", 0, "generate a synthetic table of this many rows instead of loading one")
	seed := flag.Int64("seed", 1, "seed for -generate")
	save := flag.String("save", "", "write the generated table to this path and keep serving")
	shard := flag.String("shard", "", "serve only rows lo:hi of the table (a cluster backend behind sumproxy; the proxy's -shards range must match)")
	throttle := flag.String("throttle", "", "simulate a link on each connection: 'modem' (56Kbps), 'wireless' (1Mbps), or empty for none")
	once := flag.Bool("once", false, "serve a single session and exit (used by scripts and tests)")
	var d daemon.Serving
	d.Register(flag.CommandLine)
	flag.IntVar(&d.MaxSessions, "max-sessions", server.DefaultMaxSessions, "max concurrent sessions; overflow connections get a busy error")
	flag.DurationVar(&d.IdleTimeout, "idle-timeout", 2*time.Minute, "fail a session whose client sends nothing for this long (0 = never)")
	flag.DurationVar(&d.SessionTimeout, "session-timeout", 0, "hard cap on a whole session (0 = none)")
	flag.StringVar(&d.StatsAddr, "stats-addr", "", "serve live metrics as JSON on http://<addr>/stats (empty = off)")
	flag.IntVar(&d.TraceRing, "trace-ring", 0, "record the last N traced sessions and serve them at /traces on -stats-addr (0 = off)")
	flag.Parse()

	// Reject a bad throttle name now rather than on every connection —
	// wrapConn runs per session, so without this check the server would
	// start fine and then fail each client with a confusing wrap error.
	switch *throttle {
	case "", "modem", "wireless":
	default:
		log.Fatalf("sumserver: unknown -throttle %q (want modem, wireless, or empty)", *throttle)
	}

	var src database.Source
	if *tableDir != "" {
		if *dbPath != "" || *generate > 0 {
			log.Fatalf("sumserver: use either -table-dir or -db/-generate, not both")
		}
		var err error
		src, err = openStoreDir(*tableDir, *cacheBlocks, *shard)
		if err != nil {
			log.Fatalf("sumserver: %v", err)
		}
	} else {
		table, err := loadTable(*dbPath, *generate, *seed, *save)
		if errors.Is(err, errNoSource) {
			flag.Usage()
			os.Exit(2)
		}
		if err != nil {
			log.Fatalf("sumserver: %v", err)
		}
		if *shard != "" {
			table, err = sliceShard(table, *shard)
			if err != nil {
				log.Fatalf("sumserver: %v", err)
			}
		}
		src = table
	}

	cfg := d.Config()
	cfg.WrapConn = func(c net.Conn) (*wire.Conn, error) { return wrapConn(c, *throttle) }
	if *once {
		cfg.SessionLimit = 1
	}
	srv, err := server.NewSource(src, cfg)
	if err != nil {
		log.Fatalf("sumserver: %v", err)
	}
	err = d.Run(context.Background(), "sumserver", *listen, srv, server.StatsMuxConfig{
		Stats: metrics.StatsHandler(func() any { return srv.Metrics().Snapshot(time.Now()) }),
		Prom:  metrics.Registry{srv.Metrics()},
	}, func(addr net.Addr) {
		log.Printf("serving %d rows on %s (throttle=%q, max-sessions=%d)", src.Len(), addr, *throttle, d.MaxSessions)
	})
	if err != nil {
		log.Fatalf("sumserver: %v", err)
	}
}

// loadTable resolves the table source from flags. It returns errNoSource
// when neither source flag was given.
func loadTable(dbPath string, generate int, seed int64, save string) (*database.Table, error) {
	switch {
	case dbPath != "" && generate > 0:
		return nil, fmt.Errorf("use either -db or -generate, not both")
	case dbPath != "":
		return database.LoadFile(dbPath)
	case generate > 0:
		table, err := database.Generate(generate, database.DistUniform, seed)
		if err != nil {
			return nil, err
		}
		if save != "" {
			if err := table.SaveFile(save); err != nil {
				return nil, err
			}
			log.Printf("saved generated table to %s", save)
		}
		return table, nil
	default:
		return nil, errNoSource
	}
}

// sliceShard applies the -shard lo:hi restriction.
func sliceShard(table *database.Table, spec string) (*database.Table, error) {
	lo, hi, err := parseShardSpec(spec)
	if err != nil {
		return nil, err
	}
	shard, err := table.Shard(lo, hi)
	if err != nil {
		return nil, err
	}
	log.Printf("restricted to shard [%d,%d) of the %d-row table", lo, hi, table.Len())
	return shard, nil
}

// parseShardSpec parses "lo:hi".
func parseShardSpec(spec string) (lo, hi int, err error) {
	loStr, hiStr, ok := strings.Cut(spec, ":")
	if !ok {
		return 0, 0, fmt.Errorf("bad -shard %q (want lo:hi)", spec)
	}
	if lo, err = strconv.Atoi(loStr); err != nil {
		return 0, 0, fmt.Errorf("bad -shard %q: %w", spec, err)
	}
	if hi, err = strconv.Atoi(hiStr); err != nil {
		return 0, 0, fmt.Errorf("bad -shard %q: %w", spec, err)
	}
	return lo, hi, nil
}

// openStoreDir opens a colstore table directory read-only and applies the
// optional -shard restriction in global row coordinates: a shard directory
// written by a migration carries its base row in the header and serves
// global rows [BaseRow, BaseRow+Len), so -shard lo:hi both cross-checks
// the directory against the proxy's shard map and slices a full-table
// directory down to one shard's range.
func openStoreDir(dir string, cacheBlocks int, shardSpec string) (database.Source, error) {
	store, err := colstore.Open(dir, colstore.Options{ReadOnly: true, CacheBlocks: cacheBlocks})
	if err != nil {
		return nil, err
	}
	st := store.Stats()
	if st.TornTail {
		log.Printf("column store %s: ignoring a torn tail block (read-only open)", dir)
	}
	log.Printf("opened column store %s: %d rows in %d blocks of %d (base row %d)",
		dir, st.Rows, st.Blocks, st.BlockRows, st.BaseRow)
	if shardSpec == "" {
		return store, nil
	}
	lo, hi, err := parseShardSpec(shardSpec)
	if err != nil {
		return nil, err
	}
	base := int(store.BaseRow())
	if lo < base || hi > base+store.Len() {
		return nil, fmt.Errorf("-shard [%d,%d) outside the store's global range [%d,%d)",
			lo, hi, base, base+store.Len())
	}
	view, err := store.Range(lo-base, hi-base)
	if err != nil {
		return nil, err
	}
	log.Printf("restricted to shard [%d,%d) of global rows [%d,%d)", lo, hi, base, base+store.Len())
	return view, nil
}

// wrapConn frames the connection, optionally through a bandwidth throttle.
func wrapConn(c net.Conn, throttle string) (*wire.Conn, error) {
	switch throttle {
	case "":
		return wire.NewConn(c), nil
	case "modem":
		th, err := netsim.NewThrottle(c, netsim.LongDistance)
		if err != nil {
			return nil, err
		}
		return wire.NewConn(th), nil
	case "wireless":
		th, err := netsim.NewThrottle(c, netsim.Wireless)
		if err != nil {
			return nil, err
		}
		return wire.NewConn(th), nil
	default:
		return nil, fmt.Errorf("unknown throttle %q (want modem, wireless, or empty)", throttle)
	}
}
