package daemon

import (
	"crypto/rand"
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"privstats/internal/cluster"
	"privstats/internal/paillier"
	"privstats/internal/server"
	"privstats/internal/stock"
	"privstats/internal/trace"
)

// Serving is a daemon's serving flag block. Register defines the flags whose
// usage text is the same in every session daemon; a binary binds the rest,
// whose text names its own role, to the fields with its own definitions.
type Serving struct {
	StatsAddr      string
	MaxSessions    int
	IdleTimeout    time.Duration
	SessionTimeout time.Duration
	LogEvery       time.Duration
	TraceRing      int
	Pprof          bool
	Grace          time.Duration
}

// Register defines -grace, -log-every and -pprof on fs.
func (s *Serving) Register(fs *flag.FlagSet) {
	fs.DurationVar(&s.Grace, "grace", 30*time.Second, "drain window for in-flight sessions on SIGINT/SIGTERM/SIGHUP")
	fs.DurationVar(&s.LogEvery, "log-every", time.Minute, "interval for the periodic metrics log line (0 = off)")
	fs.BoolVar(&s.Pprof, "pprof", false, "mount net/http/pprof under /debug/pprof/ on -stats-addr")
}

// Config is the server runtime's config for the block, with a ring of the
// last TraceRing traced sessions (none when TraceRing is 0).
func (s *Serving) Config() server.Config {
	cfg := server.Config{
		MaxSessions:    s.MaxSessions,
		IdleTimeout:    s.IdleTimeout,
		SessionTimeout: s.SessionTimeout,
		LogEvery:       s.LogEvery,
	}
	if s.TraceRing > 0 {
		cfg.Traces = trace.NewRecorder(s.TraceRing)
	}
	return cfg
}

// Backend is the flag block of a binary that dials protocol sessions
// through the client runtime (internal/cluster). Register defines the flags
// whose usage text is the same in every such binary; a binary binds the
// rest to the fields with its own definitions.
type Backend struct {
	Timeout        time.Duration
	Retries        int
	Backoff        time.Duration
	DialHedgeAfter time.Duration
	CRC            bool
	Stock          string
}

// Register defines -backoff and -dial-hedge-after on fs.
func (b *Backend) Register(fs *flag.FlagSet) {
	fs.DurationVar(&b.Backoff, "backoff", cluster.DefaultBackoff, "base sleep before a retry, doubled each attempt and jittered")
	fs.DurationVar(&b.DialHedgeAfter, "dial-hedge-after", 0, "launch a second dial if the first is still pending after this delay (0 = off)")
}

// RegisterStock defines -stock on fs.
func (b *Backend) RegisterStock(fs *flag.FlagSet) {
	fs.StringVar(&b.Stock, "stock", "", "prefetch preprocessed encryptions from a stockd daemon at this address")
}

// Config is the client runtime's config for the block; Timeout bounds both
// the dial and each frame.
func (b *Backend) Config() cluster.ClientConfig {
	return cluster.ClientConfig{
		DialTimeout:    b.Timeout,
		IOTimeout:      b.Timeout,
		Retries:        b.Retries,
		Backoff:        b.Backoff,
		DialHedgeAfter: b.DialHedgeAfter,
		UseCRC:         b.CRC,
	}
}

// RemoteSource is a client of the -stock daemon prefetching zeros and ones
// encryptions under pk, with the block's timeout and CRC setting.
func (b *Backend) RemoteSource(pk *paillier.PublicKey, zeros, ones int) (*stock.RemoteSource, error) {
	return stock.NewRemoteSource(stock.RemoteSourceConfig{
		Addr:        b.Stock,
		Key:         pk,
		TargetZeros: zeros,
		TargetOnes:  ones,
		DialTimeout: b.Timeout,
		IOTimeout:   b.Timeout,
		UseCRC:      b.CRC,
	})
}

// LoadKey reads a private key written by keygen, or generates a fresh
// bits-bit key when path is empty (fine for experiments: the serving side
// never needs the private key).
func LoadKey(path string, bits int) (*paillier.PrivateKey, error) {
	if path == "" {
		return paillier.KeyGen(rand.Reader, bits)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("reading key: %w", err)
	}
	var sk paillier.PrivateKey
	if err := sk.UnmarshalBinary(data); err != nil {
		return nil, fmt.Errorf("parsing key %s: %w", path, err)
	}
	return &sk, nil
}

// SplitAddrs parses a comma-separated failover list, dropping blanks.
func SplitAddrs(s string) []string {
	var out []string
	for _, a := range strings.Split(s, ",") {
		if a = strings.TrimSpace(a); a != "" {
			out = append(out, a)
		}
	}
	return out
}
