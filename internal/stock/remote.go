package stock

import (
	"context"
	"errors"
	"fmt"
	"log"
	"net"
	"sync"
	"time"

	"privstats/internal/homomorphic"
	"privstats/internal/paillier"
	"privstats/internal/wire"
)

// Defaults for zero RemoteSourceConfig fields.
const (
	// DefaultBatch is the prefetch unit: big enough to amortize a round
	// trip, small enough that a short daemon inventory is shared fairly
	// across clients.
	DefaultBatch = 512
	// DefaultRemoteTimeout bounds dials and per-frame IO with the daemon.
	DefaultRemoteTimeout = 5 * time.Second
	// DefaultCooldown is how long a RemoteSource treats the daemon as down
	// after a failed fetch before trying again — the circuit that keeps an
	// unreachable daemon from adding a dial timeout to every draw.
	DefaultCooldown = time.Second
)

// ErrDaemonDown is wrapped by fetch failures (including cooldown refusals).
var ErrDaemonDown = errors.New("stock: daemon unreachable")

// RemoteSourceConfig tunes a RemoteSource.
type RemoteSourceConfig struct {
	// Addr is the stockd address.
	Addr string
	// Key is the client's public key; the daemon mints stock under it.
	Key *paillier.PublicKey
	// TargetZeros/TargetOnes are the local depths the prefetcher keeps
	// stocked. At least one must be positive.
	TargetZeros, TargetOnes int
	// LowWater triggers a background refill when a bit inventory drops to
	// it; zero means a quarter of that inventory's target.
	LowWater int
	// Batch caps one request's item count; zero means DefaultBatch.
	Batch int
	// DialTimeout and IOTimeout bound the daemon session; zero means
	// DefaultRemoteTimeout.
	DialTimeout, IOTimeout time.Duration
	// UseCRC requests CRC32 frame trailers on the daemon session.
	UseCRC bool
	// Cooldown is the down-daemon circuit window; zero means
	// DefaultCooldown.
	Cooldown time.Duration
	// Logf receives operational log lines; nil means log.Printf.
	Logf func(format string, args ...any)
}

// RemoteSource implements homomorphic.EncryptorPool by prefetching batches
// of daemon-minted stock into a local BitStore, with low-watermark
// background refill. When the daemon is unreachable, draws fall back to
// online encryption — counted by the local store's OnlineFallbacks, never
// blocking and never wrong.
type RemoteSource struct {
	cfg   RemoteSourceConfig
	store *paillier.BitStore

	// connMu serializes fetches (single-flight) and guards conn/downUntil.
	connMu    sync.Mutex
	conn      *wire.Conn
	downUntil time.Time

	refillCh  chan struct{}
	done      chan struct{}
	closeOnce sync.Once
	wg        sync.WaitGroup
	logf      func(format string, args ...any)
}

var _ homomorphic.EncryptorPool = (*RemoteSource)(nil)

// NewRemoteSource validates cfg and starts the background refiller. The
// returned source is usable immediately; stock arrives as fetches complete
// (use Prime to block until full).
func NewRemoteSource(cfg RemoteSourceConfig) (*RemoteSource, error) {
	if cfg.Addr == "" {
		return nil, errors.New("stock: remote source needs a daemon address")
	}
	if cfg.Key == nil {
		return nil, errors.New("stock: remote source needs a public key")
	}
	if cfg.TargetZeros < 0 || cfg.TargetOnes < 0 {
		return nil, fmt.Errorf("stock: negative remote targets (%d, %d)", cfg.TargetZeros, cfg.TargetOnes)
	}
	if cfg.TargetZeros == 0 && cfg.TargetOnes == 0 {
		return nil, errors.New("stock: all remote targets zero")
	}
	if cfg.LowWater < 0 {
		return nil, fmt.Errorf("stock: negative low watermark %d", cfg.LowWater)
	}
	if cfg.Batch == 0 {
		cfg.Batch = DefaultBatch
	}
	if cfg.Batch < 0 || cfg.Batch > MaxBatchItems {
		return nil, fmt.Errorf("stock: batch %d outside [1, %d]", cfg.Batch, MaxBatchItems)
	}
	if cfg.DialTimeout == 0 {
		cfg.DialTimeout = DefaultRemoteTimeout
	}
	if cfg.IOTimeout == 0 {
		cfg.IOTimeout = DefaultRemoteTimeout
	}
	if cfg.Cooldown == 0 {
		cfg.Cooldown = DefaultCooldown
	}
	if cfg.Logf == nil {
		cfg.Logf = log.Printf
	}
	s := &RemoteSource{
		cfg:      cfg,
		store:    paillier.NewBitStore(cfg.Key),
		refillCh: make(chan struct{}, 1),
		done:     make(chan struct{}),
		logf:     cfg.Logf,
	}
	s.wg.Add(1)
	go s.refillLoop()
	return s, nil
}

// lowWater returns the refill trigger for an inventory with the given
// target.
func (s *RemoteSource) lowWater(target int) int {
	if s.cfg.LowWater > 0 {
		return s.cfg.LowWater
	}
	return target / 4
}

// DrawBit implements homomorphic.EncryptorPool: it serves from local stock,
// prefetching when the inventory runs low and fetching synchronously when it
// is empty; if the daemon is unreachable the local store encrypts online,
// counting the fallback.
func (s *RemoteSource) DrawBit(bit uint) (homomorphic.Ciphertext, error) {
	if bit > 1 {
		return nil, fmt.Errorf("stock: DrawBit(%d): bit must be 0 or 1", bit)
	}
	target := s.cfg.TargetZeros
	if bit == 1 {
		target = s.cfg.TargetOnes
	}
	switch rem := s.store.Remaining(bit); {
	case rem == 0 && target > 0:
		// Empty: one synchronous fetch attempt before falling back online.
		if _, err := s.fetchBits(bit); err != nil && !errors.Is(err, ErrDaemonDown) {
			s.logf("stock: fetch for bit %d: %v", bit, err)
		}
	case rem <= s.lowWater(target):
		s.triggerRefill()
	}
	return s.store.DrawBit(bit)
}

// Remaining implements homomorphic.EncryptorPool.
func (s *RemoteSource) Remaining(bit uint) int { return s.store.Remaining(bit) }

// OnlineFallbacks reports draws served by online encryption — the
// steady-state SLO is zero.
func (s *RemoteSource) OnlineFallbacks() int { return s.store.OnlineFallbacks() }

// Prime fetches until every local inventory reaches its target (the bench
// and e2e setup path: a primed source proves OnlineFallbacks == 0 is
// attainable). The daemon never blocks a request — it replies with what is
// on hand, which for a key it has only just admitted is nothing — so an
// empty batch means "still minting": Prime waits, with capped backoff, and
// asks again until ctx expires. A fetch error (daemon down) is returned at
// once. Either way, whatever stock already landed is left in place.
func (s *RemoteSource) Prime(ctx context.Context) error {
	const minWait, maxWait = 2 * time.Millisecond, 250 * time.Millisecond
	wait := minWait
	for {
		if err := ctx.Err(); err != nil {
			return err
		}
		zeros, ones := s.store.Depth()
		kind, need := KindZeroBits, s.cfg.TargetZeros-zeros
		if need <= 0 {
			kind, need = KindOneBits, s.cfg.TargetOnes-ones
		}
		if need <= 0 {
			return nil
		}
		got, err := s.fetch(kind, min(need, s.cfg.Batch))
		if err != nil {
			return err
		}
		if got > 0 {
			wait = minWait
			continue
		}
		select {
		case <-ctx.Done():
			return fmt.Errorf("stock: daemon has no %v stock yet (%d still needed): %w", kind, need, ctx.Err())
		case <-s.done:
			return errors.New("stock: remote source closed while priming")
		case <-time.After(wait):
		}
		wait = min(2*wait, maxWait)
	}
}

// Close stops the refiller and closes the daemon session.
func (s *RemoteSource) Close() error {
	s.closeOnce.Do(func() { close(s.done) })
	s.wg.Wait()
	s.connMu.Lock()
	defer s.connMu.Unlock()
	if s.conn != nil {
		_ = s.conn.Send(wire.MsgDone, nil)
		_ = s.conn.Close()
		s.conn = nil
	}
	return nil
}

// triggerRefill nudges the background refiller without blocking.
func (s *RemoteSource) triggerRefill() {
	select {
	case s.refillCh <- struct{}{}:
	default:
	}
}

// refillLoop tops local inventories up to their targets whenever the draw
// path signals low water.
func (s *RemoteSource) refillLoop() {
	defer s.wg.Done()
	for {
		select {
		case <-s.done:
			return
		case <-s.refillCh:
		}
		s.topUp()
	}
}

// topUp fetches until every inventory is at target or a fetch fails (the
// cooldown then silences the loop until the daemon recovers).
func (s *RemoteSource) topUp() {
	for {
		select {
		case <-s.done:
			return
		default:
		}
		zeros, ones := s.store.Depth()
		needZ := s.cfg.TargetZeros - zeros
		needO := s.cfg.TargetOnes - ones
		var (
			got int
			err error
		)
		switch {
		case needZ > 0:
			got, err = s.fetchBits(0)
		case needO > 0:
			got, err = s.fetchBits(1)
		default:
			return
		}
		if err != nil || got == 0 {
			return // cooldown (or an empty daemon) ends this refill round
		}
	}
}

func (s *RemoteSource) fetchBits(bit uint) (int, error) {
	return s.fetch(Kind(bit), s.cfg.Batch)
}

// fetch performs one request/batch exchange with the daemon, single-flight,
// parsing and stocking every returned item. It returns how many items
// landed.
func (s *RemoteSource) fetch(kind Kind, count int) (int, error) {
	s.connMu.Lock()
	defer s.connMu.Unlock()
	if time.Now().Before(s.downUntil) {
		return 0, fmt.Errorf("%w (cooling down)", ErrDaemonDown)
	}
	got, err := s.fetchLocked(kind, count)
	if err != nil {
		if s.conn != nil {
			_ = s.conn.Close()
			s.conn = nil
		}
		s.downUntil = time.Now().Add(s.cfg.Cooldown)
		return 0, err
	}
	return got, nil
}

func (s *RemoteSource) fetchLocked(kind Kind, count int) (int, error) {
	if err := s.ensureConnLocked(); err != nil {
		return 0, err
	}
	req := Request{Kind: kind, Count: uint32(count)}
	if err := s.conn.Send(wire.MsgStockRequest, req.Encode()); err != nil {
		return 0, fmt.Errorf("%w: sending request: %v", ErrDaemonDown, err)
	}
	f, err := s.conn.Recv()
	if err != nil {
		return 0, fmt.Errorf("%w: reading batch: %v", ErrDaemonDown, err)
	}
	if f.Type == wire.MsgError {
		return 0, fmt.Errorf("stock: daemon rejected request: %w", wire.DecodeError(f.Payload))
	}
	if f.Type != wire.MsgStockBatch {
		return 0, fmt.Errorf("stock: expected batch, got %#x", byte(f.Type))
	}
	width := s.cfg.Key.CiphertextSize()
	batch, err := DecodeBatch(f.Payload, width)
	if err != nil {
		return 0, err
	}
	if batch.Kind != kind {
		return 0, fmt.Errorf("stock: asked for %v, daemon sent %v", kind, batch.Kind)
	}
	n := batch.Count()
	cts := make([]*paillier.Ciphertext, n)
	for i := 0; i < n; i++ {
		ct, err := s.cfg.Key.ParseCiphertext(batch.At(i))
		if err != nil {
			return 0, fmt.Errorf("stock: daemon sent invalid ciphertext: %w", err)
		}
		cts[i] = ct
	}
	if err := s.store.AddStock(uint(kind), cts); err != nil {
		return 0, err
	}
	return n, nil
}

// ensureConnLocked dials and greets the daemon when no session is open.
func (s *RemoteSource) ensureConnLocked() error {
	if s.conn != nil {
		return nil
	}
	raw, err := net.DialTimeout("tcp", s.cfg.Addr, s.cfg.DialTimeout)
	if err != nil {
		return fmt.Errorf("%w: dial %s: %v", ErrDaemonDown, s.cfg.Addr, err)
	}
	conn := wire.NewConn(raw)
	conn.SetIdleTimeout(s.cfg.IOTimeout)
	conn.SetWriteTimeout(s.cfg.IOTimeout)
	keyBytes, err := s.cfg.Key.MarshalBinary()
	if err != nil {
		raw.Close()
		return fmt.Errorf("stock: marshaling public key: %w", err)
	}
	fp, err := paillier.KeyFingerprint(s.cfg.Key)
	if err != nil {
		raw.Close()
		return err
	}
	hello := Hello{
		Version:     Version,
		Scheme:      paillier.SchemeID,
		PublicKey:   keyBytes,
		Fingerprint: fp,
	}
	if s.cfg.UseCRC {
		hello.Flags |= wire.HelloFlagFrameCRC
		conn.EnableCRC() // the hello itself travels CRC-framed
	}
	if err := conn.Send(wire.MsgStockHello, hello.Encode()); err != nil {
		raw.Close()
		return fmt.Errorf("%w: sending hello: %v", ErrDaemonDown, err)
	}
	f, err := conn.Recv()
	if err != nil {
		raw.Close()
		return fmt.Errorf("%w: reading hello ack: %v", ErrDaemonDown, err)
	}
	if f.Type == wire.MsgError {
		raw.Close()
		return fmt.Errorf("stock: daemon refused session: %w", wire.DecodeError(f.Payload))
	}
	if f.Type != wire.MsgStockHello {
		raw.Close()
		return fmt.Errorf("stock: expected hello ack, got %#x", byte(f.Type))
	}
	ack, err := DecodeHelloAck(f.Payload)
	if err != nil {
		raw.Close()
		return err
	}
	if ack.Fingerprint != fp {
		// The daemon admitted a different key than we sent — stale state on
		// one side; refuse the stock rather than draw unusable ciphertexts.
		raw.Close()
		return errors.New("stock: daemon acked a different key fingerprint")
	}
	s.conn = conn
	return nil
}
