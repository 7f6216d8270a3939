package stock

import (
	"context"
	"encoding/binary"
	"errors"
	"net"
	"strings"
	"testing"
	"time"

	"privstats/internal/cluster"
	"privstats/internal/database"
	"privstats/internal/paillier"
	"privstats/internal/selectedsum"
	"privstats/internal/server"
	"privstats/internal/wire"
)

// startStockd runs a stock daemon on the server runtime over live TCP and
// returns its address plus the inventory (for depth assertions and
// mid-test shutdown).
func startStockd(t *testing.T, cfg InventoryConfig) (string, *Inventory, *server.Server) {
	t.Helper()
	if cfg.Logf == nil {
		cfg.Logf = discardLogf
	}
	inv, err := NewInventory(cfg)
	if err != nil {
		t.Fatal(err)
	}
	srv, err := server.NewHandler(&Handler{Inv: inv}, server.Config{Logf: discardLogf})
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	errc := make(chan error, 1)
	go func() { errc <- srv.Serve(ln) }()
	t.Cleanup(func() {
		_ = srv.Close()
		<-errc
		_ = inv.Close()
	})
	return ln.Addr().String(), inv, srv
}

func TestRemoteSourcePrimeAndDraw(t *testing.T) {
	sk, _ := testKeys(t)
	addr, _, _ := startStockd(t, InventoryConfig{
		Targets: Targets{Zeros: 64, Ones: 16},
	})

	src, err := NewRemoteSource(RemoteSourceConfig{
		Addr:        addr,
		Key:         sk.Public(),
		TargetZeros: 32,
		TargetOnes:  8,
		Batch:       16,
		UseCRC:      true,
		Logf:        discardLogf,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer src.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := src.Prime(ctx); err != nil {
		t.Fatal(err)
	}
	z, o := src.Remaining(0), src.Remaining(1)
	if z < 32 || o < 8 {
		t.Fatalf("primed depths = (%d,%d)", z, o)
	}

	// Every prefetched item is genuine daemon-minted stock under our key.
	skk := paillier.SchemeKey{SK: sk}
	for i := 0; i < 32; i++ {
		ct, err := src.DrawBit(0)
		if err != nil {
			t.Fatal(err)
		}
		if v, err := skk.Decrypt(ct); err != nil || v.Sign() != 0 {
			t.Fatalf("prefetched E(0) decrypts to %v (err %v)", v, err)
		}
	}
	for i := 0; i < 8; i++ {
		ct, err := src.DrawBit(1)
		if err != nil {
			t.Fatal(err)
		}
		if v, err := skk.Decrypt(ct); err != nil || v.Int64() != 1 {
			t.Fatalf("prefetched E(1) decrypts to %v (err %v)", v, err)
		}
	}
	if n := src.OnlineFallbacks(); n != 0 {
		t.Fatalf("%d online fallbacks while stocked", n)
	}
	if _, err := src.DrawBit(2); err == nil {
		t.Error("DrawBit(2) accepted")
	}
}

func TestRemoteSourceFallsBackWhenDaemonDown(t *testing.T) {
	sk, _ := testKeys(t)
	// A port nothing listens on: grab and release one.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()

	src, err := NewRemoteSource(RemoteSourceConfig{
		Addr:        addr,
		Key:         sk.Public(),
		TargetZeros: 8,
		TargetOnes:  8,
		DialTimeout: 200 * time.Millisecond,
		Cooldown:    time.Minute, // one dial attempt, then the circuit opens
		Logf:        discardLogf,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer src.Close()

	if err := src.Prime(context.Background()); !errors.Is(err, ErrDaemonDown) {
		t.Fatalf("Prime against dead daemon: err = %v, want ErrDaemonDown", err)
	}
	// Draws still work — online, counted, never wrong.
	skk := paillier.SchemeKey{SK: sk}
	for i := 0; i < 4; i++ {
		ct, err := src.DrawBit(1)
		if err != nil {
			t.Fatal(err)
		}
		if v, err := skk.Decrypt(ct); err != nil || v.Int64() != 1 {
			t.Fatalf("fallback E(1) decrypts to %v (err %v)", v, err)
		}
	}
	if n := src.OnlineFallbacks(); n != 4 {
		t.Fatalf("OnlineFallbacks = %d, want 4", n)
	}
}

func TestRemoteSourceValidates(t *testing.T) {
	sk, _ := testKeys(t)
	bad := []RemoteSourceConfig{
		{Key: sk.Public(), TargetZeros: 1},                            // no addr
		{Addr: "x", TargetZeros: 1},                                   // no key
		{Addr: "x", Key: sk.Public()},                                 // all-zero targets
		{Addr: "x", Key: sk.Public(), TargetZeros: -1},                // negative target
		{Addr: "x", Key: sk.Public(), TargetZeros: 1, LowWater: -1},   // negative low water
		{Addr: "x", Key: sk.Public(), TargetZeros: 1, Batch: -3},      // negative batch
		{Addr: "x", Key: sk.Public(), TargetZeros: 1, Batch: 1 << 20}, // batch over cap
	}
	for i, cfg := range bad {
		if src, err := NewRemoteSource(cfg); err == nil {
			src.Close()
			t.Errorf("config %d accepted", i)
		}
	}
}

// rawStockConn dials the daemon and returns a framed conn for hand-rolled
// protocol tests.
func rawStockConn(t *testing.T, addr string) *wire.Conn {
	t.Helper()
	raw, err := net.DialTimeout("tcp", addr, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { raw.Close() })
	return wire.NewConn(raw)
}

func TestHandlerRejectsBadHellos(t *testing.T) {
	sk, other := testKeys(t)
	addr, inv, _ := startStockd(t, InventoryConfig{
		Targets: Targets{Zeros: 4},
		MaxKeys: 1,
	})

	keyBytes, err := sk.Public().MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	fp, err := paillier.KeyFingerprint(sk.Public())
	if err != nil {
		t.Fatal(err)
	}

	expectReject := func(t *testing.T, typ wire.MsgType, payload []byte, wantSub string) {
		t.Helper()
		conn := rawStockConn(t, addr)
		if err := conn.Send(typ, payload); err != nil {
			t.Fatal(err)
		}
		f, err := conn.Recv()
		if err != nil {
			t.Fatal(err)
		}
		if f.Type != wire.MsgError {
			t.Fatalf("got frame %#x, want MsgError", byte(f.Type))
		}
		if msg := wire.DecodeError(f.Payload).Error(); !strings.Contains(msg, wantSub) {
			t.Fatalf("error %q does not mention %q", msg, wantSub)
		}
	}

	t.Run("wrong message type", func(t *testing.T) {
		expectReject(t, wire.MsgStockRequest, (&Request{Kind: 0, Count: 1}).Encode(), "hello")
	})
	t.Run("garbage hello", func(t *testing.T) {
		expectReject(t, wire.MsgStockHello, []byte{1, 2, 3}, "")
	})
	t.Run("undefined message type", func(t *testing.T) {
		// A type byte that names no message was damaged in flight.
		expectReject(t, 0x24, []byte{1, 2, 3}, "corrupt-frame")
	})
	t.Run("wrong version", func(t *testing.T) {
		b := (&wire.Hello{Scheme: paillier.SchemeID, PublicKey: keyBytes, KeyFingerprint: fp}).Encode()
		binary.BigEndian.PutUint32(b, 99)
		expectReject(t, wire.MsgStockHello, b, "version")
	})
	t.Run("wrong scheme", func(t *testing.T) {
		h := wire.Hello{Scheme: "rot13", PublicKey: keyBytes, KeyFingerprint: fp}
		expectReject(t, wire.MsgStockHello, h.Encode(), "scheme")
	})
	t.Run("missing fingerprint", func(t *testing.T) {
		h := wire.Hello{Scheme: paillier.SchemeID, PublicKey: keyBytes}
		expectReject(t, wire.MsgStockHello, h.Encode(), "fingerprint")
	})
	t.Run("stale fingerprint", func(t *testing.T) {
		// The fingerprint of a rotated (different) key with the old key's
		// bytes: the daemon must refuse rather than mint unusable stock.
		staleFP, err := paillier.KeyFingerprint(other.Public())
		if err != nil {
			t.Fatal(err)
		}
		h := wire.Hello{Scheme: paillier.SchemeID, PublicKey: keyBytes, KeyFingerprint: staleFP}
		expectReject(t, wire.MsgStockHello, h.Encode(), "fingerprint")
	})
	t.Run("inventory full", func(t *testing.T) {
		if _, err := inv.Admit(sk.Public()); err != nil { // takes the only slot
			t.Fatal(err)
		}
		otherBytes, err := other.Public().MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		otherFP, err := paillier.KeyFingerprint(other.Public())
		if err != nil {
			t.Fatal(err)
		}
		h := wire.Hello{Scheme: paillier.SchemeID, PublicKey: otherBytes, KeyFingerprint: otherFP}
		expectReject(t, wire.MsgStockHello, h.Encode(), "busy")
	})

	if rejects := inv.Metrics().HelloRejects.Value(); rejects < 8 {
		t.Errorf("HelloRejects = %d, want >= 8", rejects)
	}
}

// TestHandlerRefusesRetiredKind: a request for kind 2, the r^N randomizers
// an older daemon also stocked, fails DecodeRequest like any unknown kind and
// is refused with [protocol]; the next session on the same daemon is served.
func TestHandlerRefusesRetiredKind(t *testing.T) {
	sk, _ := testKeys(t)
	pk := sk.Public()
	addr, _, _ := startStockd(t, InventoryConfig{Targets: Targets{Zeros: 4}})

	keyBytes, err := pk.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	fp, err := paillier.KeyFingerprint(pk)
	if err != nil {
		t.Fatal(err)
	}
	conn := rawStockConn(t, addr)
	hello := wire.Hello{Scheme: paillier.SchemeID, PublicKey: keyBytes, KeyFingerprint: fp}
	if err := conn.Send(wire.MsgStockHello, hello.Encode()); err != nil {
		t.Fatal(err)
	}
	if f, err := conn.Recv(); err != nil || f.Type != wire.MsgStockHello {
		t.Fatalf("hello ack: frame %v, err %v", f, err)
	}
	if err := conn.Send(wire.MsgStockRequest, (&Request{Kind: 2, Count: 1}).Encode()); err != nil {
		t.Fatal(err)
	}
	f, err := conn.Recv()
	if err != nil {
		t.Fatal(err)
	}
	if f.Type != wire.MsgError {
		t.Fatalf("kind-2 request answered with frame %#x, want MsgError", byte(f.Type))
	}
	if perr := wire.DecodeError(f.Payload); wire.ErrorCodeOf(perr) != wire.CodeProtocol {
		t.Fatalf("kind-2 request refused with %v, want [protocol]", perr)
	}

	src, err := NewRemoteSource(RemoteSourceConfig{Addr: addr, Key: pk, TargetZeros: 4, Logf: discardLogf})
	if err != nil {
		t.Fatal(err)
	}
	defer src.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := src.Prime(ctx); err != nil {
		t.Fatalf("next session after the refusal: %v", err)
	}
	skk := paillier.SchemeKey{SK: sk}
	for i := 0; i < 4; i++ {
		ct, err := src.DrawBit(0)
		if err != nil {
			t.Fatal(err)
		}
		if v, err := skk.Decrypt(ct); err != nil || v.Sign() != 0 {
			t.Fatalf("E(0) served after the refusal decrypts to %v (err %v)", v, err)
		}
	}
	if n := src.OnlineFallbacks(); n != 0 {
		t.Fatalf("%d online fallbacks after the refusal", n)
	}
}

// TestEndToEndStockedQuery is the ISSUE's e2e acceptance check: a live
// cluster (sumserver-equivalent backend) plus a live stockd; the client
// primes a RemoteSource, runs the real protocol, and gets the exact sum
// with zero online fallbacks.
func TestEndToEndStockedQuery(t *testing.T) {
	sk, _ := testKeys(t)
	const n = 48

	table, err := database.Generate(n, database.DistUniform, 11)
	if err != nil {
		t.Fatal(err)
	}
	sel, err := database.GenerateSelection(n, n/3, database.PatternRandom, 12)
	if err != nil {
		t.Fatal(err)
	}
	want, err := table.SelectedSum(sel)
	if err != nil {
		t.Fatal(err)
	}

	// Backend serving the table.
	backend, err := server.New(table, server.Config{Logf: discardLogf})
	if err != nil {
		t.Fatal(err)
	}
	bln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	berrc := make(chan error, 1)
	go func() { berrc <- backend.Serve(bln) }()
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		_ = backend.Shutdown(ctx)
		<-berrc
	})

	// Stock daemon with enough inventory for the whole index vector.
	stockAddr, _, stockSrv := startStockd(t, InventoryConfig{
		Targets: Targets{Zeros: n, Ones: n},
	})

	ones := sel.Count()
	src, err := NewRemoteSource(RemoteSourceConfig{
		Addr:        stockAddr,
		Key:         sk.Public(),
		TargetZeros: n - ones,
		TargetOnes:  ones,
		Logf:        discardLogf,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer src.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	if err := src.Prime(ctx); err != nil {
		t.Fatal(err)
	}

	runQuery := func(t *testing.T) {
		t.Helper()
		client := cluster.NewClient(cluster.ClientConfig{Retries: 1})
		_, err := client.Do(context.Background(), []string{bln.Addr().String()}, func(s *cluster.Session) error {
			sum, err := selectedsum.Query(s.Conn, paillier.SchemeKey{SK: sk}, sel, 0, src)
			if err != nil {
				return err
			}
			if sum.Cmp(want) != 0 {
				t.Errorf("sum = %v, want %v", sum, want)
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}

	runQuery(t)
	if n := src.OnlineFallbacks(); n != 0 {
		t.Fatalf("stocked query fell back online %d times", n)
	}

	// Kill stockd mid-run (force-close, like a crash), then drain whatever
	// the background refill already prefetched locally: the next query must
	// still produce the exact sum, with fallbacks counted, never a wrong
	// result.
	if err := stockSrv.Close(); err != nil {
		t.Fatal(err)
	}
	z, o := src.Remaining(0), src.Remaining(1)
	for i := 0; i < z; i++ {
		if _, err := src.DrawBit(0); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < o; i++ {
		if _, err := src.DrawBit(1); err != nil {
			t.Fatal(err)
		}
	}
	runQuery(t)
	if n := src.OnlineFallbacks(); n == 0 {
		t.Fatal("daemon down and stock drained, yet no fallbacks counted")
	}
}
