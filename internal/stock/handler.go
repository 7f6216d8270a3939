package stock

import (
	"errors"
	"fmt"
	"io"
	"time"

	"privstats/internal/paillier"
	"privstats/internal/selectedsum"
	"privstats/internal/wire"
)

// Handler answers stock sessions on the server runtime (internal/server):
// cmd/stockd mounts it via server.NewHandler and inherits admission control,
// deadlines, panic isolation, graceful shutdown, and /stats for free.
type Handler struct {
	Inv *Inventory
}

var _ interface {
	ServeSession(conn *wire.Conn, timings *selectedsum.PhaseTimings) error
} = (*Handler)(nil)

// ServeSession runs one stock session: hello, ack, then request/batch pairs
// until the client sends MsgDone or hangs up.
func (h *Handler) ServeSession(conn *wire.Conn, timings *selectedsum.PhaseTimings) error {
	if timings == nil {
		timings = &selectedsum.PhaseTimings{}
	}
	m := h.Inv.Metrics()
	m.Sessions.Inc()

	helloStart := time.Now()
	k, code, err := h.hello(conn)
	timings.Hello = time.Since(helloStart)
	if err != nil {
		// Counted before the refusal goes out, so a client holding the
		// reply can already see the count.
		m.HelloRejects.Inc()
		if code != wire.CodeNone {
			_ = conn.SendErrorCode(code, err.Error())
		}
		return err
	}

	for {
		f, err := conn.Recv()
		if err != nil {
			if errors.Is(err, io.EOF) {
				return nil // client closed after its last batch
			}
			return fmt.Errorf("stock: reading request: %w", err)
		}
		switch f.Type {
		case wire.MsgDone:
			return nil
		case wire.MsgStockRequest:
			req, err := DecodeRequest(f.Payload)
			if err != nil {
				_ = conn.SendErrorCode(wire.CodeProtocol, err.Error())
				return err
			}
			serveStart := time.Now()
			batch := h.Inv.take(k, req)
			timings.Absorb += time.Since(serveStart)
			if err := conn.Send(wire.MsgStockBatch, batch.Encode()); err != nil {
				return fmt.Errorf("stock: sending batch: %w", err)
			}
		case wire.MsgError:
			return fmt.Errorf("stock: client reported: %w", wire.DecodeError(f.Payload))
		default:
			err := fmt.Errorf("stock: unexpected message %#x", byte(f.Type))
			_ = conn.SendErrorCode(wire.CodeProtocol, err.Error())
			return err
		}
	}
}

// hello validates the opening message and admits the session's key. On
// failure the code says how to refuse the peer; CodeNone means the transport
// failed and there is no one to tell.
func (h *Handler) hello(conn *wire.Conn) (*keyStock, wire.ErrorCode, error) {
	f, err := conn.Recv()
	if err != nil {
		return nil, wire.CodeNone, fmt.Errorf("stock: reading hello: %w", err)
	}
	if f.Type != wire.MsgStockHello {
		return nil, wire.CodeProtocol, fmt.Errorf("stock: expected stock hello, got %#x", byte(f.Type))
	}
	hello, err := DecodeHello(f.Payload)
	if err != nil {
		return nil, wire.CodeProtocol, err
	}
	if hello.Version != Version {
		return nil, wire.CodeProtocol, fmt.Errorf("stock: unsupported version %d", hello.Version)
	}
	if hello.Scheme != paillier.SchemeID {
		return nil, wire.CodeProtocol, fmt.Errorf("stock: unsupported scheme %q", hello.Scheme)
	}
	if !hello.CheckFingerprint() {
		// A stale fingerprint means the client rotated its key (or the
		// hello was corrupted en route): refuse outright rather than mint
		// stock the client would reject.
		return nil, wire.CodeProtocol, errors.New("stock: hello fingerprint does not match key bytes")
	}
	var pk paillier.PublicKey
	if err := pk.UnmarshalBinary(hello.PublicKey); err != nil {
		return nil, wire.CodeProtocol, fmt.Errorf("stock: parsing public key: %w", err)
	}
	k, err := h.Inv.Admit(&pk)
	if err != nil {
		if errors.Is(err, ErrInventoryFull) {
			return nil, wire.CodeBusy, err // transient: keys may be evicted/restarted
		}
		return nil, wire.CodeProtocol, err
	}
	if hello.Flags&wire.HelloFlagFrameCRC != 0 {
		conn.EnableCRC()
	}
	ack := HelloAck{Version: Version, Fingerprint: k.fp}
	if err := conn.Send(wire.MsgStockHello, ack.Encode()); err != nil {
		return nil, wire.CodeNone, fmt.Errorf("stock: sending hello ack: %w", err)
	}
	return k, wire.CodeNone, nil
}
