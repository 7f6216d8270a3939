// Package selectedsum implements the paper's private selected-sum protocol
// (Figure 1) and its four evaluated optimizations: single-pass batching with
// pipeline parallelism (§3.2), index-vector preprocessing (§3.3), their
// combination (§3.4), and the multi-client blinded variant (§3.5).
//
// The protocol: the client holds an index vector I over the server's n
// values x_1..x_n and a key pair of an additively homomorphic cryptosystem.
// It sends E(I_1)..E(I_n); the server folds Π E(I_i)^{x_i} = E(Σ I_i·x_i)
// and returns it; the client decrypts the sum.
//
// One deliberate hardening beyond the paper's prose: the server
// rerandomizes the final product before returning it. The raw product's
// randomness is Π r_i^{x_i}, a function of the database values under
// randomness the client chose — for small databases the client could
// brute-force values out of it. Rerandomization (one extra r^N per server,
// constant cost) restores the database-privacy claim. See Finalize. A cluster
// aggregator multiplies its shards' rerandomized replies and adds none of its
// own: a product of fresh encryptions is already one.
package selectedsum

import (
	"errors"
	"fmt"
	"math/big"
	"runtime"
	"slices"
	"sync"

	"privstats/internal/database"
	"privstats/internal/homomorphic"
	"privstats/internal/mathx"
	"privstats/internal/wire"
)

// Protocol errors.
var (
	ErrChunkOutOfOrder = errors.New("selectedsum: index chunk out of order")
	ErrVectorLength    = errors.New("selectedsum: index vector length mismatch")
	ErrIncomplete      = errors.New("selectedsum: index vector incomplete at finalize")
)

// BitEncryptor produces encryptions of index bits. The plain protocol uses
// Online (encrypt on demand); the preprocessing optimization uses a
// homomorphic.EncryptorPool filled offline.
type BitEncryptor interface {
	EncryptBit(bit uint) (homomorphic.Ciphertext, error)
}

// Online encrypts bits on demand with the public key — the unoptimized
// client of Figures 2 and 3.
type Online struct {
	PK homomorphic.PublicKey
}

// EncryptBit implements BitEncryptor.
func (o Online) EncryptBit(bit uint) (homomorphic.Ciphertext, error) {
	if bit > 1 {
		return nil, fmt.Errorf("selectedsum: index bit must be 0 or 1, got %d", bit)
	}
	return o.PK.Encrypt(big.NewInt(int64(bit)))
}

// OwnerOnline encrypts bits on demand through the key owner's EncryptSelf —
// same ciphertext distribution as Online, but the scheme may exploit the
// private key (Paillier splits the randomizer exponentiation over the secret
// factors). The selected-sum client always qualifies: it holds the private
// key to decrypt the final sum.
type OwnerOnline struct {
	SK homomorphic.PrivateKey
}

// EncryptBit implements BitEncryptor.
func (o OwnerOnline) EncryptBit(bit uint) (homomorphic.Ciphertext, error) {
	if bit > 1 {
		return nil, fmt.Errorf("selectedsum: index bit must be 0 or 1, got %d", bit)
	}
	return o.SK.EncryptSelf(big.NewInt(int64(bit)))
}

// Pooled draws preprocessed bit encryptions — the §3.3 optimized client.
type Pooled struct {
	Pool homomorphic.EncryptorPool
}

// EncryptBit implements BitEncryptor.
func (p Pooled) EncryptBit(bit uint) (homomorphic.Ciphertext, error) {
	if bit > 1 {
		return nil, fmt.Errorf("selectedsum: index bit must be 0 or 1, got %d", bit)
	}
	return p.Pool.DrawBit(bit)
}

// EncryptRange encrypts the selection bits for positions [lo, hi) and
// returns their concatenated wire encodings. This is the client's per-chunk
// work; its duration is what the benchmarks report as client encryption
// time. It runs on the calling goroutine alone: the paper's figures time one
// client's encryption as one CPU component.
func EncryptRange(enc BitEncryptor, sel *database.Selection, lo, hi, width int) ([]byte, error) {
	if lo < 0 || hi < lo || hi > sel.Len() {
		return nil, fmt.Errorf("selectedsum: bad range [%d,%d) over %d", lo, hi, sel.Len())
	}
	return encryptRows(nil, selectionSource{sel: sel, enc: enc}, lo, hi, width, 1)
}

// encryptMinRows is the fewest rows encryptRows hands one worker. An
// encryption costs tens of microseconds, a goroutine about one, so the grain
// only keeps a tiny chunk from fanning out into workers that each do a row
// or two.
const encryptMinRows = 16

// encryptRows encrypts entries [lo, hi) of src and returns their
// fixed-width encodings, concatenated in row order, in dst's storage when it
// is large enough. Up to workers goroutines share the range, each a
// contiguous sub-range of at least encryptMinRows rows that it encodes
// straight into its own region of the one body, so the bytes are laid out
// exactly as a single loop lays them out. Every worker has returned when
// encryptRows does; the error is the lowest failing row's.
func encryptRows(dst []byte, src VectorSource, lo, hi, width, workers int) ([]byte, error) {
	body := slices.Grow(dst[:0], (hi-lo)*width)[:(hi-lo)*width]
	// encode fills rows [a, b). Its slice is capped at the region's end, so
	// a ciphertext of the wrong width reallocates instead of writing into a
	// neighbour's region, and appendCiphertext reports it.
	encode := func(a, b int) error {
		out := body[(a-lo)*width : (a-lo)*width : (b-lo)*width]
		for i := a; i < b; i++ {
			ct, err := src.EncryptAt(i)
			if err != nil {
				return fmt.Errorf("selectedsum: encrypting entry %d: %w", i, err)
			}
			if out, err = appendCiphertext(out, ct, width); err != nil {
				return err
			}
		}
		return nil
	}
	workers = max(min(workers, (hi-lo)/encryptMinRows), 1)
	errs := make([]error, workers)
	var wg sync.WaitGroup
	for w := range workers {
		a, b := lo+(hi-lo)*w/workers, lo+(hi-lo)*(w+1)/workers
		if w == workers-1 {
			errs[w] = encode(a, b) // the last sub-range runs on the caller
			break
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[w] = encode(a, b)
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return body, nil
}

// appendCiphertext appends ct's encoding to dst and checks it has the
// session's width.
func appendCiphertext(dst []byte, ct homomorphic.Ciphertext, width int) ([]byte, error) {
	n := len(dst)
	dst = ct.AppendBytes(dst)
	if len(dst)-n != width {
		return nil, fmt.Errorf("selectedsum: ciphertext width %d, session expects %d", len(dst)-n, width)
	}
	return dst, nil
}

// ServerSession folds encrypted index chunks into the encrypted sum. It is
// the server of Figure 1: stateless beyond the running partial products, and
// it never decrypts anything.
//
// One session folds the client's index vector against one or more columns
// at once (value, square, ones): every uplink ciphertext is decoded and
// validated once and feeds each column's accumulator, a streaming fold
// (homomorphic.PublicKey.OpenFold) that lives until Finalize.
//
// The streaming fold runs on up to lanes goroutines, split by exponent
// window, and finalize deals the columns' seals to the same lanes; none
// outlives the call that started it. Lanes change how long a session takes,
// never what it replies.
type ServerSession struct {
	pk      homomorphic.PublicKey
	columns []database.Column
	lanes   int // goroutines the fold and the seals may use

	fold homomorphic.ScalarFold
	ks   [][]uint64 // the current chunk's scalars, one column per fold column

	base uint64 // global row offset of row 0 of the columns (shard sessions)
	next uint64 // next expected vector offset (global coordinates)
	done bool
	err  error // a chunk failed: the session is over
}

// NewShardSession prepares a fold over one numeric column under the client's
// public key — the value column, or the square column the stats layer folds
// the same encrypted index vector against to compute variances privately.
// vectorLen must equal the column length: the client must supply a bit for
// every row or the server would learn which rows the query ignores.
//
// A non-zero rowOffset makes it the session of a shard of a larger logical
// database: the column holds rows [rowOffset, rowOffset+vectorLen) of the
// logical table, and incoming index chunks keep their global offsets — the
// session translates. The cluster aggregator fans a client's chunks out to
// shard sessions unmodified, which keeps the framing identical on every hop
// and makes "the backend saw only its own row range" directly checkable.
func NewShardSession(pk homomorphic.PublicKey, col database.Column, vectorLen, rowOffset uint64) (*ServerSession, error) {
	if col == nil {
		return nil, errors.New("selectedsum: nil column")
	}
	return newServerSession(pk, []database.Column{col}, vectorLen, rowOffset)
}

// foldLaneRows is the grain of the fold's lanes: a session gets one lane per
// foldLaneRows rows, up to GOMAXPROCS. A short session's chunks and combine
// are a few hundred microseconds; on a server already busy with other
// sessions, handing them to a second core only adds the handoff.
const foldLaneRows = 128

// newServerSession folds one index vector against every column at once.
func newServerSession(pk homomorphic.PublicKey, columns []database.Column, vectorLen, rowOffset uint64) (*ServerSession, error) {
	if pk == nil {
		return nil, errors.New("selectedsum: nil public key")
	}
	for _, col := range columns {
		if vectorLen != uint64(col.Len()) {
			return nil, fmt.Errorf("%w: client announces %d, table has %d rows", ErrVectorLength, vectorLen, col.Len())
		}
	}
	s := &ServerSession{
		pk:      pk,
		columns: columns,
		fold:    pk.OpenFold(int(vectorLen), len(columns)),
		ks:      make([][]uint64, len(columns)),
		base:    rowOffset,
		next:    rowOffset,
	}
	s.lanes = runtime.GOMAXPROCS(0)
	if grains := vectorLen / foldLaneRows; uint64(s.lanes) > grains {
		s.lanes = max(int(grains), 1)
	}
	return s, nil
}

// rows is the session's vector length.
func (s *ServerSession) rows() int { return s.columns[0].Len() }

// Absorb folds one index chunk. Chunks must arrive in order and without
// gaps; each ciphertext is validated before use. The zero-valued rows are
// skipped: E(I_i)^0 = E(0) contributes nothing, and the server knows x_i,
// so the skip leaks nothing and saves an exponentiation.
//
// The fold validates a whole chunk before it folds any row, so a malformed
// ciphertext leaves its accumulators untouched. Still, a failed chunk ends
// the session: it refuses every later Absorb and Finalize.
func (s *ServerSession) Absorb(chunk *wire.IndexChunk) error {
	switch {
	case s.done:
		return errors.New("selectedsum: absorb after finalize")
	case s.err != nil:
		return fmt.Errorf("selectedsum: absorb after a failed chunk: %w", s.err)
	case chunk.Offset != s.next:
		return fmt.Errorf("%w: got offset %d, want %d", ErrChunkOutOfOrder, chunk.Offset, s.next)
	}
	count := chunk.Count()
	if end := s.base + uint64(s.rows()); chunk.Offset+uint64(count) > end {
		return fmt.Errorf("%w: chunk [%d,%d) exceeds rows [%d,%d)", ErrVectorLength, chunk.Offset, chunk.Offset+uint64(count), s.base, end)
	}
	first := int(chunk.Offset - s.base)
	for c, col := range s.columns {
		s.ks[c] = slices.Grow(s.ks[c][:0], count)[:count]
		col.Fill(s.ks[c], first)
	}
	if k, err := s.fold.AddChunk(chunk.Ciphertexts, s.ks, s.lanes); err != nil {
		s.err = fmt.Errorf("selectedsum: chunk ciphertext %d: %w", chunk.Offset+uint64(k), err)
		return s.err
	}
	s.next += uint64(count)
	return nil
}

// Finalize checks the vector is complete and returns the rerandomized
// encrypted sum of the session's (first) column. Optionally a blinding value
// can be added homomorphically — the multi-client protocol passes the
// server's R_i here; single-client runs pass nil.
func (s *ServerSession) Finalize(blind *big.Int) (homomorphic.Ciphertext, error) {
	sums, err := s.finalize(blind)
	if err != nil {
		return nil, err
	}
	return sums[0], nil
}

// finalize returns one rerandomized (or blinded) sum per column. This is
// where a streaming fold pays its deferred half: its buckets combine, once
// for the whole session.
func (s *ServerSession) finalize(blind *big.Int) ([]homomorphic.Ciphertext, error) {
	switch {
	case s.done:
		return nil, errors.New("selectedsum: double finalize")
	case s.err != nil:
		return nil, fmt.Errorf("selectedsum: finalize after a failed chunk: %w", s.err)
	case s.next != s.base+uint64(s.rows()):
		return nil, fmt.Errorf("%w: folded %d of %d positions", ErrIncomplete, s.next-s.base, s.rows())
	}
	s.done = true

	raw := s.fold.Sums(s.lanes)
	sums := make([]homomorphic.Ciphertext, len(s.columns))
	errs := make([]error, len(s.columns))
	// Each column's seal draws its own r^N: the columns are dealt to the
	// session's lanes like the fold's windows.
	mathx.Deal(s.lanes, len(sums), func(_, c int) {
		sums[c], errs[c] = s.seal(raw[c], blind)
	})
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return sums, nil
}

// seal turns a raw fold product into what may leave the server: a fresh
// encryption, whose randomness is one r^N drawn here.
func (s *ServerSession) seal(acc homomorphic.Ciphertext, blind *big.Int) (homomorphic.Ciphertext, error) {
	if blind != nil {
		bl := new(big.Int).Mod(blind, s.pk.PlaintextSpace())
		blCt, err := s.pk.Encrypt(bl)
		if err != nil {
			return nil, fmt.Errorf("selectedsum: encrypting blinding: %w", err)
		}
		// The blinding encryption is fresh, so it doubles as the
		// rerandomization.
		return s.pk.Add(acc, blCt)
	}
	// Rerandomize so the response's randomness is independent of the
	// database values (see the package comment).
	fresh, err := s.pk.Rerandomize(acc)
	if err != nil {
		return nil, fmt.Errorf("selectedsum: rerandomizing sum: %w", err)
	}
	return fresh, nil
}
