// Package homomorphic defines the additively homomorphic encryption
// interface that the selected-sum protocol layer is written against.
//
// The paper's protocol needs exactly the properties stated in its Section 2:
// semantically secure encryption where E(a)·E(b) = E(a+b) and E(a)^c =
// E(a·c). The Paillier cryptosystem (internal/paillier) is the instantiation
// the paper uses, and the one scheme that implements this interface.
package homomorphic

import "math/big"

// Ciphertext is an opaque encrypted value. Implementations are immutable:
// homomorphic operations return fresh ciphertexts and never mutate their
// operands, so ciphertexts may be shared freely across goroutines.
type Ciphertext interface {
	// Bytes returns the canonical fixed-width encoding of the ciphertext,
	// suitable for the wire. The width is the owning scheme's
	// CiphertextSize.
	Bytes() []byte

	// AppendBytes appends the Bytes encoding to dst and returns the
	// extended slice, so a chunk body is encoded without a copy per row.
	AppendBytes(dst []byte) []byte
}

// PublicKey is the encrypting side of an additively homomorphic scheme.
// All plaintext arithmetic is modulo PlaintextSpace().
type PublicKey interface {
	// SchemeName identifies the scheme (e.g. "paillier") for wire
	// negotiation and reporting.
	SchemeName() string

	// Encrypt returns a fresh randomized encryption of m.
	// m must lie in [0, PlaintextSpace()). Encrypt only reads m and is safe
	// for concurrent use: the client encrypts a chunk on several goroutines
	// at once, which may share one plaintext value.
	Encrypt(m *big.Int) (Ciphertext, error)

	// Add returns an encryption of the sum of the two plaintexts.
	Add(a, b Ciphertext) (Ciphertext, error)

	// AddPlain returns an encryption of m(c)+k under c's randomizer, so the
	// result is as fresh as c is: one multiplication turns a pooled
	// encryption of 0 into an encryption of any weight. k must lie in [0,
	// PlaintextSpace()). Like Encrypt, it only reads k and is safe for
	// concurrent use.
	AddPlain(c Ciphertext, k *big.Int) (Ciphertext, error)

	// OpenFold starts the server fold Π ct_i^{k_i} = E(Σ k_i·m_i) of about
	// rows ciphertexts against columns scalar columns at once (Paillier's
	// is a bucket multi-exponentiation, see mathx.MultiExpAcc). The fold's
	// state lives until Sums, so fixed costs are paid per fold, not per
	// batch of rows.
	OpenFold(rows, columns int) ScalarFold

	// Rerandomize returns a fresh encryption of the same plaintext,
	// unlinkable to c. The server uses this (composed with an encryption
	// of a blinding value) in the multi-client protocol.
	Rerandomize(c Ciphertext) (Ciphertext, error)

	// PlaintextSpace returns the modulus M of the plaintext ring Z_M.
	PlaintextSpace() *big.Int

	// CiphertextSize returns the fixed byte width of an encoded ciphertext.
	CiphertextSize() int

	// ParseCiphertext decodes and validates a ciphertext encoded by
	// Ciphertext.Bytes. It must reject values outside the ciphertext
	// space rather than produce undefined results.
	ParseCiphertext(b []byte) (Ciphertext, error)

	// MarshalBinary encodes the public key for the session Hello.
	MarshalBinary() ([]byte, error)
}

// PrivateKey is the decrypting side of a scheme.
type PrivateKey interface {
	// PublicKey returns the matching public key.
	PublicKey() PublicKey

	// Decrypt returns the plaintext of c in [0, PlaintextSpace()).
	Decrypt(c Ciphertext) (*big.Int, error)

	// EncryptSelf returns a fresh randomized encryption of m, identically
	// distributed to PublicKey().Encrypt(m), by a route the key owner alone
	// can take (Paillier splits the randomizer exponentiation over the
	// secret factors, see paillier.EncryptCRT). Like Encrypt, it only reads
	// m and is safe for concurrent use.
	EncryptSelf(m *big.Int) (Ciphertext, error)
}

// ScalarFold is one streaming fold in progress. It is not safe for
// concurrent use; it spreads each call over lanes itself, and no goroutine it
// starts outlives the call.
type ScalarFold interface {
	// AddChunk decodes and validates every ciphertext of a chunk exactly as
	// PublicKey.ParseCiphertext does — once, whatever the column count and
	// even when every scalar is zero — before it folds any, then folds
	// ct_i^{ks[c][i]} into column c on up to lanes goroutines, at once or
	// with later chunks of a batch. cts holds the chunk's fixed-width
	// encodings back to back; ks has one scalar column per fold column, each
	// one scalar per row, and neither is read after the call. Zero scalars
	// contribute nothing. On a bad ciphertext the fold is left as it was, and
	// AddChunk returns the ciphertext's row within the chunk with the error.
	// The lane count and the batching change the time a chunk takes, never
	// the sums.
	AddChunk(cts []byte, ks [][]uint64, lanes int) (int, error)
	// Sums folds what a batch still holds and returns one encryption of
	// Σ k·m per column, computed on up to lanes goroutines. It is the fold's
	// last call: the fold may give its storage back for reuse, and any later
	// call panics. A column that only saw zero scalars yields a
	// (possibly deterministic) encryption of 0 — callers that return
	// ciphertexts to untrusted peers must rerandomize, which the
	// selected-sum protocol already does at finalize.
	Sums(lanes int) []Ciphertext
}

// EncryptorPool is implemented by schemes that can hand out precomputed
// encryptions of fixed plaintexts — the paper's Section 3.3 preprocessing
// optimization. Implementations must be safe for concurrent use.
type EncryptorPool interface {
	// DrawBit returns a precomputed fresh encryption of bit (0 or 1),
	// falling back to online encryption when the pool is empty.
	DrawBit(bit uint) (Ciphertext, error)

	// Remaining reports how many precomputed encryptions of the given bit
	// are still stocked.
	Remaining(bit uint) int
}
