package paillier

import (
	"bytes"
	"context"
	"crypto/rand"
	"errors"
	"io"
	"math/big"
	"testing"
	"time"

	"privstats/internal/mathx"
	"privstats/internal/testutil"
)

// Tests for the key owner's CRT encryption path: exactness against the
// public-key formulas, distribution-surrogate checks (every randomizer is a
// valid encryption of zero), the nonce-unit validation, and the pool
// integration (owner fills, fallback counting, parallel-fill cancellation).

// crtKeyBits are the key sizes the owner-path tests run at: 128 bits, and
// 512 bits — the paper's key, whose 8-word p² and q² take the
// register-resident exponentiation kernel on amd64.
var crtKeyBits = []int{128, 512}

func TestRandomizerCRTMatchesDirectExp(t *testing.T) {
	for _, bits := range crtKeyBits {
		sk := testKey(t, bits)
		for i := 0; i < 20; i++ {
			r, err := randomNonce(sk.Public())
			if err != nil {
				t.Fatal(err)
			}
			want := new(big.Int).Exp(r, sk.N, sk.NSquared)
			got, err := sk.RandomizerCRT(r)
			if err != nil {
				t.Fatalf("RandomizerCRT: %v", err)
			}
			if got.Cmp(want) != 0 {
				t.Fatalf("%d-bit key: RandomizerCRT(%v) = %v, want %v", bits, r, got, want)
			}
		}
	}
}

// TestPublicRandomizersMatchDirectExp: the three public r^N sites given
// their nonces — encryption and the seal with the caller's nonce, and a pool
// refill without the key — return the bytes big.Int.Exp gives, at both key
// sizes; at 512 bits N² is 16 words, where the first two run on mathx's
// register kernel and the refill on its twenty-limb lanes.
func TestPublicRandomizersMatchDirectExp(t *testing.T) {
	for _, bits := range crtKeyBits {
		sk := testKey(t, bits)
		pk := sk.Public()
		seed := make([]byte, 1<<16)
		if _, err := rand.Read(seed); err != nil {
			t.Fatal(err)
		}
		pool := NewRandomizerPool(pk)
		pool.rnd = bytes.NewReader(seed)
		drawn := bytes.NewReader(seed)
		for i := 0; i < 20; i++ {
			m, err := randomMessage(pk)
			if err != nil {
				t.Fatal(err)
			}
			r, err := randomNonce(pk)
			if err != nil {
				t.Fatal(err)
			}
			rn := new(big.Int).Exp(r, sk.N, sk.NSquared)
			gm := new(big.Int).Mul(m, sk.N)
			want := gm.Add(gm, bigOne()).Mul(gm, rn).Mod(gm, sk.NSquared)
			ct, err := pk.EncryptWithNonce(m, r)
			if err != nil {
				t.Fatal(err)
			}
			if ct.c.Cmp(want) != 0 {
				t.Fatalf("%d-bit key: EncryptWithNonce = %v, want %v", bits, ct.c, want)
			}
			want.Mul(want, rn).Mod(want, sk.NSquared)
			if got := pk.rerandomizeWithNonce(ct, r); got.c.Cmp(want) != 0 {
				t.Fatalf("%d-bit key: rerandomizeWithNonce = %v, want %v", bits, got.c, want)
			}
		}
		// A refill reads its nonces in order and raises them with one
		// ExpEach: 20 is two groups of eight lanes and a partial one.
		got, err := pool.newRandomizers(20)
		if err != nil {
			t.Fatal(err)
		}
		for i, rn := range got {
			r, err := mathx.RandUnit(drawn, pk.N)
			if err != nil {
				t.Fatal(err)
			}
			if want := new(big.Int).Exp(r, sk.N, sk.NSquared); rn.Cmp(want) != 0 {
				t.Fatalf("%d-bit key: pool refill %d = %v, want %v", bits, i, rn, want)
			}
		}
	}
}

func TestEncryptWithNonceCRTMatchesPublicPath(t *testing.T) {
	sk := testKey(t, 128)
	pk := sk.Public()
	for i := 0; i < 20; i++ {
		m, err := randomMessage(pk)
		if err != nil {
			t.Fatal(err)
		}
		r, err := randomNonce(pk)
		if err != nil {
			t.Fatal(err)
		}
		want, err := pk.EncryptWithNonce(m, r)
		if err != nil {
			t.Fatal(err)
		}
		got, err := sk.EncryptWithNonceCRT(m, r)
		if err != nil {
			t.Fatalf("EncryptWithNonceCRT: %v", err)
		}
		if !bytes.Equal(got.Bytes(), want.Bytes()) {
			t.Fatal("CRT nonce path produced a different ciphertext")
		}
	}
}

func TestEncryptCRTRoundTrip(t *testing.T) {
	for _, bits := range crtKeyBits {
		sk := testKey(t, bits)
		msgs := []*big.Int{
			big.NewInt(0), big.NewInt(1), big.NewInt(1 << 30),
			new(big.Int).Sub(sk.N, big.NewInt(1)),
		}
		for _, m := range msgs {
			ct, err := sk.EncryptCRT(m)
			if err != nil {
				t.Fatalf("%d-bit key: EncryptCRT(%v): %v", bits, m, err)
			}
			for name, dec := range map[string]func(*Ciphertext) (*big.Int, error){
				"crt":   sk.Decrypt,
				"naive": sk.DecryptNaive,
			} {
				got, err := dec(ct)
				if err != nil {
					t.Fatalf("%d-bit key: %s decrypt of EncryptCRT(%v): %v", bits, name, m, err)
				}
				if got.Cmp(m) != 0 {
					t.Fatalf("%d-bit key: %s decrypt = %v, want %v", bits, name, got, m)
				}
			}
		}
		if _, err := sk.EncryptCRT(sk.N); err == nil {
			t.Fatalf("%d-bit key: EncryptCRT accepted out-of-range message", bits)
		}
	}
}

// TestFreshRandomizerCRTIsEncryptionOfZero: the z^p-shortcut randomizer
// must be a valid N-th residue — i.e. usable as E(0)'s full ciphertext —
// and must mix homomorphically with public-path ciphertexts.
func TestFreshRandomizerCRTIsEncryptionOfZero(t *testing.T) {
	sk := testKey(t, 128)
	pk := sk.Public()
	for i := 0; i < 10; i++ {
		rn, err := sk.FreshRandomizerCRT()
		if err != nil {
			t.Fatal(err)
		}
		ct, err := pk.EncryptWithRandomizer(big.NewInt(7), rn)
		if err != nil {
			t.Fatal(err)
		}
		m, err := sk.Decrypt(ct)
		if err != nil {
			t.Fatal(err)
		}
		if m.Int64() != 7 {
			t.Fatalf("EncryptWithRandomizer(7, crt-rn) decrypts to %v", m)
		}
		pub, err := pk.Encrypt(big.NewInt(5))
		if err != nil {
			t.Fatal(err)
		}
		sum, err := pk.Add(ct, pub)
		if err != nil {
			t.Fatal(err)
		}
		s, err := sk.Decrypt(sum)
		if err != nil {
			t.Fatal(err)
		}
		if s.Int64() != 12 {
			t.Fatalf("CRT + public ciphertext sum decrypts to %v, want 12", s)
		}
	}
}

// TestEncryptWithNonceRejectsNonUnit pins the satellite fix: a nonce
// sharing a factor with N (here r = p exactly) must be rejected with the
// structured error on every encryption path rather than silently producing
// a non-unit ciphertext.
func TestEncryptWithNonceRejectsNonUnit(t *testing.T) {
	sk := testKey(t, 128)
	pk := sk.Public()
	m := big.NewInt(3)
	for name, encrypt := range map[string]func(m, r *big.Int) error{
		"public": func(m, r *big.Int) error { _, err := pk.EncryptWithNonce(m, r); return err },
		"crt":    func(m, r *big.Int) error { _, err := sk.EncryptWithNonceCRT(m, r); return err },
	} {
		if err := encrypt(m, sk.P); !errors.Is(err, ErrNonceNotUnit) {
			t.Errorf("%s: nonce r=p: got %v, want ErrNonceNotUnit", name, err)
		}
		twoP := new(big.Int).Lsh(sk.P, 1)
		if err := encrypt(m, twoP); !errors.Is(err, ErrNonceNotUnit) {
			t.Errorf("%s: nonce r=2p: got %v, want ErrNonceNotUnit", name, err)
		}
		for _, r := range []*big.Int{nil, big.NewInt(0), sk.N, new(big.Int).Neg(big.NewInt(5))} {
			if err := encrypt(m, r); !errors.Is(err, ErrNonceRange) {
				t.Errorf("%s: nonce %v: got %v, want ErrNonceRange", name, r, err)
			}
		}
	}
}

func TestAppendBytesMatchesBytes(t *testing.T) {
	sk := testKey(t, 128)
	ct, err := sk.EncryptCRT(big.NewInt(42))
	if err != nil {
		t.Fatal(err)
	}
	prefix := []byte{0xde, 0xad}
	got := ct.AppendBytes(append([]byte(nil), prefix...))
	want := append(append([]byte(nil), prefix...), ct.Bytes()...)
	if !bytes.Equal(got, want) {
		t.Fatal("AppendBytes disagrees with Bytes")
	}
	// Growth path: zero-capacity destination.
	if !bytes.Equal(ct.AppendBytes(nil), ct.Bytes()) {
		t.Fatal("AppendBytes(nil) disagrees with Bytes")
	}
}

// failingReader fails after a set number of reads — the regression harness
// for the fallback-counting fix.
type failingReader struct {
	reads int
}

func (f *failingReader) Read(p []byte) (int, error) {
	if f.reads <= 0 {
		return 0, errors.New("injected randomness failure")
	}
	f.reads--
	return rand.Read(p)
}

// TestDrawFailureNotCountedAsFallback pins the satellite fix: Draw used to
// increment onlineFallbacks before computing the online randomizer, so a
// failed RandUnit still counted as a served fallback and inflated the SLO
// metric.
func TestDrawFailureNotCountedAsFallback(t *testing.T) {
	sk := testKey(t, 128)
	pool := NewRandomizerPool(sk.Public())
	pool.rnd = &failingReader{reads: 0}
	if _, err := pool.Draw(); err == nil {
		t.Fatal("Draw with failing randomness succeeded")
	}
	if n := pool.OnlineFallbacks(); n != 0 {
		t.Fatalf("failed draw counted as fallback: OnlineFallbacks = %d, want 0", n)
	}
	pool.rnd = nil
	rn, err := pool.Draw()
	if err != nil {
		t.Fatalf("Draw after restoring randomness: %v", err)
	}
	if rn == nil || rn.Sign() <= 0 {
		t.Fatal("Draw returned invalid randomizer")
	}
	if n := pool.OnlineFallbacks(); n != 1 {
		t.Fatalf("successful online draw not counted: OnlineFallbacks = %d, want 1", n)
	}
}

func TestOwnerPoolAndStoreUseCRTAndStayCorrect(t *testing.T) {
	sk := testKey(t, 128)

	pool := NewRandomizerPoolOwner(sk)
	if err := pool.Fill(8); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ { // 8 stocked + 2 online fallbacks
		ct, err := pool.Encrypt(big.NewInt(int64(i)))
		if err != nil {
			t.Fatal(err)
		}
		m, err := sk.Decrypt(ct)
		if err != nil {
			t.Fatal(err)
		}
		if m.Int64() != int64(i) {
			t.Fatalf("owner pool encryption of %d decrypts to %v", i, m)
		}
	}
	if n := pool.OnlineFallbacks(); n != 2 {
		t.Fatalf("OnlineFallbacks = %d, want 2", n)
	}

	store := NewBitStoreOwner(sk)
	if err := store.Fill(3, 3); err != nil {
		t.Fatal(err)
	}
	for bit := uint(0); bit <= 1; bit++ {
		for i := 0; i < 4; i++ { // 3 stocked + 1 fallback per bit
			ct, err := store.DrawBit(bit)
			if err != nil {
				t.Fatal(err)
			}
			m, err := sk.Decrypt(ct)
			if err != nil {
				t.Fatal(err)
			}
			if m.Uint64() != uint64(bit) {
				t.Fatalf("owner store draw of bit %d decrypts to %v", bit, m)
			}
		}
	}
	if n := store.OnlineFallbacks(); n != 2 {
		t.Fatalf("store OnlineFallbacks = %d, want 2", n)
	}
}

// TestFillParallelContextCancelKeepsPartials: cancelling a parallel refill
// mid-run must stop the workers at the next chunk boundary while keeping
// everything already published.
func TestFillParallelContextCancelKeepsPartials(t *testing.T) {
	// The public path at a 512-bit key, ≈ 50 µs per encryption with its r^N
	// batched on the lanes: 4 000 of them take long enough to cancel
	// mid-fill on one core. A 256-bit key's ≈ 5 µs can finish the whole
	// fill before the first poll.
	sk := testKey(t, 512)
	store := NewBitStore(sk.Public())
	const zeros, ones = 2000, 2000

	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- store.FillParallelContext(ctx, zeros, ones, 4) }()

	testutil.Eventually(t, 30*time.Second, "the first published stock", func() bool {
		select {
		case err := <-done:
			t.Fatalf("fill finished before any stock was observed: %v", err)
		default:
		}
		z, o := store.Depth()
		return z+o > 0
	})
	cancel()
	err := <-done
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled parallel fill returned %v, want context.Canceled", err)
	}
	z, o := store.Depth()
	if z+o == 0 {
		t.Fatal("cancellation discarded already-published stock")
	}
	if z >= zeros && o >= ones {
		t.Fatal("fill ran to completion despite cancellation")
	}
	// Published partials must be real, decryptable encryptions.
	ct, err := store.DrawBit(0)
	if err != nil {
		t.Fatal(err)
	}
	if m, err := sk.Decrypt(ct); err != nil || m.Sign() != 0 {
		t.Fatalf("partial stock draw decrypts to (%v, %v), want 0", m, err)
	}
}

func randomMessage(pk *PublicKey) (*big.Int, error) {
	return rand.Int(rand.Reader, pk.N)
}

func randomNonce(pk *PublicKey) (*big.Int, error) {
	for {
		r, err := rand.Int(rand.Reader, pk.N)
		if err != nil {
			return nil, err
		}
		if r.Sign() == 0 {
			continue
		}
		if new(big.Int).GCD(nil, nil, r, pk.N).Cmp(big.NewInt(1)) == 0 {
			return r, nil
		}
	}
}

var _ io.Reader = (*failingReader)(nil)
