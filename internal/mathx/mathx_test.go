package mathx

import (
	"crypto/rand"
	"errors"
	"math/big"
	"testing"
	"testing/quick"
)

func TestRandIntRange(t *testing.T) {
	max := big.NewInt(1000)
	for i := 0; i < 200; i++ {
		v, err := RandInt(rand.Reader, max)
		if err != nil {
			t.Fatalf("RandInt: %v", err)
		}
		if v.Sign() < 0 || v.Cmp(max) >= 0 {
			t.Fatalf("RandInt out of range: %v", v)
		}
	}
}

func TestRandIntRejectsBadBounds(t *testing.T) {
	for _, max := range []*big.Int{nil, big.NewInt(0), big.NewInt(-5)} {
		if _, err := RandInt(rand.Reader, max); err == nil {
			t.Errorf("RandInt(%v) should fail", max)
		}
	}
}

func TestRandUnitIsUnit(t *testing.T) {
	n := big.NewInt(35) // 5*7
	gcd := new(big.Int)
	for i := 0; i < 100; i++ {
		v, err := RandUnit(rand.Reader, n)
		if err != nil {
			t.Fatalf("RandUnit: %v", err)
		}
		if v.Sign() <= 0 || v.Cmp(n) >= 0 {
			t.Fatalf("unit out of range: %v", v)
		}
		if gcd.GCD(nil, nil, v, n).Cmp(One) != 0 {
			t.Fatalf("not a unit: %v", v)
		}
	}
}

func TestRandUnitRejectsTrivialModulus(t *testing.T) {
	if _, err := RandUnit(rand.Reader, big.NewInt(1)); err == nil {
		t.Error("RandUnit(1) should fail: group is empty")
	}
	if _, err := RandUnit(rand.Reader, big.NewInt(0)); err == nil {
		t.Error("RandUnit(0) should fail")
	}
}

func TestModInverse(t *testing.T) {
	n := big.NewInt(101) // prime
	for a := int64(1); a < 101; a++ {
		inv, err := ModInverse(big.NewInt(a), n)
		if err != nil {
			t.Fatalf("inverse of %d mod 101: %v", a, err)
		}
		prod := new(big.Int).Mul(big.NewInt(a), inv)
		prod.Mod(prod, n)
		if prod.Cmp(One) != 0 {
			t.Fatalf("a·a^-1 != 1 for a=%d", a)
		}
	}
}

func TestModInverseNotInvertible(t *testing.T) {
	_, err := ModInverse(big.NewInt(7), big.NewInt(35))
	if err == nil {
		t.Fatal("7 shares factor 7 with 35; inverse must not exist")
	}
}

func TestLcm(t *testing.T) {
	cases := []struct{ a, b, want int64 }{
		{4, 6, 12},
		{5, 7, 35},
		{0, 9, 0},
		{12, 12, 12},
		{21, 6, 42},
	}
	for _, c := range cases {
		got := Lcm(big.NewInt(c.a), big.NewInt(c.b))
		if got.Int64() != c.want {
			t.Errorf("Lcm(%d,%d) = %v, want %d", c.a, c.b, got, c.want)
		}
	}
}

func TestLcmProperty(t *testing.T) {
	f := func(a, b uint16) bool {
		if a == 0 || b == 0 {
			return true
		}
		ba, bb := big.NewInt(int64(a)), big.NewInt(int64(b))
		l := Lcm(ba, bb)
		// lcm divisible by both, and lcm*gcd = a*b.
		if new(big.Int).Mod(l, ba).Sign() != 0 || new(big.Int).Mod(l, bb).Sign() != 0 {
			return false
		}
		gcd := new(big.Int).GCD(nil, nil, ba, bb)
		return new(big.Int).Mul(l, gcd).Cmp(new(big.Int).Mul(ba, bb)) == 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestLFunction(t *testing.T) {
	n := big.NewInt(15)
	u := big.NewInt(46) // 46 - 1 = 45 = 3·15
	got, err := L(u, n)
	if err != nil {
		t.Fatalf("L: %v", err)
	}
	if got.Int64() != 3 {
		t.Errorf("L(46,15) = %v, want 3", got)
	}
	if _, err := L(big.NewInt(47), n); err == nil {
		t.Error("L should reject u with u-1 not divisible by n")
	}
}

func TestCRTCombine(t *testing.T) {
	p, q := big.NewInt(11), big.NewInt(13)
	crt, err := NewCRT(p, q)
	if err != nil {
		t.Fatalf("NewCRT: %v", err)
	}
	for x := int64(0); x < 143; x++ {
		bx := big.NewInt(x)
		ap := new(big.Int).Mod(bx, p)
		aq := new(big.Int).Mod(bx, q)
		got := crt.Combine(ap, aq)
		if got.Int64() != x {
			t.Fatalf("Combine(%v,%v) = %v, want %d", ap, aq, got, x)
		}
	}
}

func TestCRTRejectsNonCoprime(t *testing.T) {
	if _, err := NewCRT(big.NewInt(6), big.NewInt(9)); err == nil {
		t.Fatal("NewCRT(6,9) should fail: not coprime")
	}
}

func TestExpCRTMatchesDirect(t *testing.T) {
	p, err := GeneratePrime(rand.Reader, 64)
	if err != nil {
		t.Fatal(err)
	}
	q, err := GeneratePrime(rand.Reader, 64)
	if err != nil {
		t.Fatal(err)
	}
	if p.Cmp(q) == 0 {
		t.Skip("astronomically unlikely: p == q")
	}
	crt, err := NewCRT(p, q)
	if err != nil {
		t.Fatal(err)
	}
	n := new(big.Int).Mul(p, q)
	for i := 0; i < 50; i++ {
		base, _ := RandInt(rand.Reader, n)
		exp, _ := RandInt(rand.Reader, n)
		want := new(big.Int).Exp(base, exp, n)
		got := crt.ExpCRT(base, exp)
		if got.Cmp(want) != 0 {
			t.Fatalf("ExpCRT mismatch: base=%v exp=%v got=%v want=%v", base, exp, got, want)
		}
	}
}

func TestExpCRTZeroBase(t *testing.T) {
	crt, err := NewCRT(big.NewInt(11), big.NewInt(13))
	if err != nil {
		t.Fatal(err)
	}
	got := crt.ExpCRT(big.NewInt(0), big.NewInt(5))
	if got.Sign() != 0 {
		t.Errorf("0^5 = %v, want 0", got)
	}
	// base divisible by p but not q
	got = crt.ExpCRT(big.NewInt(11), big.NewInt(3))
	want := new(big.Int).Exp(big.NewInt(11), big.NewInt(3), big.NewInt(143))
	if got.Cmp(want) != 0 {
		t.Errorf("11^3 mod 143 = %v, want %v", got, want)
	}
}

func TestExpCRTExponentMultipleOfOrder(t *testing.T) {
	crt, err := NewCRT(big.NewInt(11), big.NewInt(13))
	if err != nil {
		t.Fatal(err)
	}
	n := big.NewInt(143)
	// exponent = lcm(10,12) = 60: reduces to 0 mod both p-1 and q-1.
	exp := big.NewInt(60)
	for _, base := range []int64{2, 3, 7, 142} {
		got := crt.ExpCRT(big.NewInt(base), exp)
		want := new(big.Int).Exp(big.NewInt(base), exp, n)
		if got.Cmp(want) != 0 {
			t.Errorf("base %d: got %v want %v", base, got, want)
		}
	}
}

func TestGeneratePrimePair(t *testing.T) {
	p, q, err := GeneratePrimePair(rand.Reader, 64)
	if err != nil {
		t.Fatalf("GeneratePrimePair: %v", err)
	}
	if !p.ProbablyPrime(20) || !q.ProbablyPrime(20) {
		t.Fatal("non-prime output")
	}
	if p.Cmp(q) == 0 {
		t.Fatal("p == q")
	}
	n := new(big.Int).Mul(p, q)
	if n.BitLen() != 128 {
		t.Fatalf("modulus has %d bits, want 128", n.BitLen())
	}
	phi := new(big.Int).Mul(new(big.Int).Sub(p, One), new(big.Int).Sub(q, One))
	if new(big.Int).GCD(nil, nil, n, phi).Cmp(One) != 0 {
		t.Fatal("gcd(n, phi) != 1")
	}
}

func TestGeneratePrimePairRejectsTinyBits(t *testing.T) {
	if _, _, err := GeneratePrimePair(rand.Reader, 8); err == nil {
		t.Fatal("should reject 8-bit request")
	}
}

func TestFixedBaseExpMatchesDirect(t *testing.T) {
	m := big.NewInt(1000003)
	base := big.NewInt(7919)
	f, err := NewFixedBaseExp(base, m, 64, 4)
	if err != nil {
		t.Fatalf("NewFixedBaseExp: %v", err)
	}
	for i := 0; i < 200; i++ {
		e, _ := RandInt(rand.Reader, new(big.Int).Lsh(One, 64))
		got, err := f.Exp(e)
		if err != nil {
			t.Fatalf("Exp: %v", err)
		}
		want := new(big.Int).Exp(base, e, m)
		if got.Cmp(want) != 0 {
			t.Fatalf("fixed-base mismatch for e=%v: got %v want %v", e, got, want)
		}
	}
}

func TestFixedBaseExpEdgeCases(t *testing.T) {
	m := big.NewInt(97)
	f, err := NewFixedBaseExp(big.NewInt(5), m, 16, 3)
	if err != nil {
		t.Fatal(err)
	}
	got, err := f.Exp(Zero)
	if err != nil || got.Cmp(One) != 0 {
		t.Errorf("g^0 = %v (err %v), want 1", got, err)
	}
	if _, err := f.Exp(big.NewInt(-1)); err == nil {
		t.Error("negative exponent should error")
	}
	if _, err := f.Exp(new(big.Int).Lsh(One, 17)); err == nil {
		t.Error("oversized exponent should error")
	}
}

func TestFixedBaseExpRejectsBadParams(t *testing.T) {
	if _, err := NewFixedBaseExp(Two, big.NewInt(97), 16, 0); err == nil {
		t.Error("window 0 should fail")
	}
	if _, err := NewFixedBaseExp(Two, big.NewInt(97), 0, 4); err == nil {
		t.Error("maxBits 0 should fail")
	}
	if _, err := NewFixedBaseExp(Two, Zero, 16, 4); err == nil {
		t.Error("zero modulus should fail")
	}
	if _, err := NewFixedBaseExp(Three, big.NewInt(96), 16, 4); !errors.Is(err, ErrBadModulus) {
		t.Errorf("even modulus: err = %v, want ErrBadModulus", err)
	}
}

func TestFixedBaseExpProperty(t *testing.T) {
	m := big.NewInt(65537)
	f, err := NewFixedBaseExp(Three, m, 32, 5)
	if err != nil {
		t.Fatal(err)
	}
	prop := func(e uint32) bool {
		be := new(big.Int).SetUint64(uint64(e))
		got, err := f.Exp(be)
		if err != nil {
			return false
		}
		return got.Cmp(new(big.Int).Exp(Three, be, m)) == 0
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func BenchmarkExpDirect(b *testing.B) {
	p, q, err := GeneratePrimePair(rand.Reader, 256)
	if err != nil {
		b.Fatal(err)
	}
	n := new(big.Int).Mul(p, q)
	base, _ := RandUnit(rand.Reader, n)
	exp, _ := RandInt(rand.Reader, n)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		new(big.Int).Exp(base, exp, n)
	}
}

func BenchmarkExpCRT(b *testing.B) {
	p, q, err := GeneratePrimePair(rand.Reader, 256)
	if err != nil {
		b.Fatal(err)
	}
	crt, err := NewCRT(p, q)
	if err != nil {
		b.Fatal(err)
	}
	n := new(big.Int).Mul(p, q)
	base, _ := RandUnit(rand.Reader, n)
	exp, _ := RandInt(rand.Reader, n)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		crt.ExpCRT(base, exp)
	}
}

func BenchmarkFixedBaseExp(b *testing.B) {
	p, q, err := GeneratePrimePair(rand.Reader, 256)
	if err != nil {
		b.Fatal(err)
	}
	n := new(big.Int).Mul(p, q)
	base, _ := RandUnit(rand.Reader, n)
	f, err := NewFixedBaseExp(base, n, 512, 6)
	if err != nil {
		b.Fatal(err)
	}
	exp, _ := RandInt(rand.Reader, n)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := f.Exp(exp); err != nil {
			b.Fatal(err)
		}
	}
}
