package database

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math/big"
	"path/filepath"
	"runtime"
	"testing"
	"testing/quick"
)

func TestNewCopiesInput(t *testing.T) {
	src := []uint32{1, 2, 3}
	tab := New(src)
	src[0] = 99
	if tab.Value(0) != 1 {
		t.Error("New aliased the caller's slice")
	}
	if tab.Len() != 3 {
		t.Errorf("Len = %d", tab.Len())
	}
}

func TestSquares(t *testing.T) {
	tab := New([]uint32{0, 1, 2, 65535, 1<<32 - 1})
	sq := tab.Squares()
	want := []uint64{0, 1, 4, 65535 * 65535, (1<<32 - 1) * (1<<32 - 1)}
	for i := range want {
		if sq[i] != want[i] {
			t.Errorf("squares[%d] = %d, want %d", i, sq[i], want[i])
		}
	}
}

func TestSelectedSum(t *testing.T) {
	tab := New([]uint32{10, 20, 30, 40, 50})
	sel, err := NewSelection(5)
	if err != nil {
		t.Fatal(err)
	}
	sel.Set(0)
	sel.Set(2)
	sel.Set(4)
	sum, err := tab.SelectedSum(sel)
	if err != nil {
		t.Fatal(err)
	}
	if sum.Int64() != 90 {
		t.Errorf("sum = %v, want 90", sum)
	}
	sq, err := tab.SelectedSumOfSquares(sel)
	if err != nil {
		t.Fatal(err)
	}
	if sq.Int64() != 100+900+2500 {
		t.Errorf("sum of squares = %v, want 3500", sq)
	}
}

func TestSelectedSumLengthMismatch(t *testing.T) {
	tab := New([]uint32{1, 2})
	sel, _ := NewSelection(3)
	if _, err := tab.SelectedSum(sel); err == nil {
		t.Error("length mismatch should fail")
	}
	if _, err := tab.SelectedSumOfSquares(sel); err == nil {
		t.Error("length mismatch should fail")
	}
}

func TestSelectedSumNoOverflow(t *testing.T) {
	// Max values everywhere: sum must be exact in big.Int.
	n := 1000
	vals := make([]uint32, n)
	for i := range vals {
		vals[i] = 1<<32 - 1
	}
	tab := New(vals)
	sel, _ := NewSelection(n)
	for i := 0; i < n; i++ {
		sel.Set(i)
	}
	sum, err := tab.SelectedSum(sel)
	if err != nil {
		t.Fatal(err)
	}
	want := new(big.Int).Mul(big.NewInt(1<<32-1), big.NewInt(int64(n)))
	if sum.Cmp(want) != 0 {
		t.Errorf("sum = %v, want %v", sum, want)
	}
}

func TestGenerateDeterministic(t *testing.T) {
	a, err := Generate(100, DistUniform, 42)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Generate(100, DistUniform, 42)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		if a.Value(i) != b.Value(i) {
			t.Fatal("same seed produced different tables")
		}
	}
	c, err := Generate(100, DistUniform, 43)
	if err != nil {
		t.Fatal(err)
	}
	same := true
	for i := 0; i < 100; i++ {
		if a.Value(i) != c.Value(i) {
			same = false
			break
		}
	}
	if same {
		t.Error("different seeds produced identical tables")
	}
}

func TestGenerateDistributions(t *testing.T) {
	small, err := Generate(500, DistSmall, 1)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < small.Len(); i++ {
		if small.Value(i) >= 1000 {
			t.Fatalf("DistSmall produced %d", small.Value(i))
		}
	}
	konst, err := Generate(10, DistConstant, 1)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		if konst.Value(i) != 1 {
			t.Fatal("DistConstant produced non-1")
		}
	}
	if _, err := Generate(10, DistZipf, 7); err != nil {
		t.Fatalf("DistZipf: %v", err)
	}
	if _, err := Generate(-1, DistUniform, 0); err == nil {
		t.Error("negative size should fail")
	}
	if _, err := Generate(10, Distribution(99), 0); err == nil {
		t.Error("unknown distribution should fail")
	}
}

func TestDistributionString(t *testing.T) {
	for d, want := range map[Distribution]string{
		DistUniform: "uniform32", DistSmall: "small(<1000)",
		DistZipf: "zipf(1.1)", DistConstant: "constant(1)",
	} {
		if d.String() != want {
			t.Errorf("%d.String() = %q", int(d), d.String())
		}
	}
}

func TestSelectionSetCount(t *testing.T) {
	s, err := NewSelection(130) // spans three words
	if err != nil {
		t.Fatal(err)
	}
	for _, i := range []int{0, 63, 64, 127, 129} {
		s.Set(i)
	}
	if s.Count() != 5 {
		t.Errorf("count = %d, want 5", s.Count())
	}
	s.Set(0) // idempotent
	if s.Count() != 5 {
		t.Errorf("double set changed count to %d", s.Count())
	}
	want := []int{0, 63, 64, 127, 129}
	got := s.Indices()
	if len(got) != len(want) {
		t.Fatalf("indices = %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("indices = %v, want %v", got, want)
		}
	}
}

func TestSelectionBoundsPanic(t *testing.T) {
	s, _ := NewSelection(10)
	for _, f := range []func(){
		func() { s.Bit(-1) },
		func() { s.Bit(10) },
		func() { s.Set(10) },
		func() { s.Set(-1) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("out-of-range access should panic")
				}
			}()
			f()
		}()
	}
}

func TestSelectionSlice(t *testing.T) {
	s, _ := NewSelection(10)
	for _, i := range []int{1, 4, 5, 9} {
		s.Set(i)
	}
	sub, err := s.Slice(4, 8)
	if err != nil {
		t.Fatal(err)
	}
	if sub.Len() != 4 || sub.Count() != 2 {
		t.Fatalf("sub len=%d count=%d", sub.Len(), sub.Count())
	}
	if sub.Bit(0) != 1 || sub.Bit(1) != 1 || sub.Bit(2) != 0 || sub.Bit(3) != 0 {
		t.Errorf("sub bits = %d%d%d%d", sub.Bit(0), sub.Bit(1), sub.Bit(2), sub.Bit(3))
	}
	if _, err := s.Slice(5, 3); err == nil {
		t.Error("inverted slice should fail")
	}
	if _, err := s.Slice(0, 11); err == nil {
		t.Error("overlong slice should fail")
	}
}

func TestSelectionSlicesPartitionCount(t *testing.T) {
	prop := func(bits []bool, cut uint8) bool {
		n := len(bits)
		s, err := NewSelection(n)
		if err != nil {
			return false
		}
		for i, b := range bits {
			if b {
				s.Set(i)
			}
		}
		lo := 0
		if n > 0 {
			lo = int(cut) % (n + 1)
		}
		left, err := s.Slice(0, lo)
		if err != nil {
			return false
		}
		right, err := s.Slice(lo, n)
		if err != nil {
			return false
		}
		return left.Count()+right.Count() == s.Count()
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Error(err)
	}
}

func TestGenerateSelectionPatterns(t *testing.T) {
	for _, p := range []SelectionPattern{PatternRandom, PatternPrefix, PatternStride} {
		for _, m := range []int{0, 1, 50, 100} {
			s, err := GenerateSelection(100, m, p, 7)
			if err != nil {
				t.Fatalf("%v m=%d: %v", p, m, err)
			}
			if s.Count() != m {
				t.Errorf("%v m=%d: count=%d", p, m, s.Count())
			}
		}
	}
	// Prefix is exactly the first m.
	s, _ := GenerateSelection(10, 3, PatternPrefix, 0)
	for i := 0; i < 10; i++ {
		want := uint(0)
		if i < 3 {
			want = 1
		}
		if s.Bit(i) != want {
			t.Errorf("prefix bit %d = %d", i, s.Bit(i))
		}
	}
	if _, err := GenerateSelection(10, 11, PatternRandom, 0); err == nil {
		t.Error("m > n should fail")
	}
	if _, err := GenerateSelection(10, -1, PatternRandom, 0); err == nil {
		t.Error("negative m should fail")
	}
	if _, err := GenerateSelection(10, 5, SelectionPattern(99), 0); err == nil {
		t.Error("unknown pattern should fail")
	}
}

func TestGenerateSelectionDeterministic(t *testing.T) {
	a, _ := GenerateSelection(1000, 500, PatternRandom, 11)
	b, _ := GenerateSelection(1000, 500, PatternRandom, 11)
	for i := 0; i < 1000; i++ {
		if a.Bit(i) != b.Bit(i) {
			t.Fatal("same seed produced different selections")
		}
	}
}

func TestTablePersistRoundTrip(t *testing.T) {
	tab, err := Generate(1234, DistUniform, 99)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := tab.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := ReadTable(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.Len() != tab.Len() {
		t.Fatalf("len = %d", back.Len())
	}
	for i := 0; i < tab.Len(); i++ {
		if back.Value(i) != tab.Value(i) {
			t.Fatalf("row %d: %d != %d", i, back.Value(i), tab.Value(i))
		}
	}
}

func TestReadTableRejectsCorruption(t *testing.T) {
	tab := New([]uint32{1, 2, 3})
	var buf bytes.Buffer
	if _, err := tab.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	good := buf.Bytes()

	// Bit flip anywhere must be caught (magic, version, count, data, crc).
	for _, pos := range []int{0, 5, 10, 17, len(good) - 1} {
		bad := append([]byte{}, good...)
		bad[pos] ^= 0x40
		if _, err := ReadTable(bytes.NewReader(bad)); err == nil {
			t.Errorf("bit flip at %d accepted", pos)
		}
	}
	// Truncation must be caught.
	for _, cut := range []int{0, 4, 15, len(good) - 2} {
		if _, err := ReadTable(bytes.NewReader(good[:cut])); !errors.Is(err, ErrCorruptTable) {
			t.Errorf("truncation at %d: err = %v", cut, err)
		}
	}
	// A header claiming 2^31 rows with none behind it (FuzzReadTable found
	// the like): rejected without allocating for the claim.
	huge := append([]byte{}, good[:16]...)
	binary.BigEndian.PutUint64(huge[8:], 1<<31)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := ReadTable(bytes.NewReader(huge))
	runtime.ReadMemStats(&after)
	if !errors.Is(err, ErrCorruptTable) {
		t.Errorf("empty 2^31-row table: err = %v", err)
	}
	if grew := after.TotalAlloc - before.TotalAlloc; grew > 1<<20 {
		t.Errorf("empty 2^31-row table allocated %d bytes", grew)
	}
}

func TestSaveLoadFile(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "table.psdb")
	tab, err := Generate(500, DistSmall, 3)
	if err != nil {
		t.Fatal(err)
	}
	if err := tab.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	back, err := LoadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 500; i++ {
		if back.Value(i) != tab.Value(i) {
			t.Fatal("file round trip corrupted data")
		}
	}
	if _, err := LoadFile(filepath.Join(dir, "missing.psdb")); err == nil {
		t.Error("missing file should fail")
	}
}

func TestEmptyTablePersistence(t *testing.T) {
	var buf bytes.Buffer
	if _, err := New(nil).WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := ReadTable(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.Len() != 0 {
		t.Errorf("len = %d", back.Len())
	}
}
