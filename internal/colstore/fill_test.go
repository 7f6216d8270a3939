package colstore

import (
	"testing"

	"privstats/internal/database"
)

// TestColumnFill: Fill reads a range of a store's columns a block at a time
// and gives exactly what At gives row by row: across block boundaries, into
// the in-memory tail block, through a View at an offset, squared, and
// empty. A range past either end is a panic, as At's is.
func TestColumnFill(t *testing.T) {
	table, err := database.Generate(100, database.DistUniform, 12)
	if err != nil {
		t.Fatal(err)
	}
	s, err := BuildFrom(table, t.TempDir(), Options{BlockRows: 16}) // six full blocks and a tail of four rows
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	v, err := s.Range(25, 75)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name        string
		col         database.Column
		first, rows int
	}{
		{"across block boundaries", s.Column(), 10, 30},
		{"ending in the tail block", s.Column(), 90, 10},
		{"the tail block alone", s.Column(), 97, 3},
		{"every row", s.Column(), 0, 100},
		{"a view at an offset", v.Column(), 3, 40},
		{"the square column", s.SquareColumn(), 5, 95},
		{"a view's square column", v.SquareColumn(), 0, 50},
		{"no rows", s.Column(), 100, 0},
	} {
		got := make([]uint64, c.rows)
		c.col.Fill(got, c.first)
		for k, g := range got {
			if want := c.col.At(c.first + k); g != want {
				t.Fatalf("%s: Fill row %d = %d, At gives %d", c.name, c.first+k, g, want)
			}
		}
	}
	for _, c := range []struct {
		name        string
		col         database.Column
		first, rows int
	}{
		{"past the end", s.Column(), 99, 2},
		{"before the start", s.Column(), -1, 1},
		{"past a view's end", v.Column(), 50, 1},
		{"past a square view's end", v.SquareColumn(), 45, 6},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: Fill of rows [%d,%d) did not panic", c.name, c.first, c.first+c.rows)
				}
			}()
			c.col.Fill(make([]uint64, c.rows), c.first)
		}()
	}
}
